//! The benchmark's own smoke test: `kwperf --quick` runs every workload's
//! untraced and traced pass briefly, and every metric `BENCHMARK.json`
//! names must appear in each result exactly once, with its unit, finite.

use std::process::Command;

use kw_domset::results::json::Json;

fn metric_table(bench: &Json, key: &str) -> Vec<(String, String)> {
    bench
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn quick_mode_prints_every_named_metric_once_with_its_unit() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let out = Command::new(env!("CARGO_BIN_EXE_kwperf"))
        .arg("--quick")
        .current_dir(root)
        .output()
        .expect("kwperf starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "kwperf --quick failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(format!("{root}/BENCHMARK.json")).expect("BENCHMARK.json");
    let bench = Json::parse(&text).expect("BENCHMARK.json parses");
    let end_to_end = metric_table(&bench, "end_to_end");
    let per_layer = metric_table(&bench, "per_layer");
    let workloads: Vec<String> = bench
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("workload name")
                .to_string()
        })
        .collect();

    let mut seen = Vec::new();
    for line in stdout.lines().filter(|l| l.starts_with("quick ")) {
        let (head, json) = line.split_at(line.find('{').expect("result JSON"));
        let mut words = head.split_whitespace().skip(1);
        let workload = words.next().expect("workload").to_string();
        let trace = words.next() == Some("trace=1");
        let result = Json::parse(json).expect("result line parses");
        assert_eq!(
            result.get("correct").and_then(Json::as_bool),
            Some(true),
            "{line}"
        );
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            panic!("no metrics object: {line}");
        };
        let table = if trace { &per_layer } else { &end_to_end };
        assert_eq!(
            metrics.len(),
            table.len(),
            "{workload} trace={trace}: metric count"
        );
        for (name, unit) in table {
            let found: Vec<&Json> = metrics
                .iter()
                .filter(|(k, _)| k == name)
                .map(|(_, v)| v)
                .collect();
            assert_eq!(
                found.len(),
                1,
                "{workload} trace={trace}: {name} appears {} times",
                found.len()
            );
            let value = found[0].get("value").and_then(Json::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{workload}: {name} = {value:?}"
            );
            assert_eq!(
                found[0].get("unit").and_then(Json::as_str),
                Some(unit.as_str()),
                "{name}"
            );
        }
        seen.push((workload, trace));
    }
    for w in &workloads {
        for trace in [false, true] {
            assert!(
                seen.contains(&(w.clone(), trace)),
                "{w} trace={trace} did not run"
            );
        }
    }
    assert_eq!(seen.len(), 2 * workloads.len());
}
