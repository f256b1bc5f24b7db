//! Fixture-based self-tests: every rule has a known-bad fixture that
//! must produce its diagnostic and a known-good fixture that must come
//! up clean, plus the schema-drift mutation test and the workspace
//! self-check (the real repository lints clean — the same gate CI's
//! `lint_smoke` step enforces).
//!
//! Fixtures live in `tests/fixtures/` — a directory the workspace
//! walker deliberately skips, since the bad ones violate rules on
//! purpose. Each fixture is linted under a *virtual* workspace path
//! (rules scope by path), declared here next to its expectations.

use std::path::Path;

use kw_lint::rules::schema_drift;
use kw_lint::workspace::Workspace;

/// Loads a fixture file and lints it under the virtual path `as_path`.
fn lint_fixture(fixture: &str, as_path: &str) -> Vec<kw_lint::Diagnostic> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let src = std::fs::read_to_string(dir.join(fixture))
        .unwrap_or_else(|e| panic!("fixture {fixture}: {e}"));
    Workspace::from_sources(vec![(as_path.to_string(), src)]).run()
}

fn rule_count(diags: &[kw_lint::Diagnostic], rule: &str) -> usize {
    diags.iter().filter(|d| d.rule == rule).count()
}

#[test]
fn panic_path_bad_fixture_fires() {
    let d = lint_fixture("panic_path_bad.rs", "crates/serve/src/handler.rs");
    assert_eq!(rule_count(&d, "panic-path"), 4, "{d:?}");
    let messages: Vec<&str> = d.iter().map(|d| d.message.as_str()).collect();
    assert!(messages
        .iter()
        .any(|m| m.contains("`.unwrap(…)`") && m.contains("wire-decode")));
    assert!(messages.iter().any(|m| m.contains("`panic!`")));
    assert!(messages
        .iter()
        .any(|m| m.contains("indexing") && m.contains("serve request path")));
    assert!(messages.iter().any(|m| m.contains("`.expect(…)`")));
}

#[test]
fn panic_path_good_fixture_is_clean() {
    let d = lint_fixture("panic_path_good.rs", "crates/serve/src/handler.rs");
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn hot_alloc_bad_fixture_fires() {
    let d = lint_fixture("hot_alloc_bad.rs", "crates/sim/src/engine.rs");
    assert_eq!(rule_count(&d, "hot-alloc"), 4, "{d:?}");
    for needle in ["`Vec::…`", "`.push(…)`", "`format!`", "`.to_vec(…)`"] {
        assert!(
            d.iter().any(|d| d.message.contains(needle)),
            "missing {needle}: {d:?}"
        );
    }
}

#[test]
fn hot_alloc_good_fixture_is_clean() {
    let d = lint_fixture("hot_alloc_good.rs", "crates/sim/src/engine.rs");
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn unsafe_outside_pool_fixture_fires() {
    let d = lint_fixture("unsafe_audit_bad.rs", "crates/graph/src/csr.rs");
    assert_eq!(rule_count(&d, "unsafe-audit"), 1, "{d:?}");
    assert!(d[0].message.contains("outside the worker pool"));
}

#[test]
fn pool_unsafe_without_safety_fixture_fires() {
    let d = lint_fixture(
        "unsafe_audit_pool_missing_safety.rs",
        "crates/sim/src/pool.rs",
    );
    assert_eq!(rule_count(&d, "unsafe-audit"), 1, "{d:?}");
    assert!(d[0].message.contains("SAFETY"));
}

#[test]
fn pool_unsafe_with_safety_fixture_is_clean() {
    let d = lint_fixture("unsafe_audit_good.rs", "crates/sim/src/pool.rs");
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn spec_roundtrip_bad_fixture_fires() {
    let d = lint_fixture("spec_roundtrip_bad.rs", "crates/sim/src/chaos.rs");
    assert_eq!(rule_count(&d, "spec-roundtrip"), 2, "{d:?}");
    assert!(d
        .iter()
        .any(|d| d.message.contains("no matching `ChaosPlan::spec`")));
    assert!(d.iter().any(|d| d.message.contains("round-trip test")));
}

#[test]
fn spec_roundtrip_good_fixture_is_clean() {
    let d = lint_fixture("spec_roundtrip_good.rs", "crates/sim/src/chaos.rs");
    assert!(d.is_empty(), "{d:?}");
}

/// The schema-drift mutation test the issue demands: bless the fixture
/// store's shape, then prove each kind of unbumped change is caught and
/// that a version bump routes to "bless", not "drift".
#[test]
fn schema_drift_mutations_are_caught() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let src = std::fs::read_to_string(dir.join("schema_store.rs")).unwrap();
    let store_ws = |source: &str, schema: Option<String>| {
        let mut ws = Workspace::from_sources(vec![(
            "crates/results/src/store.rs".to_string(),
            source.to_string(),
        )]);
        ws.schema = schema;
        ws
    };
    let blessed = schema_drift::compute_shape(&store_ws(&src, None))
        .unwrap_or_else(|d| panic!("{d:?}"))
        .schema_line();

    // Blessed shape: clean.
    assert!(store_ws(&src, Some(blessed.clone())).run().is_empty());

    // Renamed field, no bump: drift on exactly the mutated writer.
    let renamed = src.replace("w.field(\"seed\")", "w.field(\"rng_seed\")");
    let d = store_ws(&renamed, Some(blessed.clone())).run();
    assert_eq!(d.len(), 1, "{d:?}");
    assert!(d[0].message.contains("append_record") && d[0].message.contains("bump SCHEMA_VERSION"));

    // Added field, no bump: also drift.
    let added = src.replace(
        "w.field(\"phase_us\");",
        "w.field(\"phase_us\");\n    w.field(\"samples\");",
    );
    let d = store_ws(&added, Some(blessed.clone())).run();
    assert_eq!(d.len(), 1, "{d:?}");
    assert!(d[0].message.contains("append_trace"));

    // Version bumped: the old entry no longer applies; the rule asks
    // for a bless instead of reporting drift.
    let bumped = src.replace("SCHEMA_VERSION: u64 = 4", "SCHEMA_VERSION: u64 = 5");
    let d = store_ws(&bumped, Some(blessed)).run();
    assert_eq!(d.len(), 1, "{d:?}");
    assert!(d[0].message.contains("no fingerprint entry for schema v5"));
    assert!(d[0].message.contains("--bless-schema"));
}

/// The gate itself: the real workspace lints clean. This is the same
/// check CI's `lint_smoke` runs via the binary — having it in the test
/// suite means a violation fails `cargo test` too, with the diagnostic
/// in the assertion message.
#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = Workspace::load(&root).expect("load workspace");
    assert!(
        ws.files.len() > 50,
        "walker found only {} files",
        ws.files.len()
    );
    let findings = ws.run();
    assert!(
        findings.is_empty(),
        "workspace has lint findings:\n{}",
        findings
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
