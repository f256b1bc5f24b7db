//! Daemon telemetry: lock-free counters and a fixed-bucket latency
//! histogram, rendered as Prometheus text exposition.
//!
//! The histogram's percentile logic is **not** its own: it ranks through
//! [`kw_results::summary::nearest_rank`], the same integer nearest-rank
//! rule `Summary` rollups use. One percentile definition serves both the
//! offline tables and the live `/metrics` endpoint, so their numbers are
//! directly comparable (up to bucket resolution here).

use std::sync::atomic::{AtomicU64, Ordering};

use kw_results::summary::nearest_rank;
use kw_trace::PHASES;

/// Upper bounds (µs, inclusive) of the latency histogram buckets. The
/// final `u64::MAX` bucket catches everything slower; its reported
/// percentile value is capped at [`OVERFLOW_CAP_US`].
pub const BUCKET_BOUNDS_US: [u64; 18] = [
    50,
    100,
    200,
    500,
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
    10_000_000,
    u64::MAX,
];

/// Reported value for percentiles landing in the overflow bucket: twice
/// the last finite bound. An honest "slower than the scale measures"
/// marker that stays plottable.
pub const OVERFLOW_CAP_US: u64 = 20_000_000;

/// Fixed-bucket latency histogram with atomic counts.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    counts: [AtomicU64; BUCKET_BOUNDS_US.len()],
}

impl LatencyHistogram {
    /// Records one latency sample.
    pub fn record(&self, micros: u64) {
        // The last bound is u64::MAX, so every sample lands in a bucket.
        for (&bound, count) in BUCKET_BOUNDS_US.iter().zip(self.counts.iter()) {
            if micros <= bound {
                count.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// The `percent`-th percentile as the upper bound of the bucket
    /// holding the nearest-rank sample (0 with no samples). Shares
    /// [`nearest_rank`] with `Summary`'s percentiles: a histogram over
    /// exact bucket-bound samples agrees with `Percentiles::from_samples`
    /// on the same data.
    pub fn percentile(&self, percent: usize) -> u64 {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        let rank = nearest_rank(percent, total as usize) as u64;
        if rank == 0 {
            return 0;
        }
        let mut cumulative = 0u64;
        for (&bound, &count) in BUCKET_BOUNDS_US.iter().zip(counts.iter()) {
            cumulative += count;
            if cumulative >= rank {
                return bound.min(OVERFLOW_CAP_US);
            }
        }
        OVERFLOW_CAP_US
    }
}

/// Counters of one daemon's lifetime, all updated without locks on the
/// request path.
#[derive(Debug, Default)]
pub struct Telemetry {
    /// Requests parsed (complete or violating) over all connections.
    requests: AtomicU64,
    /// Responses by status class.
    r2xx: AtomicU64,
    r4xx: AtomicU64,
    r5xx: AtomicU64,
    /// Connections shed by backpressure (503 before entering the queue;
    /// also counted in `r5xx`).
    shed: AtomicU64,
    /// Solver panics converted to 500s.
    panics: AtomicU64,
    /// Store appends that failed (the answer was still served).
    store_errors: AtomicU64,
    /// Solve requests carrying a non-reliable chaos clause.
    chaos_requests: AtomicU64,
    /// Requests currently being handled by workers.
    inflight: AtomicU64,
    /// Traced solves observed (requests with `"trace": true`).
    traced_solves: AtomicU64,
    /// Cumulative engine-phase time (µs) over traced solves, indexed
    /// like [`PHASES`]. Only traced solves contribute — untraced ones
    /// record no spans to attribute.
    phase_us: [AtomicU64; PHASES.len()],
    /// End-to-end request latency (entering the worker to response
    /// rendered). Recorded before the response is written, so a client
    /// that has read its response never scrapes the request unfinished.
    pub latency: LatencyHistogram,
}

impl Telemetry {
    /// Counts one finished request with its status and latency.
    pub fn observe(&self, status: u16, latency_us: u64) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let class = match status {
            200..=299 => &self.r2xx,
            400..=499 => &self.r4xx,
            _ => &self.r5xx,
        };
        class.fetch_add(1, Ordering::Relaxed);
        self.latency.record(latency_us);
    }

    /// Counts one connection refused by backpressure.
    pub fn observe_shed(&self, latency_us: u64) {
        self.shed.fetch_add(1, Ordering::Relaxed);
        self.observe(503, latency_us);
    }

    /// Counts one solver panic (the request is also a 5xx).
    pub fn count_panic(&self) {
        self.panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one failed store append.
    pub fn count_store_error(&self) {
        self.store_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one solve request whose chaos clause was not the reliable
    /// plan (parsed successfully; rejected clauses are plain 4xx).
    pub fn count_chaos_request(&self) {
        self.chaos_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Chaos solve requests observed.
    pub fn chaos_requests(&self) -> u64 {
        self.chaos_requests.load(Ordering::Relaxed)
    }

    /// Accumulates one traced solve's per-phase totals into the phase
    /// duration counters.
    pub fn observe_trace(&self, summary: &kw_trace::TraceSummary) {
        self.traced_solves.fetch_add(1, Ordering::Relaxed);
        for (&phase, bucket) in PHASES.iter().zip(self.phase_us.iter()) {
            bucket.fetch_add(summary.phase_total(phase), Ordering::Relaxed);
        }
    }

    /// Traced solves observed.
    pub fn traced_solves(&self) -> u64 {
        self.traced_solves.load(Ordering::Relaxed)
    }

    /// Marks a request entering a worker; the guard exits on drop (also
    /// on panic, so the gauge can never leak).
    pub fn enter(&self) -> InflightGuard<'_> {
        self.inflight.fetch_add(1, Ordering::Relaxed);
        InflightGuard { telemetry: self }
    }

    /// Current in-flight gauge value.
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Total requests observed.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// 5xx responses observed.
    pub fn errors_5xx(&self) -> u64 {
        self.r5xx.load(Ordering::Relaxed)
    }

    /// Renders Prometheus text exposition. Cache numbers come from the
    /// service (they live in the `ExperimentCache`, not here).
    pub fn render_prometheus(&self, cache_hits: u64, cache_misses: u64, warmed: u64) -> String {
        let mut out = String::with_capacity(1024);
        let mut gauge = |name: &str, help: &str, kind: &str, value: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
            ));
        };
        gauge(
            "kw_serve_requests_total",
            "Requests handled (all statuses).",
            "counter",
            self.requests.load(Ordering::Relaxed),
        );
        gauge(
            "kw_serve_responses_2xx_total",
            "Successful responses.",
            "counter",
            self.r2xx.load(Ordering::Relaxed),
        );
        gauge(
            "kw_serve_responses_4xx_total",
            "Client-error responses.",
            "counter",
            self.r4xx.load(Ordering::Relaxed),
        );
        gauge(
            "kw_serve_responses_5xx_total",
            "Server-error responses (backpressure sheds included).",
            "counter",
            self.r5xx.load(Ordering::Relaxed),
        );
        gauge(
            "kw_serve_shed_total",
            "Connections refused with 503 by queue backpressure.",
            "counter",
            self.shed.load(Ordering::Relaxed),
        );
        gauge(
            "kw_serve_solve_panics_total",
            "Solver panics converted to 500s.",
            "counter",
            self.panics.load(Ordering::Relaxed),
        );
        gauge(
            "kw_serve_store_errors_total",
            "Run-store appends that failed.",
            "counter",
            self.store_errors.load(Ordering::Relaxed),
        );
        gauge(
            "kw_serve_chaos_requests_total",
            "Solve requests carrying a non-reliable chaos clause.",
            "counter",
            self.chaos_requests.load(Ordering::Relaxed),
        );
        gauge(
            "kw_serve_inflight",
            "Requests currently being handled.",
            "gauge",
            self.inflight.load(Ordering::Relaxed),
        );
        gauge(
            "kw_serve_cache_hits_total",
            "Solve answers served from the experiment cache.",
            "counter",
            cache_hits,
        );
        gauge(
            "kw_serve_cache_misses_total",
            "Solve requests that had to compute.",
            "counter",
            cache_misses,
        );
        gauge(
            "kw_serve_cache_warmed_total",
            "Answers replayed from the run store at startup.",
            "counter",
            warmed,
        );
        gauge(
            "kw_serve_latency_count",
            "Latency samples recorded.",
            "counter",
            self.latency.count(),
        );
        for percent in [50, 95, 99] {
            gauge(
                &format!("kw_serve_latency_p{percent}_us"),
                "Nearest-rank request latency percentile, microseconds.",
                "gauge",
                self.latency.percentile(percent),
            );
        }
        gauge(
            "kw_serve_traced_solves_total",
            "Solve requests profiled with the span plane.",
            "counter",
            self.traced_solves.load(Ordering::Relaxed),
        );
        // A labeled metric family: HELP/TYPE once under the bare name,
        // then one sample line per phase label (HELP/TYPE lines with
        // braces are invalid exposition).
        out.push_str(
            "# HELP kw_serve_solve_phase_us_total Cumulative engine-phase time over traced solves, microseconds.\n\
             # TYPE kw_serve_solve_phase_us_total counter\n",
        );
        for (&phase, bucket) in PHASES.iter().zip(self.phase_us.iter()) {
            out.push_str(&format!(
                "kw_serve_solve_phase_us_total{{phase=\"{phase}\"}} {}\n",
                bucket.load(Ordering::Relaxed)
            ));
        }
        out
    }
}

/// RAII guard for the in-flight gauge.
#[derive(Debug)]
pub struct InflightGuard<'a> {
    telemetry: &'a Telemetry,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.telemetry.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kw_results::summary::Percentiles;

    /// The satellite's pinned sizes: n = 1/2/3/20, plus agreement with
    /// `Percentiles::from_samples` on bucket-bound samples — the "one
    /// percentile code path" contract made observable.
    #[test]
    fn histogram_percentiles_match_summary_on_bucket_bounds() {
        // n = 1: every percentile is the sole sample's bucket.
        let h = LatencyHistogram::default();
        h.record(300); // bucket bound 500
        for percent in [50, 95, 99] {
            assert_eq!(h.percentile(percent), 500);
        }
        // n = 2: p50 takes the 1st sample, p95/p99 the 2nd.
        let h = LatencyHistogram::default();
        h.record(300); // 500
        h.record(40_000); // 50_000
        assert_eq!(h.percentile(50), 500);
        assert_eq!(h.percentile(95), 50_000);
        assert_eq!(h.percentile(99), 50_000);
        // n = 3: p50 is the 2nd order statistic.
        h.record(60); // 100
        assert_eq!(h.percentile(50), 500);
        assert_eq!(h.percentile(95), 50_000);
        // n = 20: 19 fast + 1 slow puts p95 on the fast side and p99 on
        // the slow one (ranks 19 and 20).
        let h = LatencyHistogram::default();
        for _ in 0..19 {
            h.record(80); // bucket bound 100
        }
        h.record(900_000); // bucket bound 1_000_000
        assert_eq!(h.count(), 20);
        assert_eq!(h.percentile(50), 100);
        assert_eq!(h.percentile(95), 100);
        assert_eq!(h.percentile(99), 1_000_000);

        // Cross-check against the summary implementation: feed the same
        // conceptual samples (as exact bucket bounds) to both paths.
        let samples: Vec<f64> = std::iter::repeat_n(100.0, 19)
            .chain([1_000_000.0])
            .collect();
        let p = Percentiles::from_samples(&samples);
        assert_eq!(h.percentile(50), p.p50 as u64);
        assert_eq!(h.percentile(95), p.p95 as u64);
        assert_eq!(h.percentile(99), p.p99 as u64);
    }

    /// Exact boundary semantics: bounds are *inclusive* upper edges, so
    /// a sample equal to a bound lands in that bound's bucket, and one
    /// microsecond more lands in the next.
    #[test]
    fn samples_on_exact_bucket_bounds_land_in_the_bounds_bucket() {
        for &bound in BUCKET_BOUNDS_US.iter().take(BUCKET_BOUNDS_US.len() - 1) {
            let h = LatencyHistogram::default();
            h.record(bound);
            assert_eq!(
                h.percentile(50),
                bound,
                "value == bound {bound} must report that bound"
            );
            let h = LatencyHistogram::default();
            h.record(bound + 1);
            let next = BUCKET_BOUNDS_US
                [BUCKET_BOUNDS_US.iter().position(|&b| b == bound).unwrap() + 1]
                .min(OVERFLOW_CAP_US);
            assert_eq!(
                h.percentile(50),
                next,
                "value {} must spill into the next bucket",
                bound + 1
            );
        }
        // Zero is a valid latency and belongs to the first bucket.
        let h = LatencyHistogram::default();
        h.record(0);
        assert_eq!(h.percentile(50), BUCKET_BOUNDS_US[0]);
    }

    /// Structural check of the Prometheus text exposition: every
    /// non-comment line is `name[{labels}] value`, every sample is
    /// preceded by HELP and TYPE lines for its bare family name, and
    /// labeled families keep braces out of their HELP/TYPE lines.
    #[test]
    fn metrics_render_as_valid_prometheus_exposition() {
        let t = Telemetry::default();
        t.observe(200, 120);
        t.observe_trace(&kw_trace::TraceSummary {
            threads: 2,
            rounds: 4,
            total_us: 1_000,
            phase_us: vec![("compute".into(), 600), ("deliver".into(), 150)],
            barrier_us: 0,
            imbalance: 1.0,
            pool_wakeups: 0,
            pool_idle: 0,
            structure_hash: 0,
            samples: Vec::new(),
        });
        let text = t.render_prometheus(1, 2, 3);
        let mut typed: Vec<String> = Vec::new();
        let mut helped: Vec<String> = Vec::new();
        for line in text.lines() {
            assert!(!line.trim().is_empty(), "no blank lines in exposition");
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split(' ').next().unwrap();
                assert!(!name.contains('{'), "HELP must use the bare name");
                helped.push(name.to_string());
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split(' ');
                let name = parts.next().unwrap();
                let kind = parts.next().unwrap();
                assert!(!name.contains('{'), "TYPE must use the bare name");
                assert!(
                    ["counter", "gauge"].contains(&kind),
                    "unknown metric type {kind}"
                );
                typed.push(name.to_string());
                continue;
            }
            // Sample line: name or name{label="v"} then a u64 value.
            let (name_part, value) = line.rsplit_once(' ').expect("sample has a value");
            value.parse::<u64>().expect("sample value is an integer");
            let family = name_part.split('{').next().unwrap();
            assert!(
                family
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "bad metric name {family}"
            );
            assert!(
                typed.contains(&family.to_string()) && helped.contains(&family.to_string()),
                "sample {family} lacks HELP/TYPE"
            );
            if let Some(labels) = name_part.strip_prefix(&format!("{family}{{")) {
                let labels = labels.strip_suffix('}').expect("balanced braces");
                for pair in labels.split(',') {
                    let (k, v) = pair.split_once('=').expect("label pair");
                    assert!(!k.is_empty());
                    assert!(v.starts_with('"') && v.ends_with('"'), "quoted label value");
                }
            }
        }
        // The phase family appears once per phase, all under one family.
        let phase_lines: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("kw_serve_solve_phase_us_total{"))
            .collect();
        assert_eq!(phase_lines.len(), PHASES.len());
        assert!(text.contains("kw_serve_solve_phase_us_total{phase=\"compute\"} 600\n"));
        assert!(text.contains("kw_serve_solve_phase_us_total{phase=\"barrier\"} 0\n"));
        assert!(text.contains("kw_serve_traced_solves_total 1\n"));
        // A second traced solve accumulates.
        t.observe_trace(&kw_trace::TraceSummary {
            threads: 2,
            rounds: 4,
            total_us: 500,
            phase_us: vec![("compute".into(), 400)],
            barrier_us: 0,
            imbalance: 1.0,
            pool_wakeups: 0,
            pool_idle: 0,
            structure_hash: 0,
            samples: Vec::new(),
        });
        assert_eq!(t.traced_solves(), 2);
        assert!(t
            .render_prometheus(1, 2, 3)
            .contains("kw_serve_solve_phase_us_total{phase=\"compute\"} 1000\n"));
    }

    #[test]
    fn histogram_empty_and_overflow_behavior() {
        let h = LatencyHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(50), 0, "no samples, no percentile");
        h.record(u64::MAX); // slower than the scale measures
        assert_eq!(h.percentile(50), OVERFLOW_CAP_US);
    }

    #[test]
    fn telemetry_counts_classes_sheds_and_inflight() {
        let t = Telemetry::default();
        t.observe(200, 100);
        t.observe(404, 100);
        t.observe_shed(5);
        t.count_panic();
        t.count_store_error();
        t.count_chaos_request();
        {
            let _guard = t.enter();
            assert_eq!(t.inflight(), 1);
        }
        assert_eq!(t.inflight(), 0);
        assert_eq!(t.requests(), 3);
        assert_eq!(t.errors_5xx(), 1);
        let text = t.render_prometheus(7, 3, 2);
        assert!(text.contains("kw_serve_requests_total 3\n"));
        assert!(text.contains("kw_serve_responses_2xx_total 1\n"));
        assert!(text.contains("kw_serve_responses_4xx_total 1\n"));
        assert!(text.contains("kw_serve_responses_5xx_total 1\n"));
        assert!(text.contains("kw_serve_shed_total 1\n"));
        assert!(text.contains("kw_serve_solve_panics_total 1\n"));
        assert!(text.contains("kw_serve_store_errors_total 1\n"));
        assert_eq!(t.chaos_requests(), 1);
        assert!(text.contains("kw_serve_chaos_requests_total 1\n"));
        assert!(text.contains("kw_serve_inflight 0\n"));
        assert!(text.contains("kw_serve_cache_hits_total 7\n"));
        assert!(text.contains("kw_serve_cache_misses_total 3\n"));
        assert!(text.contains("kw_serve_cache_warmed_total 2\n"));
        assert!(text.contains("kw_serve_latency_count 3\n"));
        assert!(text.contains("kw_serve_latency_p99_us "));
    }
}
