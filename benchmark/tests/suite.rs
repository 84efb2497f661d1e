//! The suite checked at smoke scale: determinism per seed, the probe
//! chain against the driver, and `BENCHMARK.json` against the registry.

use domus_benchmark::harness::{self, Options, Report, Workload, WORKLOADS};
use domus_benchmark::metrics::{Better, END_TO_END, PER_LAYER};
use domus_benchmark::Scale;
use std::time::Instant;

fn quick(w: Workload, seed: u64, trace: bool) -> Report {
    harness::run(w, &Options { seed, seconds: 1.0, trace, scale: Scale::Quick })
}

/// Per-layer metrics that are counts of deterministic work.
fn exact_counts(r: &Report) -> Vec<(&'static str, u64)> {
    PER_LAYER
        .iter()
        .filter(|m| {
            m.unit == "count" && !m.name.starts_with("bench.") && m.name != "kv.stale_retries"
        })
        .map(|m| (m.name, r.per_layer[m.name].to_bits()))
        .collect()
}

#[test]
fn same_seed_repeats_and_another_seed_differs() {
    for w in WORKLOADS {
        let (a, b, c) = (quick(w, 7, false), quick(w, 7, false), quick(w, 8, false));
        assert!(a.correct && b.correct && c.correct, "{}: checks must hold", w.name());
        assert_eq!(a.fingerprint, b.fingerprint, "{}: same seed, same inputs", w.name());
        assert_eq!(exact_counts(&a), exact_counts(&b), "{}: same seed, same work", w.name());
        let exact = |r: &Report| {
            [r.end_to_end["xfer_per_event"], r.per_layer["core.balance_relstd_pct"]]
                .map(f64::to_bits)
        };
        assert_eq!(
            exact(&a),
            exact(&b),
            "{}: the paper's two figures are exact per seed",
            w.name()
        );
        assert_ne!(a.fingerprint, c.fingerprint, "{}: another seed, other inputs", w.name());
        assert_eq!((a.failed, c.failed), (0, 0));
    }
}

/// The traced run asserts, per backend, that the probe chain's transfers,
/// priced messages and bytes, population and key count equal the
/// driver's; a mismatch panics inside `run`.
#[test]
fn probe_chain_reproduces_the_driver_on_every_backend() {
    for w in WORKLOADS {
        let r = quick(w, 3, true);
        assert!(r.correct, "{}: traced run must be correct", w.name());
        assert!(r.per_layer["core.transfers"] > 0.0);
        assert!(r.per_layer["bench.trace_coverage_pct"] > 0.0);
        assert!(r.trace_file.is_some_and(|p| p.exists()));
        for m in END_TO_END {
            assert!(r.end_to_end[m.name] > 0.0, "{}: {} is never 0", w.name(), m.name);
        }
    }
    // All three engines ran on the pooled workload.
    let r = quick(WORKLOADS[0], 3, true);
    for span in ["core.local.create_us", "core.global.create_us", "ch.create_us"] {
        assert!(r.per_layer[span] > 0.0, "{span} must have been measured");
    }
}

#[test]
fn quick_suite_is_a_smoke_step() {
    let t = Instant::now();
    for w in WORKLOADS {
        assert!(quick(w, 1, false).correct);
    }
    assert!(t.elapsed().as_secs() < 15, "--quick took {:?}", t.elapsed());
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let r = quick(WORKLOADS[2], 1, false);
    let line = harness::result_line(&r, false);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
    for m in END_TO_END {
        assert!(line.contains(&format!("\"{}\": {{\"value\": ", m.name)));
    }
    assert!(!line.contains("churn."), "no per-layer metric in an untraced line");
    let traced = harness::result_line(&r, true);
    for m in PER_LAYER {
        assert!(traced.contains(&format!("\"{}\": {{\"value\": ", m.name)));
    }
    assert!(!traced.contains("\"setup_s\""));
}

/// `BENCHMARK.json` at the repository root repeats the registry: every
/// metric with its unit, direction and bound, and every workload.
#[test]
fn benchmark_json_agrees_with_the_registry() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let better = |b: Better| if b == Better::Higher { "higher" } else { "lower" };
    for m in END_TO_END {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
            m.name,
            m.unit,
            better(m.better),
            m.bound
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for m in PER_LAYER {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name,
            m.unit,
            better(m.better)
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(json.matches("\"bound\"").count(), END_TO_END.len());
    assert_eq!(json.matches("\"better\"").count(), END_TO_END.len() + PER_LAYER.len());
    for w in WORKLOADS {
        assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())));
    }
    assert_eq!(json.matches("\"why\"").count(), WORKLOADS.len());
}
