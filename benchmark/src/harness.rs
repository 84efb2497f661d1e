//! The run protocol: best of R bit-identical repetitions.
//!
//! Measured on the reference sandbox (a 2-vCPU guest), host contention
//! arrives in multi-second bursts and only ever adds time: single 5 s
//! passes of unchanged code spread 17–37% across invocations, medians of
//! thirty 0.8 s passes 6.5%, while the *fastest* of the thirty read
//! within ±2%. So a run is R short repetitions of one pass, each from
//! freshly built state with the same seed, and reports the best
//! repetition per timing metric. Every repetition does bit-identical
//! work, which the harness asserts through the exact counters.

use crate::churn::{self, ChurnSpec};
use crate::metrics::{self, Better, MetricDef, END_TO_END, PER_LAYER};
use crate::serve::{self, ServeSpec};
use crate::stats::{median, mid_and_tail_us};
use crate::trace::{SpanTotals, Tracer};
use crate::{Metrics, Rep, Scale};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A run is at least this many repetitions at full scale.
pub const MIN_REPS: usize = 3;

/// One workload.
#[derive(Debug, Clone, Copy)]
pub enum Workload {
    /// An event stream through `ChurnDriver::step`.
    Churn(&'static ChurnSpec),
    /// The two-thread serving plane.
    Serve(&'static ServeSpec),
}

/// Every workload, in reporting order.
pub const WORKLOADS: [Workload; 5] = [
    Workload::Churn(&churn::BARE_2K),
    Workload::Churn(&churn::LOCAL_16K),
    Workload::Churn(&churn::DURABLE),
    Workload::Serve(&serve::MIXED_READ),
    Workload::Serve(&serve::MIXED_WRITE),
];

impl Workload {
    /// The workload's name.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Churn(s) => s.name,
            Workload::Serve(s) => s.name,
        }
    }

    /// Finds a workload by name.
    pub fn find(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name() == name)
    }

    /// The tail `op_tail_us` reports, per-mille, given enough samples.
    fn tail_permille(&self) -> u32 {
        match self {
            Workload::Churn(s) => s.tail_permille,
            Workload::Serve(_) => serve::TAIL_PERMILLE,
        }
    }

    fn rep(&self, opt: &Options, verify: bool, tracer: Option<&mut Tracer>) -> Rep {
        match self {
            Workload::Churn(s) => churn::run_rep(s, opt.seed, opt.scale, verify, tracer),
            Workload::Serve(s) => serve::run_rep(s, opt.seed, opt.scale, verify, tracer),
        }
    }
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Seed of every generated input.
    pub seed: u64,
    /// Wall-clock budget of the run, set-up included.
    pub seconds: f64,
    /// Also run the traced repetition and the micro-probes.
    pub trace: bool,
    /// Workload size; `Quick` also means one repetition.
    pub scale: Scale,
}

/// The result of one run of one workload.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Seed used.
    pub seed: u64,
    /// Every check held and every repetition did identical work.
    pub correct: bool,
    /// Operations attempted in the best-documented (first) repetition.
    pub attempted: u64,
    /// Operations failed, summed over repetitions.
    pub failed: u64,
    /// Digest of the generated inputs.
    pub fingerprint: u64,
    /// End-to-end metrics, best repetition each.
    pub end_to_end: Metrics,
    /// Per-layer metrics. Complete only for a traced run; an untraced run
    /// still has the counters and rates its repetitions produce.
    pub per_layer: Metrics,
    /// Where the trace was written, for a traced run.
    pub trace_file: Option<PathBuf>,
    /// Per-name span totals of the traced repetition.
    pub spans: Vec<(&'static str, SpanTotals)>,
}

/// The repetitions of a run, folded as they finish: the first one in
/// full (its exact counters are the reference), of the others only what
/// the protocol keeps. Memory use is then the same for any number of
/// repetitions.
struct Folded {
    first: Rep,
    /// Best reading of every scalar timing.
    best: Metrics,
    /// Each op's best latency / closed-loop service time. Every
    /// repetition runs the same ops in the same order, and noise only
    /// ever adds time, so the per-op minimum needs one quiet execution of
    /// each op, not one quiet pass.
    lat_ns: Vec<u64>,
    work_ns: Vec<u64>,
    /// `ops_per_s` of every repetition, for `bench.rep_spread_pct`.
    rates: Vec<f64>,
    failed: u64,
    /// Every repetition so far ran the same inputs and did the same work.
    identical: bool,
}

impl Folded {
    fn new(mut first: Rep) -> Self {
        Self {
            best: first.timings.clone(),
            lat_ns: std::mem::take(&mut first.lat_ns),
            work_ns: std::mem::take(&mut first.work_ns),
            rates: vec![first.timings["ops_per_s"]],
            failed: first.failed,
            identical: true,
            first,
        }
    }

    fn fold(&mut self, rep: Rep, workload: &str) {
        self.identical &= same_work(&self.first, &rep, self.rates.len(), workload);
        for (&name, &v) in &rep.timings {
            self.best.entry(name).and_modify(|b| *b = metrics::best(name, *b, v)).or_insert(v);
        }
        for (best, ns) in [(&mut self.lat_ns, &rep.lat_ns), (&mut self.work_ns, &rep.work_ns)] {
            assert_eq!(ns.len(), best.len(), "repetitions measured different op counts");
            for (b, &n) in best.iter_mut().zip(ns) {
                *b = (*b).min(n);
            }
        }
        self.rates.push(rep.timings["ops_per_s"]);
        self.failed += rep.failed;
    }
}

/// `true` when repetition `i` ran the first one's inputs and produced
/// the same bits in every exact counter the first one has.
fn same_work(first: &Rep, rep: &Rep, i: usize, workload: &str) -> bool {
    let mut same = true;
    if rep.fingerprint != first.fingerprint {
        eprintln!("{workload}: repetition {i} ran different inputs");
        same = false;
    }
    for (name, v) in &first.exact {
        let got = rep.exact.get(name);
        if got.map(|g| g.to_bits()) != Some(v.to_bits()) {
            eprintln!("{workload}: exact counter {name} differs in repetition {i}: {got:?} vs {v}");
            same = false;
        }
    }
    same
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

fn trace_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out").join(format!("trace-{workload}.json"))
}

/// Runs one workload under the protocol.
pub fn run(w: Workload, opt: &Options) -> Report {
    let name = w.name();
    let started = Instant::now();
    // A traced run spends half its budget on untraced repetitions (the
    // rates, the exact counters, the overhead baseline), the rest on the
    // traced one and the micro-probes.
    let budget = Duration::from_secs_f64(if opt.trace { opt.seconds / 2.0 } else { opt.seconds });
    let min_reps = if opt.scale == Scale::Quick { 1 } else { MIN_REPS };
    // The full-state oracles run once: later repetitions do bit-identical
    // work, asserted as each is folded.
    let t = Instant::now();
    let mut reps = Folded::new(w.rep(opt, true, None));
    let mut took = t.elapsed();
    // Read here, the peak is one pass from fresh state plus the oracles;
    // at exit it would also hold whatever the allocator kept from a
    // number of repetitions that depends on the machine's speed.
    let peak_rss = peak_rss_mb();
    while reps.rates.len() < min_reps
        || (opt.scale == Scale::Full && started.elapsed() + took <= budget)
    {
        let t = Instant::now();
        reps.fold(w.rep(opt, false, None), name);
        took = t.elapsed();
    }

    let mut correct = reps.identical && reps.failed == 0;
    let mut all = reps.best.clone();
    all.extend(reps.first.exact.iter().map(|(k, v)| (*k, *v)));
    let (best_rep_rate, median_rate) = (all["ops_per_s"], median(&reps.rates));
    all.insert("bench.rep_spread_pct", 100.0 * (best_rep_rate - median_rate) / best_rep_rate);
    all.insert("bench.reps", reps.rates.len() as f64);
    let (mid, tail, pct) = mid_and_tail_us(&mut reps.lat_ns, w.tail_permille());
    all.insert("op_mid_us", mid);
    all.insert("op_tail_us", tail);
    all.insert("bench.samples", reps.lat_ns.len() as f64);
    all.insert("bench.tail_pct", pct as f64 / 10.0);
    if !reps.work_ns.is_empty() {
        let secs = reps.work_ns.iter().sum::<u64>() as f64 / 1e9;
        all.insert("ops_per_s", reps.work_ns.len() as f64 / secs);
    }

    let mut trace_file = None;
    let mut spans = Vec::new();
    if opt.trace {
        let mut tracer = Tracer::new();
        let traced = w.rep(opt, true, Some(&mut tracer));
        correct &= traced.failed == 0 && same_work(&reps.first, &traced, reps.rates.len(), name);
        // One traced pass against the typical untraced pass.
        all.insert(
            "bench.trace_overhead_pct",
            100.0 * (median_rate / traced.timings["ops_per_s"] - 1.0),
        );
        spans = tracer.totals().into_iter().collect();
        layer_times(&spans, &mut all);
        // The traced repetition's own copies of the end-to-end timings
        // are never reported; its per-layer readings are.
        for (name, v) in traced.timings.iter().chain(&traced.exact) {
            if !END_TO_END.iter().any(|m| m.name == *name) {
                all.entry(name).or_insert(*v);
            }
        }
        let path = trace_path(name);
        match tracer.write_json(&path, name, opt.seed) {
            Ok(()) => trace_file = Some(path),
            Err(e) => eprintln!("{name}: could not write {}: {e}", path.display()),
        }
    }
    all.insert("peak_rss_mb", peak_rss);

    let pick = |defs: &[MetricDef]| -> Metrics {
        defs.iter().map(|m| (m.name, all.get(m.name).copied().unwrap_or(0.0))).collect()
    };
    let (end_to_end, per_layer) = (pick(END_TO_END), pick(PER_LAYER));
    correct &= end_to_end.values().chain(per_layer.values()).all(|v| v.is_finite());
    Report {
        workload: name,
        seed: opt.seed,
        correct,
        attempted: reps.first.attempted,
        failed: reps.failed,
        fingerprint: reps.first.fingerprint,
        end_to_end,
        per_layer,
        trace_file,
        spans,
    }
}

/// Turns the traced repetition's spans into the per-layer time metrics.
fn layer_times(spans: &[(&'static str, SpanTotals)], all: &mut Metrics) {
    let get = |span: &str| spans.iter().find(|(n, _)| *n == span).map(|(_, t)| *t);
    let mean_of = |span: &str| get(span).map(|t| t.mean_us()).unwrap_or(0.0);
    let total_of = |span: &str| get(span).map(|t| t.total_ns).unwrap_or(0);
    for (metric, span) in [
        ("core.local.create_us", "core.local.create"),
        ("core.local.remove_us", "core.local.remove"),
        ("core.global.create_us", "core.global.create"),
        ("core.global.remove_us", "core.global.remove"),
        ("ch.create_us", "ch.create"),
        ("ch.remove_us", "ch.remove"),
        ("sim.price_us", "sim.price"),
        ("core.serve.apply_us", "core.serve.apply"),
        ("core.serve.publish_us", "core.serve.publish"),
        ("kv.join_us", "kv.join"),
        ("kv.leave_us", "kv.leave"),
        ("kv.crash_us", "kv.crash"),
        ("kv.rejoin_us", "kv.rejoin"),
        ("kv.repair_us", "kv.repair"),
    ] {
        all.insert(metric, mean_of(span));
    }

    // Coverage: how much of the real root spans the chain accounts for.
    // The chain also runs layers the real operation does not (the serving
    // plane on a bare replay, the engine twin beside a store twin): those
    // are measured, not attributed.
    let has_store = get("kv.join").is_some();
    let root_ns = total_of("churn.step");
    if root_ns > 0 {
        let mut not_in_root = total_of("core.count");
        not_in_root += total_of("core.serve.apply") + total_of("core.serve.publish");
        if has_store {
            for span in
                ["core.local.create", "core.local.remove", "core.local.fail", "core.local.rejoin"]
            {
                not_in_root += total_of(span);
            }
        }
        let attributed = total_of("probe.step").saturating_sub(not_in_root);
        let steps = get("churn.step").map_or(1, |t| t.count) as f64;
        all.insert("bench.trace_coverage_pct", 100.0 * attributed as f64 / root_ns as f64);
        all.insert("churn.overhead_us", (root_ns as f64 - attributed as f64) / steps / 1e3);
    } else {
        // serve-mixed: the writer's real calls against the chain's
        // uncontended replay of the same calls.
        let real: u64 = ["serve.put", "serve.remove", "serve.join", "serve.leave"]
            .iter()
            .map(|s| get(s).map(|t| t.self_ns).unwrap_or(0))
            .sum();
        let chain: u64 =
            ["kv.put", "kv.remove", "kv.join", "kv.leave"].iter().map(|s| total_of(s)).sum();
        if real > 0 {
            all.insert("bench.trace_coverage_pct", 100.0 * chain as f64 / real as f64);
        }
    }
}

/// The relative amount by which `new` is worse than `old` for a metric
/// (negative when it is better).
pub fn worsening(def: &MetricDef, old: f64, new: f64) -> f64 {
    match def.better {
        Better::Lower => (new - old) / old,
        Better::Higher => (old - new) / old,
    }
}

/// The last line the command prints for a workload: one JSON object with
/// exactly `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(report: &Report, trace: bool) -> String {
    let (defs, values) =
        if trace { (PER_LAYER, &report.per_layer) } else { (END_TO_END, &report.end_to_end) };
    let metrics: Vec<String> = defs
        .iter()
        .map(|m| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, values[m.name], m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// The human-readable listing: every metric by name with its unit.
pub fn print_report(report: &Report, trace: bool) {
    println!(
        "== {}  seed {}  fingerprint {:016x}  reps {}  attempted {}  failed {}  {}",
        report.workload,
        report.seed,
        report.fingerprint,
        report.per_layer["bench.reps"],
        report.attempted,
        report.failed,
        if report.correct { "ok" } else { "INCORRECT" },
    );
    for m in END_TO_END {
        println!("  {:<28} {:>16.4} {}", m.name, report.end_to_end[m.name], m.unit);
    }
    for m in PER_LAYER {
        let v = report.per_layer[m.name];
        // An untraced run has no layer times; list what it does have.
        if trace || v != 0.0 {
            println!("  {:<28} {:>16.4} {}", m.name, v, m.unit);
        }
    }
    if !report.spans.is_empty() {
        println!(
            "  {:<28} {:>9} {:>12} {:>12} {:>12}",
            "span", "count", "total ms", "self ms", "mean us"
        );
    }
    for (name, t) in &report.spans {
        println!(
            "  {:<28} {:>9} {:>12.3} {:>12.3} {:>12.3}",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            t.mean_us()
        );
    }
    if let Some(p) = &report.trace_file {
        println!("  trace written to {}", p.display());
    }
}
