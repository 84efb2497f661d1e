//! Every metric the benchmark reports, described once: name, unit,
//! direction and (end-to-end only) regression bound. `BENCHMARK.json`
//! repeats this list; a test in `tests/suite.rs` keeps the two equal.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Rates, ratios of useful work.
    Higher,
    /// Times, costs, sizes.
    Lower,
}

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only; 0 for per-layer metrics).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower, bound: 0.0 }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher, bound: 0.0 }
}

/// What a user of the system sees. Every workload reports every one;
/// `README.md` says which operation each workload's `op_*` measures.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("op_mid_us", "us", Better::Lower, 0.25),
    e2e("op_tail_us", "us", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.15),
    e2e("xfer_per_event", "count", Better::Lower, 0.25),
];

/// Single layers (layer = crate), measured by the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    // churn: the replay harness itself.
    lower("churn.stream_build_ms", "ms"),
    lower("churn.step_join_us", "us"),
    lower("churn.step_leave_us", "us"),
    lower("churn.step_failslice_us", "us"),
    lower("churn.step_crash_us", "us"),
    lower("churn.step_rejoin_us", "us"),
    lower("churn.window_close_us", "us"),
    lower("churn.overhead_us", "us"),
    // core / ch: the balancing engines.
    lower("core.local.create_us", "us"),
    lower("core.local.remove_us", "us"),
    lower("core.global.create_us", "us"),
    lower("core.global.remove_us", "us"),
    lower("ch.create_us", "us"),
    lower("ch.remove_us", "us"),
    higher("core.local.events_per_s", "1/s"),
    higher("core.global.events_per_s", "1/s"),
    higher("ch.events_per_s", "1/s"),
    lower("core.local.relstd_pct", "%"),
    lower("core.global.relstd_pct", "%"),
    lower("ch.relstd_pct", "%"),
    lower("core.balance_relstd_pct", "%"),
    lower("core.lookup_ns", "ns"),
    lower("core.balance_snapshot_us", "us"),
    lower("core.transfers", "count"),
    lower("core.partition_splits", "count"),
    lower("core.partition_merges", "count"),
    lower("core.group_splits", "count"),
    lower("core.group_merges", "count"),
    lower("core.migrations", "count"),
    lower("core.probes", "count"),
    // hashspace: the partition index.
    lower("hashspace.lookup_ns", "ns"),
    lower("hashspace.split_ns", "ns"),
    lower("hashspace.merge_ns", "ns"),
    lower("hashspace.transfer_ns", "ns"),
    // sim: event pricing.
    lower("sim.price_us", "us"),
    lower("sim.messages", "count"),
    lower("sim.bytes_priced", "count"),
    // core::serve: the snapshot serving plane.
    lower("core.serve.apply_us", "us"),
    lower("core.serve.publish_us", "us"),
    lower("core.serve.lookup_ns", "ns"),
    lower("core.serve.replicas_ns", "ns"),
    lower("core.serve.spans", "count"),
    lower("core.serve.epochs", "count"),
    // kv: the replicated store.
    lower("kv.put_us", "us"),
    lower("kv.get_quorum_us", "us"),
    lower("kv.remove_us", "us"),
    lower("kv.join_us", "us"),
    lower("kv.leave_us", "us"),
    lower("kv.crash_us", "us"),
    lower("kv.rejoin_us", "us"),
    lower("kv.repair_us", "us"),
    lower("kv.lock_wait_us", "us"),
    lower("kv.lock_wait_p99_us", "us"),
    lower("kv.lock_hold_ms_per_s", "ms/s"),
    lower("kv.copies_placed", "count"),
    lower("kv.repair_bytes", "count"),
    lower("kv.repair_bytes_full", "count"),
    lower("kv.keys_lost", "count"),
    lower("kv.stale_retries", "count"),
    lower("kv.read_misses", "count"),
    // wal: the write-ahead log and the Merkle digests.
    lower("wal.amp", "ratio"),
    lower("wal.append_ns", "ns"),
    lower("wal.replay_ns_per_record", "ns"),
    lower("wal.checkpoint_us", "us"),
    lower("wal.digest_toggle_ns", "ns"),
    lower("wal.digest_diff_us", "us"),
    lower("wal.records", "count"),
    lower("wal.bytes", "count"),
    lower("wal.rotations", "count"),
    lower("wal.truncated_segments", "count"),
    // route: the client cache and the control plane.
    lower("route.cache_lookup_ns", "ns"),
    lower("route.tick_us", "us"),
    higher("route.hit_rate", "ratio"),
    // serve: the side of a serve-mixed run that is not the subject.
    lower("serve.read_mid_us", "us"),
    lower("serve.read_tail_us", "us"),
    lower("serve.write_mid_us", "us"),
    lower("serve.write_tail_us", "us"),
    lower("serve.writer_busy_pct", "%"),
    // bench: the instrument.
    lower("bench.rep_spread_pct", "%"),
    lower("bench.trace_overhead_pct", "%"),
    higher("bench.trace_coverage_pct", "%"),
    lower("bench.gen_late_us", "us"),
    higher("bench.reps", "count"),
    higher("bench.samples", "count"),
    higher("bench.tail_pct", "%"),
];

/// Looks a metric up in both lists.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// The better of two readings of a metric that may be in neither list
/// (direction then defaults to lower-is-better, as for a time).
pub fn best(name: &str, a: f64, b: f64) -> f64 {
    match find(name).map(|m| m.better) {
        Some(Better::Higher) => a.max(b),
        _ => a.min(b),
    }
}
