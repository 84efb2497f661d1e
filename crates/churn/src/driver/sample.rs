//! What a run reports: per-window [`WindowSample`] rows, the whole-run
//! [`RunTotals`] folded from them, and the CSV schema.
//!
//! A CSV column is declared once, in [`COLUMNS`] (name + formatter);
//! the header and every row are read off that table. The driver
//! accumulates each window *in* a `WindowSample` (starting from
//! `Default`), so a counter has no shadow copy to keep in step.

use domus_core::BalanceSnapshot;
use domus_hashspace::hasher::Fnv1aHasher;
use domus_metrics::Series;
use domus_sim::SimTime;
use std::io::{self, Write};

/// One observation window of a churn run. `Default` is the empty
/// accumulator the driver opens each window with; the sampled fields
/// (balance, availability, …) are overwritten when the window closes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WindowSample {
    /// Window index (0-based).
    pub index: usize,
    /// Window end, simulated time.
    pub end: SimTime,
    /// Membership events replayed in the window.
    pub events: u64,
    /// Vnodes created.
    pub joins: u64,
    /// Vnodes removed.
    pub leaves: u64,
    /// Membership operations that could not be applied: a departure of an
    /// already-gone node or a failure on an empty DHT count one each;
    /// the keep-one-vnode guard counts one per guarded removal.
    pub skipped: u64,
    /// Partition transfers across all events.
    pub transfers: u64,
    /// Priced protocol messages.
    pub messages: u64,
    /// Priced wire bytes.
    pub bytes: u64,
    /// Priced service time (sum of event durations).
    pub service: SimTime,
    /// KV entries migrated (0 without an overlay; replica copies moved or
    /// minted with the replicated overlay).
    pub entries_migrated: u64,
    /// Ungraceful snode crashes absorbed in the window.
    pub crashes: u64,
    /// Balance/shape snapshot at the window end.
    pub balance: BalanceSnapshot,
    /// Fraction of probe keys whose owner did not change in the window
    /// (1.0 without the overlay or before data is loaded).
    pub availability: f64,
    /// Probe keys that failed to read back at the window end (must stay 0
    /// — a nonzero value is a routing/migration bug; crash-lost keys are
    /// pruned from the probe set as they are accounted in `keys_lost`).
    pub lost_lookups: u64,
    /// Keys whose last replica was destroyed by crashes in this window —
    /// the per-window durability numerator (0 without the replicated
    /// overlay).
    pub keys_lost: u64,
    /// Distinct live keys at the window end — the durability denominator
    /// (0 without any overlay; the plain KV overlay reports its entry
    /// count, which graceful churn never changes).
    pub keys_total: u64,
    /// Fraction of probe keys readable at majority quorum at the window
    /// end, *before* the end-of-window repair pass (1.0 without the
    /// replicated overlay).
    pub quorum_availability: f64,
    /// Replica copies placed by the anti-entropy repair that runs at this
    /// window's close (0 without the replicated overlay).
    pub repaired: u64,
    /// Serving-plane reads completed in the window (0 without readers).
    pub reads: u64,
    /// Serving-plane read throughput over the window's wall time (0.0
    /// without readers).
    pub reads_per_sec: f64,
    /// Median read latency in nanoseconds (0 without readers).
    pub read_p50_ns: u64,
    /// 99th-percentile read latency in nanoseconds (0 without readers).
    pub read_p99_ns: u64,
    /// Stale-route retries per read: the fraction of reads that had to
    /// re-pin the snapshot because an epoch was published mid-flight
    /// (0.0 without readers).
    pub stale_rate: f64,
    /// Reads that settled at the current epoch and still missed — must
    /// stay 0 whenever the overlay is loss-free (0 without readers).
    pub read_errors: u64,
    /// The shard-map version at the window end — the serving-plane epoch
    /// the window's route probe pinned (0 without a router).
    pub route_version: u64,
    /// Hit rate of the window's deterministic 64-point cache probe:
    /// `1 − stale_reads/reads` (0.0 without a router).
    pub cache_hit_rate: f64,
    /// Cache refreshes the probe needed — at most one per published
    /// epoch, the ≤1-round repair contract (0 without a router).
    pub cache_stale: u64,
    /// Live vnodes covered by a lease at the window end (0 without a
    /// router).
    pub leases_live: u64,
    /// Vnodes whose holder's lease lapsed at this window's tick (0
    /// without a router).
    pub leases_expired: u64,
    /// Lease-expiry failovers *executed* in this window (0 without a
    /// router).
    pub failovers: u64,
    /// Snodes over the hot threshold at this window's tick (0 without a
    /// router).
    pub hot_snodes: u64,
    /// Hot-spot vnode moves executed in this window (0 without a
    /// router).
    pub route_moves: u64,
    /// Crashed snodes that rejoined by replaying their write-ahead log
    /// in this window (0 without the replicated overlay).
    pub rejoins: u64,
    /// Wall time spent replaying write-ahead logs during this window's
    /// rejoins, in nanoseconds (0 without rejoins — the column stays
    /// deterministic on rejoin-free streams).
    pub wal_replay_ns: u64,
    /// Bytes shipped by digest-driven anti-entropy this window (rejoin
    /// rebuilds plus the window-close repair pass; 0 without the
    /// replicated overlay).
    pub repair_bytes: u64,
    /// Consecutive windows (including this one) the cluster has been
    /// below full quorum availability — 0 whenever every probe key is
    /// quorum-readable, so the value at the last degraded window of an
    /// episode is that episode's time-to-full-quorum.
    pub quorum_gap_windows: u64,
}

/// Whole-run aggregate.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunTotals {
    /// Events replayed.
    pub events: u64,
    /// Vnodes created.
    pub joins: u64,
    /// Vnodes removed.
    pub leaves: u64,
    /// Membership operations that could not be applied (see
    /// [`WindowSample::skipped`]).
    pub skipped: u64,
    /// Total partition transfers.
    pub transfers: u64,
    /// Total priced messages.
    pub messages: u64,
    /// Total priced bytes.
    pub bytes: u64,
    /// Total priced service time.
    pub service: SimTime,
    /// Total KV entries migrated.
    pub entries_migrated: u64,
    /// Total ungraceful snode crashes absorbed.
    pub crashes: u64,
    /// Unweighted mean of per-window availability.
    pub mean_availability: f64,
    /// Total probe read failures (must be 0).
    pub lost_lookups: u64,
    /// Total keys lost to crashes (0 at full replication with isolated
    /// failures; the durability headline of CHURN-REPL).
    pub keys_lost: u64,
    /// Unweighted mean of per-window quorum availability.
    pub mean_quorum_availability: f64,
    /// Total replica copies placed by end-of-window repairs.
    pub repaired: u64,
    /// Serving-plane reads completed over the whole run (0 without
    /// readers).
    pub reads: u64,
    /// Whole-run read throughput (reads over replay wall time; 0.0
    /// without readers).
    pub reads_per_sec: f64,
    /// Whole-run median read latency in nanoseconds.
    pub read_p50_ns: u64,
    /// Whole-run 99th-percentile read latency in nanoseconds.
    pub read_p99_ns: u64,
    /// Whole-run stale-route retries per read.
    pub stale_rate: f64,
    /// Total settled-epoch read misses (must be 0 on a loss-free
    /// overlay).
    pub read_errors: u64,
    /// Total vnodes whose holder's lease lapsed (0 without a router).
    pub leases_expired: u64,
    /// Total lease-expiry failovers executed (0 without a router).
    pub failovers: u64,
    /// Total hot-spot vnode moves executed (0 without a router).
    pub route_moves: u64,
    /// Windows with at least one hot snode (0 without a router).
    pub hot_windows: u64,
    /// Whole-run hit rate of the per-window cache probes (1.0 without a
    /// router — nothing was ever stale).
    pub cache_hit_rate: f64,
    /// The longest hot episode in windows, from onset to rebalanced
    /// under the threshold; an episode still open at the horizon counts
    /// as ongoing. The convergence figure `churn-route` bounds (0 without
    /// a router).
    pub route_convergence: u64,
    /// `false` iff a hot episode was still open at the horizon (always
    /// `true` without a router).
    pub route_converged: bool,
    /// Windows where the lease table disagreed with the engine's live
    /// vnodes — lease safety demands 0 (and 0 without a router).
    pub lease_violations: u64,
    /// Crashed snodes that came back by replaying their write-ahead log
    /// (0 without [`crate::event::EventKind::RejoinRank`] events).
    pub rejoins: u64,
    /// Total wall time spent replaying write-ahead logs on rejoin, in
    /// milliseconds (0.0 without rejoins).
    pub wal_replay_ms: f64,
    /// Total bytes shipped by digest-driven anti-entropy — the figure
    /// the full-rebuild baseline is compared against (0 without the
    /// replicated overlay).
    pub repair_bytes: u64,
    /// Entry bytes a digest-less full rebuild of the same ranges would
    /// have shipped — the baseline [`RunTotals::repair_bytes`] is
    /// measured against (0 without the replicated overlay).
    pub repair_bytes_full: u64,
    /// The longest stretch of consecutive windows below full quorum
    /// availability, from first degradation back to full quorum — the
    /// time-to-full-quorum headline (an episode still open at the
    /// horizon counts at its current length).
    pub time_to_full_quorum_windows: u64,
}

impl RunTotals {
    /// Folds the per-window rows. The four figures whose identity is not
    /// zero — the two availability means, the cache hit rate and the
    /// convergence flag — start at "nothing went wrong"; the read-plane
    /// and control-plane totals are whole-run figures their planes fill
    /// in afterwards.
    pub(crate) fn fold(samples: &[WindowSample]) -> Self {
        let mut t = Self {
            mean_availability: 1.0,
            mean_quorum_availability: 1.0,
            cache_hit_rate: 1.0,
            route_converged: true,
            ..Self::default()
        };
        for s in samples {
            t.events += s.events;
            t.joins += s.joins;
            t.leaves += s.leaves;
            t.skipped += s.skipped;
            t.transfers += s.transfers;
            t.messages += s.messages;
            t.bytes += s.bytes;
            t.service += s.service;
            t.entries_migrated += s.entries_migrated;
            t.crashes += s.crashes;
            t.lost_lookups += s.lost_lookups;
            t.keys_lost += s.keys_lost;
            t.repaired += s.repaired;
            t.leases_expired += s.leases_expired;
            t.failovers += s.failovers;
            t.route_moves += s.route_moves;
            t.rejoins += s.rejoins;
            t.wal_replay_ms += s.wal_replay_ns as f64 / 1e6;
            t.repair_bytes += s.repair_bytes;
            // The gap column is the running streak, so its peak is the
            // longest episode — closed, or still open at the horizon.
            t.time_to_full_quorum_windows = t.time_to_full_quorum_windows.max(s.quorum_gap_windows);
        }
        if !samples.is_empty() {
            let n = samples.len() as f64;
            t.mean_availability = samples.iter().map(|s| s.availability).sum::<f64>() / n;
            t.mean_quorum_availability =
                samples.iter().map(|s| s.quorum_availability).sum::<f64>() / n;
        }
        t
    }
}

/// The finished result of one churn run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnOutcome {
    /// Per-window rows, in time order.
    pub samples: Vec<WindowSample>,
    /// Balance snapshot at the horizon.
    pub final_balance: BalanceSnapshot,
    /// Whole-run totals.
    pub totals: RunTotals,
}

/// Formats one column's cell of a row.
type Cell = fn(&WindowSample) -> String;

/// The CSV schema: one `(name, formatter)` per column, in file order.
const COLUMNS: [(&str, Cell); 41] = [
    ("window", |s| s.index.to_string()),
    ("t_ms", |s| format!("{:.3}", s.end.as_millis_f64())),
    ("events", |s| s.events.to_string()),
    ("joins", |s| s.joins.to_string()),
    ("leaves", |s| s.leaves.to_string()),
    ("crashes", |s| s.crashes.to_string()),
    ("skipped", |s| s.skipped.to_string()),
    ("vnodes", |s| s.balance.vnodes.to_string()),
    ("groups", |s| s.balance.groups.to_string()),
    ("snodes", |s| s.balance.snodes.to_string()),
    ("balance_vnode_pct", |s| format!("{:.4}", s.balance.vnode_relstd_pct)),
    ("balance_snode_pct", |s| format!("{:.4}", s.balance.snode_relstd_pct)),
    ("peak_over_ideal", |s| format!("{:.4}", s.balance.max_quota_over_ideal)),
    ("transfers", |s| s.transfers.to_string()),
    ("messages", |s| s.messages.to_string()),
    ("bytes", |s| s.bytes.to_string()),
    ("service_ns", |s| s.service.nanos().to_string()),
    ("entries_migrated", |s| s.entries_migrated.to_string()),
    ("availability", |s| format!("{:.4}", s.availability)),
    ("lost_lookups", |s| s.lost_lookups.to_string()),
    ("keys_total", |s| s.keys_total.to_string()),
    ("keys_lost", |s| s.keys_lost.to_string()),
    ("quorum_availability", |s| format!("{:.4}", s.quorum_availability)),
    ("repaired", |s| s.repaired.to_string()),
    ("reads", |s| s.reads.to_string()),
    ("reads_per_sec", |s| format!("{:.1}", s.reads_per_sec)),
    ("read_p50_ns", |s| s.read_p50_ns.to_string()),
    ("read_p99_ns", |s| s.read_p99_ns.to_string()),
    ("stale_rate", |s| format!("{:.4}", s.stale_rate)),
    ("read_errors", |s| s.read_errors.to_string()),
    ("route_version", |s| s.route_version.to_string()),
    ("cache_hit_rate", |s| format!("{:.4}", s.cache_hit_rate)),
    ("cache_stale", |s| s.cache_stale.to_string()),
    ("leases_live", |s| s.leases_live.to_string()),
    ("leases_expired", |s| s.leases_expired.to_string()),
    ("failovers", |s| s.failovers.to_string()),
    ("hot_snodes", |s| s.hot_snodes.to_string()),
    ("route_moves", |s| s.route_moves.to_string()),
    ("wal_replay_ms", |s| format!("{:.3}", s.wal_replay_ns as f64 / 1e6)),
    ("repair_bytes", |s| s.repair_bytes.to_string()),
    ("quorum_gap_windows", |s| s.quorum_gap_windows.to_string()),
];

impl ChurnOutcome {
    /// The CSV header of [`ChurnOutcome::write_csv`].
    pub const CSV_HEADER: [&'static str; 41] = {
        let mut names = [""; 41];
        let mut i = 0;
        while i < names.len() {
            names[i] = COLUMNS[i].0;
            i += 1;
        }
        names
    };

    /// Writes the per-window rows as CSV. The formatting is fixed-point,
    /// so two identical runs emit byte-identical files — the determinism
    /// contract the CHURN experiment asserts.
    pub fn write_csv<W: Write>(&self, w: W) -> io::Result<()> {
        let rows = self.samples.iter().map(|s| COLUMNS.iter().map(|(_, cell)| cell(s)).collect());
        domus_metrics::csv::write_rows(w, &Self::CSV_HEADER, rows)
    }

    /// The CSV as a string (convenience for tests and comparisons).
    pub fn csv_string(&self) -> String {
        let mut buf = Vec::new();
        self.write_csv(&mut buf).expect("in-memory write");
        String::from_utf8(buf).expect("CSV is ASCII")
    }

    /// FNV-1a over the CSV with the one wall-clock column
    /// (`wal_replay_ms`) blanked — what the golden tests pin.
    pub fn csv_digest(&self) -> u64 {
        let wall = COLUMNS.iter().position(|(name, _)| *name == "wal_replay_ms");
        let mut blanked = Vec::new();
        for line in self.csv_string().lines() {
            for (i, cell) in line.split(',').enumerate() {
                if Some(i) != wall {
                    blanked.extend_from_slice(cell.as_bytes());
                }
                blanked.push(b',');
            }
            blanked.push(b'\n');
        }
        Fnv1aHasher::raw(&blanked)
    }

    /// Extracts a named time series `(t_ms, pick(window))` for plotting.
    pub fn series(&self, name: impl Into<String>, pick: impl Fn(&WindowSample) -> f64) -> Series {
        Series::new(
            name,
            self.samples.iter().map(|s| s.end.as_millis_f64()).collect(),
            self.samples.iter().map(pick).collect(),
        )
    }
}
