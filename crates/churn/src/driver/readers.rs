//! The concurrent serving plane: paced reader threads resolving reads
//! against pinned snapshots while the replay thread mutates, and the
//! counters they feed the window samples from.
//!
//! Readers are closed-loop clients — [`READ_BURST`] reads per pinned
//! snapshot, then a [`READ_PACE`] pause — so aggregate offered load
//! scales with the reader count. Everything here is wall-clock: a run
//! with readers trades the byte-identical-CSV contract for these figures.

use super::plant::ReadTarget;
use super::sample::{ChurnOutcome, RunTotals, WindowSample};
use super::ChurnDriver;
use crate::event::EventStream;
use domus_core::{DhtEngine, SnapshotCell};
use domus_kv::UniformKeys;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reads issued per pinned snapshot in one reader-thread burst.
const READ_BURST: usize = 64;
/// Pause between bursts: readers are paced clients, so the serving plane
/// measures sustained offered load (which scales with the reader count),
/// not how fast one core can spin on an uncontended path.
const READ_PACE: Duration = Duration::from_millis(1);
/// Pause of the replay thread after every event while readers run: it
/// stretches replay wall time so read windows sample a steady state.
const WRITER_PACE: Duration = Duration::from_micros(500);
/// Latency histogram buckets: bucket `i` holds nanosecond readings in
/// `[2^(i-1), 2^i)` (bucket 0 is the zero reading).
const LAT_BUCKETS: usize = 65;

/// Shared read-plane counters every reader thread increments (relaxed —
/// they are statistics, not synchronisation).
struct ReadStats {
    reads: AtomicU64,
    stale_retries: AtomicU64,
    errors: AtomicU64,
    hist: [AtomicU64; LAT_BUCKETS],
}

impl ReadStats {
    fn record(&self, nanos: u64, retries: u32, error: bool) {
        self.reads.fetch_add(1, Ordering::Relaxed);
        if retries > 0 {
            self.stale_retries.fetch_add(retries as u64, Ordering::Relaxed);
        }
        if error {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        let bucket = 64 - nanos.leading_zeros() as usize;
        self.hist[bucket].fetch_add(1, Ordering::Relaxed);
    }

    fn counters(&self) -> ReadCounters {
        ReadCounters {
            reads: self.reads.load(Ordering::Relaxed),
            stale_retries: self.stale_retries.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            hist: std::array::from_fn(|i| self.hist[i].load(Ordering::Relaxed)),
        }
    }
}

/// A plain copy of [`ReadStats`], used for window deltas and quantiles.
#[derive(Clone, Copy)]
struct ReadCounters {
    reads: u64,
    stale_retries: u64,
    errors: u64,
    hist: [u64; LAT_BUCKETS],
}

impl ReadCounters {
    const ZERO: Self = Self { reads: 0, stale_retries: 0, errors: 0, hist: [0; LAT_BUCKETS] };

    fn since(&self, prev: &Self) -> Self {
        Self {
            reads: self.reads - prev.reads,
            stale_retries: self.stale_retries - prev.stale_retries,
            errors: self.errors - prev.errors,
            hist: std::array::from_fn(|i| self.hist[i] - prev.hist[i]),
        }
    }

    /// The latency quantile `q` in nanoseconds — the midpoint of the
    /// log-scale bucket where the cumulative count crosses `q`.
    fn quantile_ns(&self, q: f64) -> u64 {
        let total: u64 = self.hist.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((total as f64 * q).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.hist.iter().enumerate() {
            cum += c;
            if cum >= target {
                if i == 0 {
                    return 0;
                }
                let lo = 1u128 << (i - 1);
                let hi = 1u128 << i;
                return ((lo + hi) / 2) as u64;
            }
        }
        0
    }

    /// The six read columns over `wall`: `(reads, reads/sec, p50 ns,
    /// p99 ns, stale retries per read, errors)`.
    fn figures(&self, wall: Duration) -> (u64, f64, u64, u64, f64, u64) {
        let secs = wall.as_secs_f64();
        (
            self.reads,
            if secs > 0.0 { self.reads as f64 / secs } else { 0.0 },
            self.quantile_ns(0.50),
            self.quantile_ns(0.99),
            if self.reads > 0 { self.stale_retries as f64 / self.reads as f64 } else { 0.0 },
            self.errors,
        )
    }
}

/// The driver's side of the serving plane: how many readers to run, and
/// the counters drained into each window.
pub(crate) struct ReadPlane {
    /// Reader threads; 0 = plane off, and every read column is a
    /// deterministic zero.
    pub(crate) threads: usize,
    stats: Arc<ReadStats>,
    /// Counters at the last window boundary, and when it was (wall clock
    /// — the serving plane runs in real time, unlike the event clock).
    mark: (Instant, ReadCounters),
    started: Instant,
}

impl ReadPlane {
    pub(crate) fn new() -> Self {
        let now = Instant::now();
        Self {
            threads: 0,
            stats: Arc::new(ReadStats {
                reads: AtomicU64::new(0),
                stale_retries: AtomicU64::new(0),
                errors: AtomicU64::new(0),
                hist: std::array::from_fn(|_| AtomicU64::new(0)),
            }),
            mark: (now, ReadCounters::ZERO),
            started: now,
        }
    }

    /// Drains what the readers did since the last window boundary into
    /// the closing window's read columns.
    pub(crate) fn sample_into(&mut self, s: &mut WindowSample) {
        if self.threads == 0 {
            return;
        }
        let now = (Instant::now(), self.stats.counters());
        let delta = now.1.since(&self.mark.1);
        (s.reads, s.reads_per_sec, s.read_p50_ns, s.read_p99_ns, s.stale_rate, s.read_errors) =
            delta.figures(now.0.duration_since(self.mark.0));
        self.mark = now;
    }

    /// The whole-run read figures (reads over replay wall time).
    pub(crate) fn totals_into(&self, t: &mut RunTotals) {
        if self.threads == 0 {
            return;
        }
        (t.reads, t.reads_per_sec, t.read_p50_ns, t.read_p99_ns, t.stale_rate, t.read_errors) =
            self.stats.counters().figures(self.started.elapsed());
    }
}

impl<E: DhtEngine> ChurnDriver<E> {
    /// Turns on the serving plane: `n` reader threads hammer
    /// lookups/gets against pinned snapshots while the replay mutates.
    /// Readers are paced closed-loop clients (a 64-read burst per pinned
    /// snapshot, then a 1 ms pause), so per-window reads/sec measures
    /// sustained offered load scaling with `n`. Read metrics are
    /// wall-clock figures — a run with readers trades the
    /// byte-identical-CSV determinism contract for them.
    pub fn with_readers(mut self, n: usize) -> Self {
        self.reads.threads = n;
        self.plant.set_live(n > 0 || self.route.is_some());
        self
    }
}

impl<E: DhtEngine + Send + Sync> ChurnDriver<E> {
    /// [`ChurnDriver::run`] with the serving plane up for the duration
    /// of the replay.
    pub(super) fn run_threaded(mut self, stream: &EventStream) -> ChurnOutcome {
        let cell = Arc::clone(self.plant.cell());
        let target = self.plant.read_target();
        let (entries, loaded) = self.plant.population();
        let stats = Arc::clone(&self.reads.stats);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for id in 0..self.reads.threads as u64 {
                let (cell, target, loaded, stop, stats) =
                    (&*cell, &target, &*loaded, &stop, &*stats);
                s.spawn(move || reader_loop(id, cell, target, entries, loaded, stop, stats));
            }
            let now = Instant::now();
            self.reads.mark = (now, ReadCounters::ZERO);
            self.reads.started = now;
            for e in stream.events() {
                self.step(e);
                std::thread::sleep(WRITER_PACE);
            }
            let outcome = self.finish(stream.horizon());
            // Scope exit joins the readers; release them first.
            stop.store(true, Ordering::Relaxed);
            outcome
        })
    }
}

/// One serving-plane reader: pin the latest snapshot, issue a burst of
/// reads against it, pause, repeat. Stale pins are re-pinned (counted as
/// stale retries); a read that settles at the current epoch and still
/// misses counts as a read error.
fn reader_loop<E: DhtEngine>(
    id: u64,
    cell: &SnapshotCell,
    target: &ReadTarget<E>,
    entries: u64,
    loaded: &AtomicBool,
    stop: &AtomicBool,
    stats: &ReadStats,
) {
    let keys = UniformKeys::new(entries.max(1));
    // A cheap xorshift per thread: read metrics are wall-clock figures,
    // so the key choice carries no determinism contract.
    let mut x = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(id + 1) | 1;
    let mut snap = cell.load();
    while !stop.load(Ordering::Relaxed) {
        if cell.is_stale(&snap) {
            snap = cell.load();
        }
        for _ in 0..READ_BURST {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let t0 = Instant::now();
            let have_data = entries > 0 && loaded.load(Ordering::Acquire);
            let (retries, error) =
                target.read(cell, &mut snap, have_data.then_some((&keys, entries)), x);
            stats.record(t0.elapsed().as_nanos() as u64, retries, error);
        }
        std::thread::sleep(READ_PACE);
    }
}
