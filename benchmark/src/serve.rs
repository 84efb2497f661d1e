//! The `serve-mixed` workloads: a bench-composed serving plane where the
//! read path and the foreground write path run against each other on one
//! store lock, beside live membership churn.
//!
//! The plant is exactly the `ChurnDriver` replicated-plant protocol, put
//! together from public pieces: an `Arc<RwLock<ReplicatedStore<LocalDht>>>`
//! whose every membership operation tees its rebalance events into a
//! `SnapshotBuilder` and publishes the next epoch into a `SnapshotCell`
//! before the write lock drops; readers pin snapshots and resolve
//! `get_quorum_routed` under a read guard per read.
//!
//! One thread writes and one reads. The workload's *subject* runs an
//! open-loop phase A (latency from due time) and then a closed-loop
//! phase B (capacity); the other thread stays open-loop throughout as
//! the contending background.

use crate::mirror::{EngineSpans, Mirror};
use crate::stats::{mean, mid_and_tail_us, percentile};
use crate::trace::Tracer;
use crate::{Rep, Scale};
use bytes::Bytes;
use domus_churn::{ChurnEvent, EventKind, NodeTag};
use domus_core::{
    CountOnly, DhtConfig, DhtEngine, EngineSnapshot, LocalDht, RebalanceEvent, RebalanceSink,
    SnapshotBuilder, SnapshotCell, SnodeId, Tee, VnodeId,
};
use domus_hashspace::HashSpace;
use domus_kv::workload::value_of;
use domus_kv::ReplicatedStore;
use domus_sim::SimTime;
use domus_util::{DomusRng, SplitMix64, Xoshiro256pp};
use parking_lot::RwLock;
use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Base fleet: snodes of two vnodes each.
const SNODES: u32 = 128;
/// Keys readers ask for; never written during a pass. With the volatile
/// range it keeps the plant inside a core's private cache: at four times
/// the keys the read median followed the neighbours' memory traffic.
const STABLE_KEYS: usize = 1024;
/// Disjoint key range the writer puts into and removes from.
const VOLATILE_KEYS: u64 = 1024;
const VALUE_LEN: usize = 64;
const REPLICATION: usize = 2;
/// Offered rates: the writer is 12–15% busy on the reference sandbox, a
/// membership op holding the write lock for about 12 ms.
const MEMBER_PER_S: u64 = 8;
const PUT_PER_S: u64 = 2000;
const REMOVE_PER_S: u64 = 100;
const READ_PER_S: u64 = 100_000;
/// Reads per pinned snapshot.
const BURST: usize = 32;
/// Open-loop phase, milliseconds.
const PHASE_A_MS: u64 = 1400;
/// Closed-loop phase, milliseconds (of schedule, for the writer).
const PHASE_B_MS: u64 = 600;
const ZIPF_S: f64 = 0.99;
/// The tail both subjects report: p99 is the wait behind a membership
/// op that holds the write lock.
pub const TAIL_PERMILLE: u32 = 990;
/// Pre-drawn read keys, cycled.
const READ_SEQ: usize = 1 << 16;

type Store = ReplicatedStore<LocalDht>;

/// Which thread the workload measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subject {
    /// `op_*` are reads; the writer is background.
    Reader,
    /// `op_*` are puts and removes; the reader is background.
    Writer,
}

/// One serve workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Workload name.
    pub name: &'static str,
    /// The measured side.
    pub subject: Subject,
}

/// Reads measured against a writing, churning store.
pub const MIXED_READ: ServeSpec = ServeSpec { name: "serve-mixed-read", subject: Subject::Reader };
/// Writes measured against a reading client and live churn.
pub const MIXED_WRITE: ServeSpec =
    ServeSpec { name: "serve-mixed-write", subject: Subject::Writer };

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriteKind {
    Put {
        idx: u32,
        value: u32,
    },
    Remove {
        idx: u32,
    },
    /// A fresh snode joins with one vnode.
    Join,
    /// The oldest extra vnode leaves, so the population stays level.
    Leave,
}

#[derive(Debug, Clone, Copy)]
struct WriteOp {
    due_ns: u64,
    kind: WriteKind,
}

/// The writer's op schedule over `[0, total_ms)`: three fixed-rate
/// classes merged by due time. A pure function of the seed.
fn schedule(seed: u64, total_ms: u64) -> Vec<WriteOp> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x5E_87E);
    let total_ns = total_ms * 1_000_000;
    let mut ops = Vec::new();
    let mut class = |per_s: u64, phase_ns: u64, kind: &mut dyn FnMut(u64) -> WriteKind| {
        let period = 1_000_000_000 / per_s;
        for k in 0.. {
            let due_ns = k * period + phase_ns;
            if due_ns >= total_ns {
                break;
            }
            ops.push(WriteOp { due_ns, kind: kind(k) });
        }
    };
    let mut key = || rng.next_below(VOLATILE_KEYS) as u32;
    class(PUT_PER_S, 0, &mut |k| WriteKind::Put { idx: key(), value: k as u32 });
    class(REMOVE_PER_S, 250_000, &mut |_| WriteKind::Remove { idx: key() });
    class(MEMBER_PER_S, 60_000_000, &mut |k| match k % 2 {
        0 => WriteKind::Join,
        _ => WriteKind::Leave,
    });
    ops.sort_by_key(|o| o.due_ns);
    ops
}

/// Zipf(`s`) ranks over `n` keys by inverting the CDF.
fn zipf_ranks(n: usize, s: f64, draws: usize, rng: &mut Xoshiro256pp) -> Vec<u16> {
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for rank in 1..=n {
        acc += 1.0 / (rank as f64).powf(s);
        cdf.push(acc);
    }
    (0..draws)
        .map(|_| {
            let u = rng.next_f64() * acc;
            cdf.partition_point(|&c| c < u).min(n - 1) as u16
        })
        .collect()
}

/// Spins (sleeping first when far away) until `t`; returns the time it
/// saw, which is the operation's actual start.
fn wait_until(t: Instant) -> Instant {
    loop {
        let now = Instant::now();
        if now >= t {
            return now;
        }
        let left = t - now;
        if left > Duration::from_millis(1) {
            std::thread::sleep(left - Duration::from_micros(500));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Remembers the rename a removal applied to a surviving vnode.
#[derive(Default)]
struct Renames(Option<(VnodeId, VnodeId)>);

impl RebalanceSink for Renames {
    fn event(&mut self, e: RebalanceEvent) {
        if let RebalanceEvent::VnodeMigrated { old, new } = e {
            self.0 = Some((old, new));
        }
    }
}

/// Inputs shared by both threads, generated from the seed before the
/// pass.
struct Inputs {
    stable: Vec<Bytes>,
    volatile: Vec<Bytes>,
    values: Vec<Bytes>,
    read_seq: Vec<u16>,
    ops: Vec<WriteOp>,
    /// Index of the first phase-B op.
    split: usize,
}

impl Inputs {
    fn new(seed: u64, scale: Scale) -> Self {
        let (a_ms, b_ms) = phases(scale);
        let ops = schedule(seed, a_ms + b_ms);
        let split = ops.partition_point(|o| o.due_ns < a_ms * 1_000_000);
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x2EAD);
        Self {
            stable: (0..STABLE_KEYS).map(|i| Bytes::from(format!("s{i:07}"))).collect(),
            volatile: (0..VOLATILE_KEYS).map(|i| Bytes::from(format!("v{i:07}"))).collect(),
            values: (0..256).map(|i| Bytes::from(value_of(VALUE_LEN, i))).collect(),
            read_seq: zipf_ranks(STABLE_KEYS, ZIPF_S, READ_SEQ, &mut rng),
            ops,
            split,
        }
    }

    fn value(&self, tag: u32) -> Bytes {
        self.values[tag as usize % self.values.len()].clone()
    }

    /// Digest of everything the program will be fed.
    fn fingerprint(&self) -> u64 {
        let mut h = SplitMix64::mix(self.ops.len() as u64);
        for o in &self.ops {
            let k = match o.kind {
                WriteKind::Put { idx, value } => 1 ^ (idx as u64) << 8 ^ (value as u64) << 32,
                WriteKind::Remove { idx } => 2 ^ (idx as u64) << 8,
                WriteKind::Join => 3,
                WriteKind::Leave => 4,
            };
            h = SplitMix64::mix(h ^ o.due_ns ^ k.rotate_left(17));
        }
        self.read_seq.iter().fold(h, |h, &r| SplitMix64::mix(h ^ r as u64))
    }

    /// Distinct keys the store must hold after every op ran.
    fn expected_keys(&self) -> u64 {
        let mut live = BTreeSet::new();
        for o in &self.ops {
            match o.kind {
                WriteKind::Put { idx, .. } => {
                    live.insert(idx);
                }
                WriteKind::Remove { idx } => {
                    live.remove(&idx);
                }
                WriteKind::Join | WriteKind::Leave => {}
            }
        }
        (STABLE_KEYS + live.len()) as u64
    }
}

fn phases(scale: Scale) -> (u64, u64) {
    match scale {
        Scale::Full => (PHASE_A_MS, PHASE_B_MS),
        Scale::Quick => (PHASE_A_MS / 10, PHASE_B_MS / 10),
    }
}

fn engine() -> LocalDht {
    let cfg = DhtConfig::new(HashSpace::full(), 32, 32).expect("benchmark engine config");
    LocalDht::with_seed(cfg, crate::ENGINE_SEED)
}

/// The writer thread's state: the mutation plane.
struct Writer {
    store: Arc<RwLock<Store>>,
    cell: Arc<SnapshotCell>,
    builder: SnapshotBuilder,
    counts: CountOnly,
    /// The extra vnodes, in join order.
    extras: VecDeque<VnodeId>,
    next_tag: u32,
    relstd: Vec<f64>,
    /// With detail on: time waiting for / holding the write lock.
    detail: bool,
    lock_wait_ns: u64,
    hold_ns: u64,
}

impl Writer {
    /// Executes one op. Membership ops run the driver's protocol: tee into
    /// the builder, note the outcome, publish, then drop the lock.
    fn exec(&mut self, kind: WriteKind, inp: &Inputs, tracer: &mut Tracer, op: u32) {
        let started = self.detail.then(Instant::now);
        tracer.begin(
            match kind {
                WriteKind::Put { .. } => "serve.put",
                WriteKind::Remove { .. } => "serve.remove",
                WriteKind::Join => "serve.join",
                WriteKind::Leave => "serve.leave",
            },
            op,
        );
        tracer.begin("kv.lock_wait", op);
        let mut g = self.store.write();
        tracer.end();
        let acquired = self.detail.then(Instant::now);
        match kind {
            WriteKind::Put { idx, value } => {
                g.put(inp.volatile[idx as usize].clone(), inp.value(value));
            }
            WriteKind::Remove { idx } => {
                g.remove(&inp.volatile[idx as usize]);
            }
            WriteKind::Join => {
                let snode = SnodeId(self.next_tag);
                let mut sink = Tee(&mut self.builder, &mut self.counts);
                let (out, _) = g.join_with(snode, &mut sink).expect("serve join");
                self.builder.note_create(out.vnode, snode);
                self.builder.publish(&self.cell);
                self.extras.push_back(out.vnode);
                self.next_tag += 1;
            }
            WriteKind::Leave => {
                let v = self.extras.pop_front().expect("a join precedes every leave");
                let mut renames = Renames::default();
                let mut sink = Tee(Tee(&mut self.builder, &mut self.counts), &mut renames);
                g.leave_with(v, &mut sink).expect("serve leave");
                self.builder.note_remove(v);
                self.builder.publish(&self.cell);
                if let Some((old, new)) = renames.0 {
                    for e in &mut self.extras {
                        if *e == old {
                            *e = new;
                        }
                    }
                }
            }
        }
        drop(g);
        tracer.end();
        if let (Some(s), Some(a)) = (started, acquired) {
            self.lock_wait_ns += (a - s).as_nanos() as u64;
            self.hold_ns += a.elapsed().as_nanos() as u64;
        }
        if matches!(kind, WriteKind::Join | WriteKind::Leave) {
            // Balance quality after every membership op, outside the
            // write lock and outside the op's latency.
            self.relstd.push(self.store.read().engine().balance_snapshot().vnode_relstd_pct);
        }
    }
}

/// What the writer thread measured.
#[derive(Default)]
struct WriterOut {
    /// Put/remove latency from due time, open-loop ops only.
    lat_ns: Vec<u64>,
    /// How late each open-loop op started.
    late_ns: Vec<u64>,
    /// Closed-loop phase: every op's service time, in order.
    work_ns: Vec<u64>,
    /// Time inside `exec`, over `elapsed`.
    busy_ns: u64,
    elapsed: Duration,
}

/// What the reader thread measured.
#[derive(Default)]
struct ReaderOut {
    /// Per-burst read latency from due time: lateness plus burst time
    /// over the burst size.
    lat_ns: Vec<u64>,
    late_ns: Vec<u64>,
    closed: Option<(u64, Duration)>,
    reads: u64,
    /// Stable-key reads that came back empty or below quorum.
    misses: u64,
    /// With detail on: time to acquire the read guard, first read of
    /// each burst.
    lock_wait_ns: Vec<u64>,
}

/// The reader thread's state: the serving plane.
struct Reader<'a> {
    store: &'a RwLock<Store>,
    cell: &'a SnapshotCell,
    inp: &'a Inputs,
    snap: Arc<EngineSnapshot>,
    pos: usize,
    detail: bool,
    out: ReaderOut,
}

impl Reader<'_> {
    /// One pin, then `BURST` routed quorum reads, a guard per read.
    fn burst(&mut self) {
        if self.cell.is_stale(&self.snap) {
            self.snap = self.cell.load();
        }
        for i in 0..BURST {
            let key = &self.inp.stable[self.inp.read_seq[self.pos % READ_SEQ] as usize];
            self.pos += 1;
            // The first read of a burst is the one that meets a held
            // lock; timing only it keeps the traced closed loop honest.
            let t = (self.detail && i == 0).then(Instant::now);
            let g = self.store.read();
            if let Some(t) = t {
                self.out.lock_wait_ns.push(t.elapsed().as_nanos() as u64);
            }
            let mut got = g.get_quorum_routed(self.cell, &mut self.snap, key);
            if !got.read.available() && self.cell.is_stale(&self.snap) {
                // An epoch was published since the pin: a copy the old
                // chain pointed at has moved. Publishing needs the write
                // lock, so under this guard a fresh pin is current.
                self.snap = self.cell.load();
                got = g.get_quorum_routed(self.cell, &mut self.snap, key);
            }
            drop(g);
            if !got.read.available() {
                self.out.misses += 1;
            }
        }
        self.out.reads += BURST as u64;
    }

    /// Open loop: burst `k` is due at `t0 + k·period`, until `stop`.
    fn open_loop(&mut self, t0: Instant, tracer: &mut Tracer, stop: impl Fn(Instant) -> bool) {
        let period = Duration::from_nanos(1_000_000_000 * BURST as u64 / READ_PER_S);
        for k in 0u32.. {
            let due = t0 + period * k;
            if stop(due) {
                break;
            }
            let start = wait_until(due);
            self.burst();
            let end = Instant::now();
            tracer.record("serve.read_burst", k, start, end);
            let late = (start - due).as_nanos() as u64;
            self.out.late_ns.push(late);
            self.out.lat_ns.push(late + (end - start).as_nanos() as u64 / BURST as u64);
        }
    }

    /// Closed loop: bursts back to back until `deadline`.
    fn closed_loop(&mut self, deadline: Instant) {
        let start = Instant::now();
        let before = self.out.reads;
        while Instant::now() < deadline {
            self.burst();
        }
        self.out.closed = Some((self.out.reads - before, start.elapsed()));
    }
}

fn run_writer(
    w: &mut Writer,
    inp: &Inputs,
    subject: Subject,
    t0: Instant,
    tracer: &mut Tracer,
) -> WriterOut {
    let mut out = WriterOut::default();
    let open = if subject == Subject::Writer { &inp.ops[..inp.split] } else { &inp.ops[..] };
    for (i, o) in open.iter().enumerate() {
        let due = t0 + Duration::from_nanos(o.due_ns);
        let start = wait_until(due);
        w.exec(o.kind, inp, tracer, i as u32);
        let end = Instant::now();
        out.busy_ns += (end - start).as_nanos() as u64;
        if matches!(o.kind, WriteKind::Put { .. } | WriteKind::Remove { .. }) {
            out.late_ns.push((start - due).as_nanos() as u64);
            out.lat_ns.push((end - due).as_nanos() as u64);
        }
    }
    if subject == Subject::Writer {
        // Phase B: the same mix, back to back.
        let mut last = Instant::now();
        for (i, o) in inp.ops[inp.split..].iter().enumerate() {
            w.exec(o.kind, inp, tracer, (inp.split + i) as u32);
            let now = Instant::now();
            out.work_ns.push((now - last).as_nanos() as u64);
            last = now;
        }
        out.busy_ns += out.work_ns.iter().sum::<u64>();
    }
    out.elapsed = t0.elapsed();
    out
}

/// One repetition: fresh plant, the seed's op schedule and key sequence,
/// two threads. `verify` adds the full-state oracles (a run asks for them
/// once). With a tracer the probe chain replays the writer's ops on
/// twin state afterwards and the micro-probes run on the twins.
pub fn run_rep(
    spec: &ServeSpec,
    seed: u64,
    scale: Scale,
    verify: bool,
    tracer: Option<&mut Tracer>,
) -> Rep {
    let mut rep = Rep::default();
    let detail = tracer.is_some();
    let rep_start = Instant::now();

    // Set-up: inputs, fleet enrolment, key preload, snapshot seed.
    let inp = Inputs::new(seed, scale);
    rep.fingerprint = inp.fingerprint();
    let mut store = ReplicatedStore::new(engine(), REPLICATION);
    // Enrolment counts towards `xfer_per_event`, as the initial fleet
    // does on the churn workloads.
    let mut counts = CountOnly::default();
    for s in 0..SNODES {
        for _ in 0..2 {
            store.join_with(SnodeId(s), &mut counts).expect("fleet join");
        }
    }
    let mut user_bytes = 0u64;
    for (i, k) in inp.stable.iter().enumerate() {
        user_bytes += (k.len() + VALUE_LEN) as u64;
        store.put(k.clone(), inp.value(i as u32));
    }
    let builder = SnapshotBuilder::from_engine(store.engine());
    let cell = Arc::new(SnapshotCell::new(builder.snapshot()));
    let store = Arc::new(RwLock::new(store));
    let mut writer = Writer {
        store: Arc::clone(&store),
        cell: Arc::clone(&cell),
        builder,
        counts,
        extras: VecDeque::new(),
        next_tag: SNODES,
        relstd: Vec::new(),
        detail,
        lock_wait_ns: 0,
        hold_ns: 0,
    };
    let mut reader = Reader {
        store: &store,
        cell: &cell,
        inp: &inp,
        snap: cell.load(),
        pos: 0,
        detail,
        out: ReaderOut::default(),
    };

    let (a_ms, b_ms) = phases(scale);
    let t0 = Instant::now() + Duration::from_millis(2);
    let a_end = t0 + Duration::from_millis(a_ms);
    let end = a_end + Duration::from_millis(b_ms);
    let done = AtomicBool::new(false);
    let mut w_tracer = Tracer::with_origin(t0);
    let mut r_tracer = Tracer::with_origin(t0);
    w_tracer.enabled = detail;
    r_tracer.enabled = detail;
    let subject = spec.subject;
    let mut w_out = std::thread::scope(|s| {
        let wt = s.spawn(|| {
            let out = run_writer(&mut writer, &inp, subject, t0, &mut w_tracer);
            done.store(true, Ordering::Release);
            out
        });
        let rt = s.spawn(|| match subject {
            Subject::Reader => {
                reader.open_loop(t0, &mut r_tracer, |due| due >= a_end);
                reader.closed_loop(end);
            }
            Subject::Writer => {
                reader.open_loop(t0, &mut r_tracer, |_| done.load(Ordering::Acquire));
            }
        });
        rt.join().expect("reader thread");
        wt.join().expect("writer thread")
    });
    let setup = t0 - rep_start;
    let mut r_out = std::mem::take(&mut reader.out);

    // Output checks.
    let mut failed = r_out.misses;
    let g = store.read();
    if verify && g.engine().check_invariants().is_err() {
        eprintln!("{}: check_invariants failed", spec.name);
        failed += 1;
    }
    if let Some(e) = verify.then(|| g.verify_replication().err()).flatten() {
        eprintln!("{}: verify_replication: {e}", spec.name);
        failed += 1;
    }
    if g.len() != inp.expected_keys() {
        eprintln!("{}: {} keys at the end, expected {}", spec.name, g.len(), inp.expected_keys());
        failed += 1;
    }
    rep.attempted = r_out.reads + inp.ops.len() as u64 + 3;
    rep.failed = failed;

    // WAL totals over every snode that ever existed.
    let (mut wal_records, mut wal_bytes, mut rotations, mut truncated) = (0u64, 0u64, 0u64, 0u64);
    for s in 0..writer.next_tag {
        if let Some(w) = g.wal_of(SnodeId(s)) {
            let st = w.stats();
            wal_records += st.appended;
            wal_bytes += st.appended_bytes;
            rotations += st.rotations;
            truncated += st.truncated_segments;
        }
    }
    let stale_retries = g.read_stats().counters().stale_reads;
    drop(g);
    for o in &inp.ops {
        if let WriteKind::Put { idx, .. } = o.kind {
            user_bytes += (inp.volatile[idx as usize].len() + VALUE_LEN) as u64;
        }
    }
    let scheduled = inp.ops.iter().filter(|o| matches!(o.kind, WriteKind::Join | WriteKind::Leave));
    let members = (2 * SNODES) as f64 + scheduled.count() as f64;

    // The subject's figures are the end-to-end metrics; the other side's
    // go to the `serve.*` per-layer metrics.
    let mut late = match subject {
        Subject::Reader => {
            let (reads, took) = r_out.closed.expect("the reader ran its closed loop");
            rep.timings.insert("ops_per_s", reads as f64 / took.as_secs_f64());
            rep.lat_ns = r_out.lat_ns;
            let (mid, tail, _) = mid_and_tail_us(&mut w_out.lat_ns, TAIL_PERMILLE);
            rep.timings.insert("serve.write_mid_us", mid);
            rep.timings.insert("serve.write_tail_us", tail);
            r_out.late_ns
        }
        Subject::Writer => {
            let secs = w_out.work_ns.iter().sum::<u64>() as f64 / 1e9;
            rep.timings.insert("ops_per_s", w_out.work_ns.len() as f64 / secs);
            rep.lat_ns = w_out.lat_ns;
            rep.work_ns = w_out.work_ns;
            let (mid, tail, _) = mid_and_tail_us(&mut r_out.lat_ns, TAIL_PERMILLE);
            rep.timings.insert("serve.read_mid_us", mid);
            rep.timings.insert("serve.read_tail_us", tail);
            w_out.late_ns
        }
    };
    late.sort_unstable();
    rep.timings.insert("bench.gen_late_us", percentile(&late, 990) as f64 / 1e3);
    rep.timings.insert("setup_s", setup.as_secs_f64());
    rep.timings.insert(
        "serve.writer_busy_pct",
        100.0 * w_out.busy_ns as f64 / w_out.elapsed.as_nanos() as f64,
    );
    rep.timings.insert("kv.stale_retries", stale_retries as f64);
    rep.exact.insert("core.balance_relstd_pct", mean(&writer.relstd));
    rep.exact.insert("xfer_per_event", writer.counts.transfers as f64 / members);
    rep.exact.insert("wal.amp", wal_bytes as f64 / user_bytes as f64);
    rep.exact.insert("wal.records", wal_records as f64);
    rep.exact.insert("wal.bytes", wal_bytes as f64);
    rep.exact.insert("wal.rotations", rotations as f64);
    rep.exact.insert("wal.truncated_segments", truncated as f64);
    rep.timings.insert("kv.read_misses", r_out.misses as f64);

    if let Some(tracer) = tracer {
        let secs = w_out.elapsed.as_secs_f64();
        rep.timings.insert("kv.lock_hold_ms_per_s", writer.hold_ns as f64 / 1e6 / secs);
        let waits: Vec<f64> = r_out.lock_wait_ns.iter().map(|&n| n as f64 / 1e3).collect();
        rep.timings.insert("kv.lock_wait_us", mean(&waits));
        r_out.lock_wait_ns.sort_unstable();
        rep.timings
            .insert("kv.lock_wait_p99_us", percentile(&r_out.lock_wait_ns, 990) as f64 / 1e3);
        tracer.absorb(w_tracer);
        tracer.absorb(r_tracer);
        let real = store.read();
        let mut m = mirror_replay(&inp, tracer, &writer.counts, &real);
        drop(real);
        m.report_counts(&mut rep);
        crate::probes::run(&mut rep, &m.engine, m.store.as_mut(), seed);
    }
    rep
}

/// The probe chain for a serve pass: the writer's ops, in schedule
/// order, applied to twin state under per-layer spans.
fn mirror_replay(
    inp: &Inputs,
    tracer: &mut Tracer,
    real_counts: &CountOnly,
    real: &Store,
) -> Mirror<LocalDht> {
    const SPANS: EngineSpans = EngineSpans {
        create: "core.local.create",
        remove: "core.local.remove",
        fail: "core.local.fail",
        rejoin: "core.local.rejoin",
    };
    let twin_store = ReplicatedStore::new(engine(), REPLICATION);
    let mut m = Mirror::new(SPANS, engine(), Some(twin_store), None, true);
    let at = SimTime::ZERO;
    tracer.enabled = false;
    for s in 0..SNODES {
        let kind = EventKind::Join { node: NodeTag(s), vnodes: 2 };
        m.step(tracer, 0, &ChurnEvent { at, kind });
    }
    for (i, k) in inp.stable.iter().enumerate() {
        m.put(tracer, 0, k.clone(), inp.value(i as u32));
    }
    tracer.enabled = true;
    let mut extras: VecDeque<u32> = VecDeque::new();
    let mut next_tag = SNODES;
    for (i, o) in inp.ops.iter().enumerate() {
        let op = i as u32;
        match o.kind {
            WriteKind::Put { idx, value } => {
                m.put(tracer, op, inp.volatile[idx as usize].clone(), inp.value(value));
            }
            WriteKind::Remove { idx } => m.remove(tracer, op, &inp.volatile[idx as usize]),
            WriteKind::Join => {
                let kind = EventKind::Join { node: NodeTag(next_tag), vnodes: 1 };
                m.step(tracer, op, &ChurnEvent { at, kind });
                extras.push_back(next_tag);
                next_tag += 1;
            }
            WriteKind::Leave => {
                let tag = extras.pop_front().expect("a join precedes every leave");
                m.step(
                    tracer,
                    op,
                    &ChurnEvent { at, kind: EventKind::Leave { node: NodeTag(tag) } },
                );
            }
        }
    }
    // The chain is valid only if it did exactly what the writer did.
    assert_eq!(m.counts.transfers, real_counts.transfers, "probe-chain transfers ≠ writer's");
    let twin = m.store.as_ref().expect("serve twin store");
    assert_eq!(twin.len(), real.len(), "probe-chain key count ≠ writer's");
    assert_eq!(
        m.engine.vnode_count(),
        real.engine().vnode_count(),
        "probe-chain population ≠ writer's"
    );
    m
}
