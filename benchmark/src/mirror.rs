//! The probe chain: a bench-owned replay of the same operations on twin
//! state, one span per layer.
//!
//! The real operation (`ChurnDriver::step`, or a `serve-mixed` writer
//! call) is a single opaque root span: this crate may not put spans
//! inside the program. To attribute its cost, the [`Mirror`] applies the
//! same operation directly to a twin engine built with the same seed —
//! under a `core.<backend>.*` span, into a recording sink — then feeds the
//! recorded events to each downstream layer under its own span
//! (`sim.price`, `core.serve.apply`, `core.serve.publish`, `core.count`),
//! and calls the wrapping `kv` layer on a twin store (`kv.join`, …).
//!
//! The roster rules (tag and rank selection, rename patching, the
//! keep-one-vnode and whole-fleet guards) mirror `ChurnDriver` exactly;
//! the chain is only valid if its totals equal the driver's, which the
//! caller asserts.

use crate::trace::Tracer;
use crate::Rep;
use bytes::Bytes;
use domus_churn::{ChurnEvent, DriverConfig, EventKind, NodeTag};
use domus_core::{
    CountOnly, DhtEngine, EngineSnapshot, NullSink, RebalanceEvent, RebalanceSink, SnapshotBuilder,
    SnapshotCell, SnodeId, VnodeId,
};
use domus_kv::workload::value_of;
use domus_kv::{ReplicatedStore, UniformKeys};
use domus_sim::{EventCost, EventPricer, SimTime};

/// Span names of one engine backend.
#[derive(Debug, Clone, Copy)]
pub struct EngineSpans {
    /// `create_vnode_with`.
    pub create: &'static str,
    /// `remove_vnode_with`.
    pub remove: &'static str,
    /// `fail_snode`.
    pub fail: &'static str,
    /// `rejoin_snode`.
    pub rejoin: &'static str,
}

/// Keeps every streamed event so it can be replayed into other sinks.
#[derive(Default)]
struct Recorder(Vec<RebalanceEvent>);

impl RebalanceSink for Recorder {
    fn event(&mut self, e: RebalanceEvent) {
        self.0.push(e);
    }
}

/// How the pricer closes the operation.
enum Priced {
    Create(VnodeId),
    Remove,
    Crash,
}

/// Twin state plus the per-layer totals the chain accumulates.
pub struct Mirror<E: DhtEngine> {
    spans: EngineSpans,
    /// The twin engine the `core.*` spans run on.
    pub engine: E,
    /// The twin store the `kv.*` spans run on (it owns a second twin
    /// engine, which evolves identically).
    pub store: Option<ReplicatedStore<E>>,
    /// `(entries, value length)` to load at the first join, as the driver
    /// does.
    pending_load: Option<(u64, usize)>,
    probe_keys: Vec<String>,
    roster: Vec<(NodeTag, VnodeId)>,
    crashed: Vec<(NodeTag, u32)>,
    window: SimTime,
    next_window_end: SimTime,
    windows_closed: u64,
    rec: Recorder,
    pricer: EventPricer,
    /// The twin serving plane, for workloads small enough to publish an
    /// epoch per operation (as the real system does once readers are on).
    serve: Option<(SnapshotBuilder, SnapshotCell)>,
    /// Exact event tallies of the whole replay.
    pub counts: CountOnly,
    /// Transfers priced (must equal the driver's `RunTotals.transfers`).
    pub transfers: u64,
    /// Messages priced (must equal `RunTotals.messages`).
    pub messages: u64,
    /// Bytes priced (must equal `RunTotals.bytes`).
    pub bytes: u64,
    /// Replica copies the twin store placed on joins, leaves and rejoins.
    pub copies_placed: u64,
    /// Keys the twin store lost to crashes.
    pub keys_lost: u64,
    /// Bytes shipped / a full rebuild would ship, by twin-store repairs.
    pub repair_bytes: (u64, u64),
}

impl<E: DhtEngine> Mirror<E> {
    /// A mirror over a fresh twin engine; `store` is the twin store for
    /// workloads that run the replicated overlay. `serve_plane` adds the
    /// `core.serve.*` spans: a snapshot build per operation costs
    /// milliseconds at thousands of vnodes, which is why the driver only
    /// publishes with readers on and why the bare ladder leaves it out.
    pub fn new(
        spans: EngineSpans,
        engine: E,
        store: Option<ReplicatedStore<E>>,
        pending_load: Option<(u64, usize)>,
        serve_plane: bool,
    ) -> Self {
        let cfg = DriverConfig::default();
        let serve = serve_plane.then(|| {
            let builder = SnapshotBuilder::from_engine(&engine);
            let cell = SnapshotCell::new(builder.snapshot());
            (builder, cell)
        });
        Self {
            spans,
            engine,
            store,
            pending_load,
            probe_keys: Vec::new(),
            roster: Vec::new(),
            crashed: Vec::new(),
            window: cfg.window,
            next_window_end: cfg.window,
            windows_closed: 0,
            rec: Recorder::default(),
            pricer: EventPricer::new(cfg.net, cfg.cost),
            serve,
            counts: CountOnly::default(),
            transfers: 0,
            messages: 0,
            bytes: 0,
            copies_placed: 0,
            keys_lost: 0,
            repair_bytes: (0, 0),
        }
    }

    /// Adds the chain's exact tallies to `rep` (backends of a pooled
    /// workload sum).
    pub fn report_counts(&self, rep: &mut Rep) {
        let c = &self.counts;
        rep.add_exact("core.transfers", c.transfers as f64);
        rep.add_exact("core.partition_splits", c.partition_splits as f64);
        rep.add_exact("core.partition_merges", c.partition_merges as f64);
        rep.add_exact("core.group_splits", c.group_splits as f64);
        rep.add_exact("core.group_merges", c.group_merges as f64);
        rep.add_exact("core.migrations", c.migrations as f64);
        rep.add_exact("core.probes", c.probes as f64);
        if let Some((builder, cell)) = &self.serve {
            rep.add_exact("core.serve.epochs", builder.epoch() as f64);
            rep.add_exact("core.serve.spans", cell.load().spans().len() as f64);
        }
        rep.add_exact("kv.copies_placed", self.copies_placed as f64);
    }

    /// Mirrors one churn event, windows first, exactly as
    /// `ChurnDriver::step` orders them.
    pub fn step(&mut self, t: &mut Tracer, op: u32, event: &ChurnEvent) {
        t.begin("probe.step", op);
        while event.at > self.next_window_end {
            self.close_window(t, op);
            self.next_window_end += self.window;
        }
        match event.kind {
            EventKind::Join { node, vnodes } => {
                for _ in 0..vnodes.max(1) {
                    self.create_one(t, op, node);
                }
            }
            EventKind::Leave { node } => {
                let victims: Vec<VnodeId> =
                    self.roster.iter().filter(|(n, _)| *n == node).map(|&(_, v)| v).collect();
                self.remove_all(t, op, victims);
            }
            EventKind::FailSlice { fraction_ppm, draw } => {
                let live = self.roster.len();
                if live > 0 {
                    let n = ((live as u64 * fraction_ppm as u64) / 1_000_000).max(1) as usize;
                    let start = (draw % live as u64) as usize;
                    let victims: Vec<VnodeId> =
                        (0..n.min(live)).map(|i| self.roster[(start + i) % live].1).collect();
                    self.remove_all(t, op, victims);
                }
            }
            EventKind::Crash { node } => self.crash_tag(t, op, node),
            EventKind::CrashRank { draw } => {
                if !self.roster.is_empty() {
                    let tag = self.roster[(draw % self.roster.len() as u64) as usize].0;
                    self.crash_tag(t, op, tag);
                }
            }
            EventKind::RejoinRank { draw } => {
                if !self.crashed.is_empty() {
                    let idx = (draw % self.crashed.len() as u64) as usize;
                    let (tag, vnodes) = self.crashed.remove(idx);
                    self.rejoin_tag(t, op, tag, vnodes);
                }
            }
            // Without a router the driver skips these.
            EventKind::StallRank { .. } | EventKind::DegradeRank { .. } => {}
        }
        t.end();
    }

    /// Mirrors a foreground put on the twin store.
    pub fn put(&mut self, t: &mut Tracer, op: u32, key: Bytes, value: Bytes) {
        let store = self.store.as_mut().expect("put needs the twin store");
        t.begin("kv.put", op);
        store.put(key, value);
        t.end();
    }

    /// Mirrors a foreground remove on the twin store.
    pub fn remove(&mut self, t: &mut Tracer, op: u32, key: &[u8]) {
        let store = self.store.as_mut().expect("remove needs the twin store");
        t.begin("kv.remove", op);
        store.remove(key);
        t.end();
    }

    /// What the driver does at a window close, on the twins: sample the
    /// balance, and with the overlay rebuild the serving snapshot, read
    /// the probe set at quorum and run anti-entropy.
    fn close_window(&mut self, t: &mut Tracer, op: u32) {
        t.begin("churn.window", op);
        t.begin("core.balance_snapshot", op);
        std::hint::black_box(self.engine.balance_snapshot());
        t.end();
        if let Some(store) = &mut self.store {
            if !self.probe_keys.is_empty() {
                t.begin("core.serve.rebuild", op);
                let snap = EngineSnapshot::from_engine(store.engine(), self.windows_closed + 1);
                t.end();
                t.begin("kv.probe", op);
                for key in &self.probe_keys {
                    std::hint::black_box(store.route_at(&snap, key.as_bytes()));
                    std::hint::black_box(store.get_quorum_at(&snap, key.as_bytes()));
                }
                t.end();
            }
            t.begin("kv.repair", op);
            let rep = store.repair();
            t.end();
            self.repair_bytes.0 += rep.bytes_shipped;
            self.repair_bytes.1 += rep.bytes_full;
        }
        self.windows_closed += 1;
        t.end();
    }

    fn create_one(&mut self, t: &mut Tracer, op: u32, node: NodeTag) {
        let snode = SnodeId(node.0);
        self.rec.0.clear();
        t.begin(self.spans.create, op);
        let out = self.engine.create_vnode_with(snode, &mut self.rec).expect("mirror create");
        t.end();
        if let Some(store) = &mut self.store {
            t.begin("kv.join", op);
            let (kv_out, rep) = store.join_with(snode, &mut NullSink).expect("mirror kv join");
            t.end();
            assert_eq!(kv_out.vnode, out.vnode, "twin engines diverged on a create");
            self.copies_placed += rep.copies_placed;
            self.load_if_pending();
        }
        self.downstream(t, op, Priced::Create(out.vnode), |b| b.note_create(out.vnode, snode));
        self.roster.push((node, out.vnode));
    }

    fn load_if_pending(&mut self) {
        let Some((entries, value_len)) = self.pending_load.take() else { return };
        let store = self.store.as_mut().expect("a load needs the twin store");
        let keys = UniformKeys::new(entries);
        for i in 0..entries {
            store.put(keys.key_at(i), value_of(value_len, i));
        }
        let probes = DriverConfig::default().probes.min(entries as usize).max(1);
        let stride = (entries / probes as u64).max(1);
        self.probe_keys = (0..probes as u64).map(|i| keys.key_at((i * stride) % entries)).collect();
    }

    fn remove_all(&mut self, t: &mut Tracer, op: u32, mut victims: Vec<VnodeId>) {
        while !victims.is_empty() {
            let v = victims.remove(0);
            if let Some((old, new)) = self.remove_one(t, op, v) {
                for pending in &mut victims {
                    if *pending == old {
                        *pending = new;
                    }
                }
            }
        }
    }

    fn remove_one(&mut self, t: &mut Tracer, op: u32, v: VnodeId) -> Option<(VnodeId, VnodeId)> {
        if self.roster.len() <= 1 {
            return None;
        }
        self.rec.0.clear();
        t.begin(self.spans.remove, op);
        self.engine.remove_vnode_with(v, &mut self.rec).expect("mirror remove");
        t.end();
        if let Some(store) = &mut self.store {
            t.begin("kv.leave", op);
            let (_, rep) = store.leave_with(v, &mut NullSink).expect("mirror kv leave");
            t.end();
            self.copies_placed += rep.copies_placed;
        }
        self.downstream(t, op, Priced::Remove, |b| b.note_remove(v));
        self.roster.retain(|&(_, rv)| rv != v);
        let migrated = self.pricer.migrated();
        if let Some((old, new)) = migrated {
            self.rename(old, new);
        }
        migrated
    }

    fn rename(&mut self, old: VnodeId, new: VnodeId) {
        for entry in &mut self.roster {
            if entry.1 == old {
                entry.1 = new;
            }
        }
    }

    fn crash_tag(&mut self, t: &mut Tracer, op: u32, tag: NodeTag) {
        let count = self.roster.iter().filter(|(n, _)| *n == tag).count();
        if count == 0 || count == self.roster.len() {
            return;
        }
        let snode = SnodeId(tag.0);
        self.rec.0.clear();
        t.begin(self.spans.fail, op);
        let out = self.engine.fail_snode(snode, &mut self.rec).expect("mirror crash");
        t.end();
        if let Some(store) = &mut self.store {
            t.begin("kv.crash", op);
            let rep = store.fail_snode_with(snode, &mut NullSink).expect("mirror kv crash");
            t.end();
            assert_eq!(rep.renames, out.renames, "twin engines diverged on a crash");
            self.keys_lost += rep.keys_lost;
        }
        self.roster.retain(|&(n, _)| n != tag);
        for (old, new) in out.renames {
            self.rename(old, new);
        }
        self.downstream(t, op, Priced::Crash, |b| b.note_fail(snode));
        self.crashed.push((tag, count as u32));
    }

    fn rejoin_tag(&mut self, t: &mut Tracer, op: u32, tag: NodeTag, vnodes: u32) {
        if self.roster.iter().any(|(n, _)| *n == tag) {
            return;
        }
        let snode = SnodeId(tag.0);
        let Some(store) = &mut self.store else {
            for _ in 0..vnodes.max(1) {
                self.create_one(t, op, tag);
            }
            return;
        };
        // The driver skips a rejoin the store no longer remembers.
        let Some(&(_, size)) = store.crashed_snodes().iter().find(|(s, _)| *s == snode) else {
            return;
        };
        t.begin("kv.rejoin", op);
        let rep = store.rejoin_snode_with(snode, &mut NullSink).expect("mirror kv rejoin");
        t.end();
        self.copies_placed += rep.repair.copies_placed + rep.recovered;
        self.repair_bytes.0 += rep.repair.bytes_shipped;
        self.repair_bytes.1 += rep.repair.bytes_full;
        self.rec.0.clear();
        t.begin(self.spans.rejoin, op);
        let out = self.engine.rejoin_snode(snode, size, &mut self.rec).expect("mirror rejoin");
        t.end();
        assert_eq!(out.vnodes, rep.handles, "twin engines diverged on a rejoin");
        let first = out.vnodes[0];
        self.downstream(t, op, Priced::Create(first), |b| {
            for &v in &out.vnodes {
                b.note_create(v, snode);
            }
        });
        for &v in &out.vnodes {
            self.roster.push((tag, v));
        }
    }

    /// Feeds the events the engine span just recorded to every layer
    /// that consumes them in the real system, one span each.
    fn downstream(
        &mut self,
        t: &mut Tracer,
        op: u32,
        priced: Priced,
        note: impl FnOnce(&mut SnapshotBuilder),
    ) {
        t.begin("sim.price", op);
        self.pricer.begin();
        for &e in &self.rec.0 {
            self.pricer.event(e);
        }
        let cost = self.price(priced);
        t.end();
        self.transfers += self.pricer.transfers();
        self.messages += cost.messages;
        self.bytes += cost.bytes;

        if let Some((builder, cell)) = &mut self.serve {
            t.begin("core.serve.apply", op);
            for &e in &self.rec.0 {
                builder.event(e);
            }
            note(builder);
            t.end();
            // Set-up keeps the builder current but publishes nothing.
            if t.enabled {
                t.begin("core.serve.publish", op);
                builder.publish(cell);
                t.end();
            }
        }

        t.begin("core.count", op);
        for &e in &self.rec.0 {
            self.counts.event(e);
        }
        t.end();
    }

    /// The driver's pricing rule: the governing record is the created
    /// vnode's for a creation, any transfer receiver's for a removal, and
    /// for a crash the first receiver if it survived, else any survivor.
    fn price(&mut self, priced: Priced) -> EventCost {
        let engine = &self.engine;
        let shape = |v: VnodeId| engine.record_shape_of(v).expect("live vnode has a record");
        match priced {
            Priced::Create(v) => {
                let (len, parts) = shape(v);
                self.pricer.finish_create(len, parts)
            }
            Priced::Remove => {
                let (len, parts) = self.pricer.first_receiver().map(shape).unwrap_or((1, 1));
                self.pricer.finish_remove(len, parts)
            }
            Priced::Crash => {
                let v = self
                    .pricer
                    .first_receiver()
                    .filter(|&v| engine.snode_of(v).is_ok())
                    .or_else(|| self.roster.first().map(|&(_, v)| v));
                let (len, parts) = v.map(shape).unwrap_or((1, 1));
                self.pricer.finish_remove(len, parts)
            }
        }
    }
}
