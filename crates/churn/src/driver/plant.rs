//! The thing being driven: an engine, bare or under one of the two KV
//! overlays, behind one method per membership operation.
//!
//! This is the only module that knows which overlay is active. It is
//! also where the two serving-plane rules live:
//!
//! * **No per-operation publish unless someone is watching.** Reading a
//!   snapshot off the engine costs more than the operation it follows,
//!   so the bare/replicated plants publish per operation only while
//!   `live` is set — readers pin the cell, or a router judges loads on
//!   it. Turning live publishes the engine's state at once when the cell
//!   lags it, so an attach mid-replay starts current. (The plain KV plant
//!   delegates to [`KvService`], which always publishes into its own
//!   cell.)
//! * **Publish before unlock.** When live, the next epoch is read off the
//!   engine and published while the replicated store's write guard is
//!   still held, so a reader that settles at the current epoch can trust
//!   a miss. [`View::publish`] is that one `if`, and every operation
//!   calls it inside the guard's scope.

use super::ChurnDriver;
use domus_core::{DhtEngine, DhtError, EngineSnapshot, SnapshotCell, SnodeId, VnodeId};
use domus_kv::replicated::RejoinReport;
use domus_kv::workload::value_of;
use domus_kv::{CrashReport, KvService, KvStore, RepairReport, ReplicatedStore, UniformKeys};
use domus_sim::EventPricer;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// What is under the engine.
enum Backing<E: DhtEngine> {
    /// Nothing: control plane only, no data moves.
    Bare(E),
    /// A [`KvService`]: every membership event migrates real data.
    Kv(KvService<E>),
    /// A [`ReplicatedStore`]: crashes destroy data, durability is measured.
    Repl(Arc<RwLock<ReplicatedStore<E>>>),
}

impl<E: DhtEngine> Backing<E> {
    fn with_engine<T>(&self, f: impl FnOnce(&E) -> T) -> T {
        match self {
            Backing::Bare(e) => f(e),
            Backing::Kv(svc) => svc.with_read(|s| f(s.engine())),
            Backing::Repl(store) => f(store.read().engine()),
        }
    }
}

/// The published routing view of the bare/replicated plants.
struct View {
    cell: Arc<SnapshotCell>,
    /// Publish per operation (readers or a router are attached).
    live: bool,
}

impl View {
    /// When live: publishes the engine's routing as the next epoch.
    /// Callers hold the store's write guard across this call.
    fn publish<E: DhtEngine>(&self, engine: &E) {
        if self.live {
            self.cell.publish_next(engine);
        }
    }
}

/// What a serving-plane reader thread resolves reads against.
pub(crate) enum ReadTarget<E: DhtEngine> {
    /// Routing-plane only: resolve random points on the pinned snapshot.
    Routing,
    Kv(KvService<E>),
    Repl(Arc<RwLock<ReplicatedStore<E>>>),
}

/// The driven system: backing + published view + loaded population.
pub(crate) struct Plant<E: DhtEngine> {
    backing: Backing<E>,
    view: View,
    /// Population loaded at the first join: `(entries, value_len)`.
    load: Option<(u64, usize)>,
    /// Upper bound on the probe set.
    max_probes: usize,
    /// Probe keys and their owner at the last window boundary.
    probe_keys: Vec<String>,
    probe_owner: Vec<Option<VnodeId>>,
    /// Raised once the population is loaded; readers issue routing-only
    /// probes until then.
    loaded: Arc<AtomicBool>,
}

impl<E: DhtEngine> Plant<E> {
    pub(crate) fn bare(engine: E) -> Self {
        Self::new(Backing::Bare(engine), None, 0)
    }

    pub(crate) fn kv(engine: E, load: (u64, usize), max_probes: usize) -> Self {
        Self::new(Backing::Kv(KvService::new(KvStore::new(engine))), Some(load), max_probes)
    }

    pub(crate) fn replicated(engine: E, r: usize, load: (u64, usize), max_probes: usize) -> Self {
        let store = ReplicatedStore::new(engine, r);
        Self::new(Backing::Repl(Arc::new(RwLock::new(store))), Some(load), max_probes)
    }

    fn new(backing: Backing<E>, load: Option<(u64, usize)>, max_probes: usize) -> Self {
        let snap = backing.with_engine(|e| EngineSnapshot::from_engine(e, 0));
        Self {
            backing,
            view: View { cell: Arc::new(SnapshotCell::new(snap)), live: false },
            load,
            max_probes,
            probe_keys: Vec::new(),
            probe_owner: Vec::new(),
            loaded: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Turns per-operation publishing on or off (see the module docs).
    /// Turning it on publishes the engine's state as the next epoch
    /// unless the cell already shows it: an attach before the first
    /// operation keeps epoch 0, a late one starts current.
    pub(crate) fn set_live(&mut self, live: bool) {
        let cell = &self.view.cell;
        if live && !self.view.live {
            let now =
                self.backing.with_engine(|e| EngineSnapshot::from_engine(e, cell.epoch() + 1));
            let shown = cell.load();
            if now.spans() != shown.spans() || now.loads() != shown.loads() {
                cell.publish(now);
            }
        }
        self.view.live = live;
    }

    pub(crate) fn with_engine<T>(&self, f: impl FnOnce(&E) -> T) -> T {
        self.backing.with_engine(f)
    }

    /// The cell readers, the router and the window probe pin.
    pub(crate) fn cell(&self) -> &Arc<SnapshotCell> {
        match &self.backing {
            Backing::Kv(svc) => svc.serve(),
            _ => &self.view.cell,
        }
    }

    /// `(record length, participant snodes)` of the record governing `v`'s
    /// region — the inputs the cost model prices synchronisation with.
    /// Served by the engines' incrementally-maintained counts, so pricing
    /// an event never materialises a PDR.
    pub(crate) fn record_shape_of(&self, v: VnodeId) -> (u64, u64) {
        self.with_engine(|e| e.record_shape_of(v).expect("live vnode has a record"))
    }

    /// Creates one vnode on `snode`; returns its handle and the entries
    /// (replica copies, when replicated) the join moved. The first
    /// creation also loads the population.
    pub(crate) fn create(&mut self, snode: SnodeId, pricer: &mut EventPricer) -> (VnodeId, u64) {
        const FAILED: &str = "churn replay: create failed";
        let view = &self.view;
        let created = match &mut self.backing {
            Backing::Bare(e) => {
                let v = e.create_vnode_with(snode, pricer).expect(FAILED).vnode;
                view.publish(e);
                (v, 0)
            }
            Backing::Kv(svc) => {
                let (out, moved) = svc.join_with(snode, pricer).expect(FAILED);
                (out.vnode, moved.entries)
            }
            Backing::Repl(store) => {
                let mut g = store.write();
                let (out, repair) = g.join_with(snode, pricer).expect(FAILED);
                view.publish(g.engine());
                (out.vnode, repair.copies_placed)
            }
        };
        self.load_if_pending();
        created
    }

    /// Gracefully removes `v`; returns the entries the leave moved.
    pub(crate) fn remove(&mut self, v: VnodeId, pricer: &mut EventPricer) -> u64 {
        const FAILED: &str = "churn replay: remove failed";
        let view = &self.view;
        match &mut self.backing {
            Backing::Bare(e) => {
                e.remove_vnode_with(v, pricer).expect(FAILED);
                view.publish(e);
                0
            }
            Backing::Kv(svc) => svc.leave_with(v, pricer).expect(FAILED).1.entries,
            Backing::Repl(store) => {
                let mut g = store.write();
                let (_, repair) = g.leave_with(v, pricer).expect(FAILED);
                view.publish(g.engine());
                repair.copies_placed
            }
        }
    }

    /// Crashes `snode` **ungracefully**: every vnode it hosts is torn
    /// down at once and, when replicated, whatever it stored is destroyed
    /// rather than migrated. `None` means the plant cannot represent
    /// that — the plain KV overlay has no notion of loss — and the
    /// caller degrades the crash to graceful removals.
    pub(crate) fn fail(&mut self, snode: SnodeId, pricer: &mut EventPricer) -> Option<CrashReport> {
        const FAILED: &str = "churn replay: crash failed";
        let view = &self.view;
        let report = match &mut self.backing {
            Backing::Bare(e) => {
                let out = e.fail_snode(snode, pricer).expect(FAILED);
                view.publish(e);
                CrashReport { vnodes_failed: out.vnodes.len(), ..CrashReport::default() }
            }
            Backing::Kv(_) => return None,
            Backing::Repl(store) => {
                let mut g = store.write();
                let report = g.fail_snode_with(snode, pricer).expect(FAILED);
                view.publish(g.engine());
                report
            }
        };
        Some(report)
    }

    /// Brings a crashed `snode` back by replaying its write-ahead log:
    /// re-enrol its vnodes, rebuild their ranges in-line, replay and
    /// checkpoint the surviving log. `None` means the plant keeps no log
    /// (bare, plain KV) and the caller re-enrols through ordinary joins;
    /// `Err` means the store no longer remembers the crash.
    pub(crate) fn rejoin(
        &mut self,
        snode: SnodeId,
        pricer: &mut EventPricer,
    ) -> Option<Result<RejoinReport, DhtError>> {
        let Backing::Repl(store) = &mut self.backing else { return None };
        let mut g = store.write();
        let rejoined = g.rejoin_snode_with(snode, pricer);
        if rejoined.is_ok() {
            self.view.publish(g.engine());
        }
        Some(rejoined)
    }

    /// The window-close anti-entropy pass; also reports the live key
    /// count. Repair fills missing copies on the chains the current
    /// epoch already routes to, so nothing is republished.
    pub(crate) fn repair(&mut self) -> (u64, RepairReport) {
        match &mut self.backing {
            Backing::Bare(_) => (0, RepairReport::default()),
            Backing::Kv(svc) => (svc.len(), RepairReport::default()),
            Backing::Repl(store) => {
                let mut g = store.write();
                let report = g.repair();
                (g.len(), report)
            }
        }
    }

    /// Loads the population once the DHT can own keys, and picks the
    /// probe set: up to `max_probes` keys at an even stride.
    fn load_if_pending(&mut self) {
        let Some((entries, value_len)) = self.load else { return };
        if self.loaded.load(Ordering::Relaxed) {
            return;
        }
        let keys = UniformKeys::new(entries);
        let probes = self.max_probes.min(entries as usize).max(1) as u64;
        let stride = (entries / probes).max(1);
        self.probe_keys = (0..probes).map(|i| keys.key_at((i * stride) % entries)).collect();
        let probe_keys = self.probe_keys.iter().map(String::as_bytes);
        self.probe_owner = match &mut self.backing {
            Backing::Bare(_) => return, // only overlay plants carry a load
            Backing::Kv(svc) => {
                for i in 0..entries {
                    svc.put(keys.key_at(i), value_of(value_len, i));
                }
                svc.with_read(|store| probe_keys.map(|k| store.route(k)).collect())
            }
            Backing::Repl(store) => {
                let mut g = store.write();
                for i in 0..entries {
                    g.put(keys.key_at(i), value_of(value_len, i));
                }
                probe_keys.map(|k| g.route(k)).collect()
            }
        };
        // Readers switch from routing-only probes to real gets from here.
        self.loaded.store(true, Ordering::Release);
    }

    /// Re-routes the probe set **through a pinned snapshot** — the same
    /// consistent epoch a concurrent client would serve from, not the
    /// live engine. Returns `(availability, lost lookups, quorum
    /// availability)`: the unchanged-owner fraction since the last call,
    /// the probes that failed to read back, and the fraction readable at
    /// majority quorum (every readable probe, without replication). A
    /// non-live replicated plant publishes the engine's state for the
    /// occasion.
    pub(crate) fn probe(&mut self) -> (f64, u64, f64) {
        if self.probe_keys.is_empty() {
            return (1.0, 0, 1.0);
        }
        if let (Backing::Repl(store), false) = (&self.backing, self.view.live) {
            self.view.cell.publish_next(store.read().engine());
        }
        let snap = self.cell().load();
        let (mut changed, mut lost, mut at_quorum) = (0u64, 0u64, 0u64);
        let mut tally = |now: Option<VnodeId>, found: bool, quorate: bool, prev: &mut Option<_>| {
            lost += u64::from(!found);
            at_quorum += u64::from(quorate);
            changed += u64::from(prev.is_some() && *prev != now);
            *prev = now;
        };
        let probes = self.probe_keys.iter().map(String::as_bytes).zip(&mut self.probe_owner);
        match &self.backing {
            Backing::Bare(_) => return (1.0, 0, 1.0),
            Backing::Kv(svc) => svc.with_read(|store| {
                for (key, prev) in probes {
                    let found = store.get_at(&snap, key).is_some();
                    tally(store.route_at(&snap, key), found, true, prev);
                }
            }),
            Backing::Repl(store) => {
                let store = store.read();
                for (key, prev) in probes {
                    let read = store.get_quorum_at(&snap, key);
                    tally(store.route_at(&snap, key), read.value.is_some(), read.available(), prev);
                }
            }
        }
        let n = self.probe_keys.len() as f64;
        (1.0 - changed as f64 / n, lost, at_quorum as f64 / n)
    }

    /// Drops probe keys whose every replica a crash just destroyed — they
    /// are accounted in `keys_lost`, and keeping them would misreport the
    /// loss a second time as `lost_lookups`.
    pub(crate) fn prune_lost_probes(&mut self) {
        let Backing::Repl(store) = &self.backing else { return };
        let store = store.read();
        let keys = std::mem::take(&mut self.probe_keys);
        let owners = std::mem::take(&mut self.probe_owner);
        for (key, owner) in keys.into_iter().zip(owners) {
            if store.get(key.as_bytes()).is_some() {
                self.probe_keys.push(key);
                self.probe_owner.push(owner);
            }
        }
    }

    pub(crate) fn read_target(&self) -> ReadTarget<E> {
        match &self.backing {
            Backing::Bare(_) => ReadTarget::Routing,
            Backing::Kv(svc) => ReadTarget::Kv(svc.clone()),
            Backing::Repl(store) => ReadTarget::Repl(Arc::clone(store)),
        }
    }

    /// The reader threads' key space (0 on the bare plant) and the flag
    /// that opens it.
    pub(crate) fn population(&self) -> (u64, Arc<AtomicBool>) {
        (self.load.map_or(0, |(entries, _)| entries), Arc::clone(&self.loaded))
    }
}

/// The driver's public window onto its plant.
impl<E: DhtEngine> ChurnDriver<E> {
    /// Read access to the engine regardless of the overlay.
    pub fn with_engine<T>(&self, f: impl FnOnce(&E) -> T) -> T {
        self.plant.with_engine(f)
    }

    /// Read access to the replicated store, when that overlay is active.
    pub fn with_replicated<T>(&self, f: impl FnOnce(&ReplicatedStore<E>) -> T) -> Option<T> {
        match &self.plant.backing {
            Backing::Repl(store) => Some(f(&store.read())),
            _ => None,
        }
    }
}

impl<E: DhtEngine> ReadTarget<E> {
    /// One read at `draw` against the pinned `snap`: `(stale retries, read
    /// error)`. With `keys` it is a get of a drawn key; without (no data
    /// loaded yet, or the bare plant) it resolves a random point.
    pub(crate) fn read(
        &self,
        cell: &SnapshotCell,
        snap: &mut Arc<EngineSnapshot>,
        keys: Option<(&UniformKeys, u64)>,
        draw: u64,
    ) -> (u32, bool) {
        match (self, keys) {
            (ReadTarget::Kv(svc), Some((keys, entries))) => {
                let got = svc.get_routed(snap, keys.key_at(draw % entries).as_bytes());
                (got.retries, got.value.is_none())
            }
            (ReadTarget::Repl(store), Some((keys, entries))) => {
                // A settled miss is genuine — only reachable when crashes
                // destroyed every copy, i.e. R was too low for the burst.
                let key = keys.key_at(draw % entries);
                let got = store.read().get_quorum_routed(cell, snap, key.as_bytes());
                (got.retries, got.read.value.is_none())
            }
            // Routing-plane read: resolve a random point at the pinned epoch.
            _ => {
                let miss = !snap.is_empty() && snap.lookup(snap.space().fold(draw)).is_none();
                (0, miss)
            }
        }
    }
}
