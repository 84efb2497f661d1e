//! The routing control plane riding the replay: a [`Router`] ticked once
//! per window on the sim clock, its decisions executed through the
//! driver's ordinary membership operations, lease safety verified
//! against the engine, and a deterministic client-cache probe.
//!
//! Everything here runs on simulated time, so the route columns are
//! byte-deterministic.

use super::ChurnDriver;
use crate::event::NodeTag;
use domus_core::{DhtEngine, SnodeId};
use domus_route::{RouteAction, RouteCache, Router, RouterConfig};
use domus_sim::SimTime;
use std::sync::Arc;

/// The control plane's state ([`ChurnDriver::with_router`]).
pub(crate) struct RoutePlane {
    /// Leases, silent-failure failover and hot-spot scheduling.
    router: Router,
    /// The deterministic client cache the per-window probe routes through.
    cache: RouteCache,
    /// Windows whose lease table disagreed with the engine (must stay 0).
    lease_violations: u64,
}

impl RoutePlane {
    /// The whole-run control-plane figures.
    pub(crate) fn totals_into(&self, t: &mut super::RunTotals) {
        t.hot_windows = self.router.totals().hot_windows;
        t.route_convergence = self.router.worst_convergence();
        t.route_converged = !self.router.unconverged();
        t.lease_violations = self.lease_violations;
        t.cache_hit_rate = self.cache.stats().counters().hit_rate();
    }
}

impl<E: DhtEngine> ChurnDriver<E> {
    /// Attaches the routing & failover control plane: every join grants
    /// a lease, every window close runs one deterministic
    /// [`Router::tick`], and the tick's decisions — lease-expiry
    /// failovers and hot-spot moves — execute through the same
    /// membership machinery the event stream drives. Unlocks
    /// [`crate::event::EventKind::StallRank`] and
    /// [`crate::event::EventKind::DegradeRank`] (skipped without a
    /// router) and fills the `route_*`/`lease*`/`failover` CSV columns.
    /// Fully deterministic: the control plane runs on simulated time.
    pub fn with_router(mut self, cfg: RouterConfig) -> Self {
        let cell = Arc::clone(self.plant.cell());
        self.route = Some(RoutePlane {
            router: Router::new(cfg),
            cache: RouteCache::new(cell),
            lease_violations: 0,
        });
        self.plant.set_live(true);
        self
    }

    /// The control plane's lifetime view, when a router is attached.
    pub fn router(&self) -> Option<&Router> {
        self.route.as_ref().map(|plane| &plane.router)
    }

    /// Lease bookkeeping for a membership change, with the engine to
    /// read (a no-op without a router, so a driver without one never
    /// pays for the reads).
    pub(super) fn lease<T>(&mut self, note: impl FnOnce(&mut Router, &E) -> T) -> Option<T> {
        let plane = self.route.as_mut()?;
        Some(self.plant.with_engine(|e| note(&mut plane.router, e)))
    }

    /// A fault only a router can observe, injected into the snode at
    /// rank `draw`: a silent stall performs no engine operation (the
    /// victim just stops renewing its leases) and a degradation only
    /// shrinks a capacity record, so without a control plane — or on an
    /// empty DHT — the event is skipped.
    pub(super) fn fault(&mut self, draw: u64, inject: impl FnOnce(&mut Router, SnodeId)) {
        let tag = self.tag_at(draw);
        match (&mut self.route, tag) {
            (Some(plane), Some(tag)) => inject(&mut plane.router, SnodeId(tag.0)),
            _ => self.open.skipped += 1,
        }
    }

    /// One control-plane window, sampled into the open window's route
    /// columns: tick the router on the published loads, execute its
    /// decisions through the ordinary membership machinery, verify lease
    /// safety against the engine, and probe the client cache at 64
    /// deterministic points. A no-op without a router.
    pub(super) fn route_window(&mut self, end: SimTime) {
        let Some(plane) = &mut self.route else { return };
        let loads = self.plant.cell().load().loads().to_vec();
        let report = plane.router.tick(end, &loads);
        for action in &report.actions {
            match action {
                RouteAction::Failover { snode } => {
                    let tag = NodeTag(snode.0);
                    let count = self.hosted_by(tag).len();
                    if count == 0 {
                        // The lease outlived the vnodes (verify below
                        // would flag it) — confirm to clean the table.
                        self.lease(|r, _| r.note_fail(*snode));
                    } else if count == self.live() {
                        // Failing over the whole fleet would empty the
                        // DHT: push the expiry out one TTL and retry.
                        self.lease(|r, _| r.defer(*snode, end));
                    } else {
                        self.crash_tag(tag, true);
                    }
                }
                RouteAction::MoveVnode { from, to } => {
                    // Shed the hot snode's first-enrolled vnode; grow the
                    // coldest peer by one in the same stroke so the
                    // population stays level and the load lands colder.
                    if let Some(&v) = self.hosted_by(NodeTag(from.0)).first() {
                        let live_before = self.live();
                        self.remove_one(v);
                        if self.live() < live_before {
                            if let Some(t) = to {
                                self.create_one(NodeTag(t.0));
                            }
                            self.open.route_moves += 1;
                        }
                    }
                }
            }
        }
        let plane = self.route.as_mut().expect("checked on entry");
        // Lease safety, checked against the engine's per-snode index
        // every single window in O(S): the leased snodes are exactly the
        // hosting ones, and each lease covers its holder's vnodes.
        let leases_live = self.plant.with_engine(|e| {
            let hosted = |s| e.vnodes_of_snode(s).len();
            if plane.router.verify(e.snode_count(), hosted).is_err() {
                plane.lease_violations += 1;
            }
            plane.router.leases().iter().map(|(s, _)| hosted(s) as u64).sum()
        });
        // The deterministic client-cache probe: 64 grid points through
        // the cache. At most one refresh per published epoch lands as a
        // stale read — the ≤1-round repair contract, in the CSV.
        let space = self.plant.with_engine(|e| e.config().hash_space());
        let before = plane.cache.stats().counters();
        for i in 0..64u64 {
            plane.cache.lookup(space.fold(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        }
        let probe = plane.cache.stats().counters().since(before);
        let s = &mut self.open;
        s.route_version = plane.cache.version().0;
        s.cache_hit_rate = probe.hit_rate();
        s.cache_stale = probe.stale_reads;
        s.leases_live = leases_live;
        s.leases_expired = report.expired;
        s.hot_snodes = report.hot.len() as u64;
    }
}
