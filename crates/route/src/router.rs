//! The control-plane state machine: lease renewal, silent-failure
//! failover, and capacity-weighted hot-spot scheduling.
//!
//! A [`Router`] owns no data plane. It watches membership (the driver
//! notifies it of joins/leaves/crashes), keeps one lease per snode,
//! and once per window — one deterministic [`Router::tick`] on the sim
//! clock — decides what should move:
//!
//! * **Failover.** Healthy snodes renew their leases every tick; a
//!   stalled snode silently stops. When its lease lapses, the tick
//!   emits [`RouteAction::Failover`] and the executor drives the same
//!   `fail_snode` machinery an explicit crash would — `Transfer` events
//!   through the existing sinks, repair re-replicates
//!   the survivors' copies.
//! * **Hot-spot scheduling.** Per-window [`SnodeLoad`]s are judged
//!   against each snode's *declared capacity* (Mirrezaei-style: a node
//!   serving twice its capacity-weighted fair share is hot, no matter
//!   how many raw vnodes it hosts). Flagged snodes shed one vnode per
//!   tick ([`RouteAction::MoveVnode`]) toward the coldest peer until
//!   the overload factor drops under the threshold; the tick count from
//!   onset to cleared is the **convergence time** the `CHURN-ROUTE`
//!   experiment reports per backend.
//!
//! The router keeps no list of vnodes: its per-tick vnode counts come
//! off the [`SnodeLoad`]s the caller reads from a published snapshot.

use crate::lease::LeaseTable;
use domus_core::{SnodeId, SnodeLoad, VnodeId};
use domus_sim::SimTime;
use std::borrow::Cow;

/// Tunables for the control plane (all deterministic).
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Lease validity: a holder missing renewals for this long fails
    /// over. Pick ≥ 2 windows so one missed tick is not a death
    /// sentence.
    pub lease_ttl: SimTime,
    /// Overload factor (measured quota ÷ capacity-weighted fair share)
    /// beyond which a snode counts as hot. Must exceed 1.
    pub hot_threshold: f64,
    /// Consecutive hot ticks before the scheduler starts shedding —
    /// 1 reacts immediately, higher values ignore one-window spikes.
    pub hot_streak: u32,
    /// Vnode moves the scheduler may order per tick (bounds the churn
    /// the control plane itself injects).
    pub max_moves_per_tick: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            lease_ttl: SimTime::millis(75_000),
            hot_threshold: 2.0,
            hot_streak: 1,
            max_moves_per_tick: 2,
        }
    }
}

/// One decision the control plane wants executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteAction {
    /// A holder's lease lapsed: tear its vnodes (the engine knows
    /// which) down as a crash — the node is unreachable, so its data
    /// plane cannot be drained gracefully — and let repair re-replicate.
    Failover {
        /// The silent snode.
        snode: SnodeId,
    },
    /// Shed one vnode from a hot snode; when `to` is set, grow the
    /// coldest peer by one vnode in the same stroke so the population
    /// stays level and the load actually lands somewhere colder.
    MoveVnode {
        /// The overloaded snode to shrink.
        from: SnodeId,
        /// The underloaded snode to grow, when one exists.
        to: Option<SnodeId>,
    },
}

/// What one [`Router::tick`] observed and decided.
#[derive(Debug, Clone, Default)]
pub struct TickReport {
    /// Decisions for the executor, failovers first (in snode order).
    pub actions: Vec<RouteAction>,
    /// Vnodes whose holder renewed its lease this tick, counted off the
    /// tick's loads.
    pub renewed: u64,
    /// Vnodes whose holder's lease lapsed this tick (the failover
    /// worklist), counted off the tick's loads.
    pub expired: u64,
    /// Snodes over the hot threshold this tick.
    pub hot: Vec<SnodeId>,
}

/// Lifetime totals of one router (monotone; sample per window and diff).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterTotals {
    /// Ticks run.
    pub ticks: u64,
    /// Vnodes covered by healthy holders' renewals (over all ticks).
    pub leases_renewed: u64,
    /// Vnodes covered by lapsed leases (over all ticks).
    pub leases_expired: u64,
    /// Failover actions emitted.
    pub failovers: u64,
    /// Hot-spot moves emitted.
    pub moves: u64,
    /// Ticks with at least one hot snode.
    pub hot_windows: u64,
}

/// The control plane. See the module docs for the model.
#[derive(Debug, Clone)]
pub struct Router {
    cfg: RouterConfig,
    /// One record per snode: its lease, declared capacity, degradation,
    /// stall flag and hot streak.
    leases: LeaseTable,
    totals: RouterTotals,
    /// Tick index when the current hot episode started.
    hot_onset: Option<u64>,
    /// Completed hot episodes, each in ticks from onset to cleared.
    convergence: Vec<u64>,
}

impl Router {
    /// A router with no members yet.
    pub fn new(cfg: RouterConfig) -> Self {
        assert!(cfg.hot_threshold > 1.0, "a hot threshold ≤ 1 flags a perfectly balanced DHT");
        assert!(cfg.max_moves_per_tick > 0, "a scheduler that may never move cannot converge");
        Self {
            cfg,
            leases: LeaseTable::new(cfg.lease_ttl),
            totals: RouterTotals::default(),
            hot_onset: None,
            convergence: Vec::new(),
        }
    }

    /// The configuration the router runs under.
    pub fn config(&self) -> &RouterConfig {
        &self.cfg
    }

    /// The live lease table.
    pub fn leases(&self) -> &LeaseTable {
        &self.leases
    }

    /// Lifetime totals.
    pub fn totals(&self) -> RouterTotals {
        self.totals
    }

    /// Completed hot episodes, each in ticks from onset to cleared.
    pub fn convergence_windows(&self) -> &[u64] {
        &self.convergence
    }

    /// The longest hot episode, counting an episode still open at the
    /// last tick as ongoing — the number the CI gate bounds.
    pub fn worst_convergence(&self) -> u64 {
        let done = self.convergence.iter().copied().max().unwrap_or(0);
        match self.hot_onset {
            Some(onset) => done.max(self.totals.ticks - onset + 1),
            None => done,
        }
    }

    /// `true` while a hot episode is still open (imbalance not yet
    /// rebalanced under the threshold).
    pub fn unconverged(&self) -> bool {
        self.hot_onset.is_some()
    }

    /// Declares (or re-declares) `s`'s capacity basis: its vnode
    /// enrollment at join time. First declaration wins — hot-spot moves
    /// later shrink the node's *quota*, not its capacity.
    pub fn note_capacity(&mut self, s: SnodeId, vnodes: u32) {
        self.leases.record(s).declared.get_or_insert(f64::from(vnodes.max(1)));
    }

    /// A vnode came up on `s` at `now`: `s`'s lease lapses no later than
    /// one TTL from `now`. `_v` is unused — a snode's lease covers every
    /// vnode the engine lists for it — and is kept so callers compile
    /// unchanged.
    pub fn note_join(&mut self, _v: VnodeId, s: SnodeId, now: SimTime) {
        self.note_capacity(s, 1);
        self.leases.grant(s, now);
    }

    /// A vnode on `s` left gracefully, leaving `remaining` on it. Once
    /// the last one is gone the snode is forgotten entirely — a departed
    /// node must not skew the fairness denominator.
    pub fn note_remove(&mut self, s: SnodeId, remaining: usize) {
        if remaining == 0 {
            self.leases.release(s);
        }
    }

    /// A snode crashed (explicitly, or a failover was executed): forget
    /// its lease and every record of it.
    pub fn note_fail(&mut self, s: SnodeId) {
        self.leases.release(s);
    }

    /// Injects a **silent** stall: the data on `s` is unreachable but no
    /// crash notification ever arrives — the only signal is that `s`
    /// stops renewing. Failover happens via lease expiry, not here.
    pub fn inject_stall(&mut self, s: SnodeId) {
        self.leases.record(s).stalled = true;
    }

    /// Heals a stalled snode before its lease lapses (it resumes
    /// renewing on the next tick).
    pub fn heal(&mut self, s: SnodeId) {
        self.leases.record(s).stalled = false;
    }

    /// Degrades `s`'s effective capacity to `factor` of its declared
    /// basis (0 < factor ≤ 1) — the deterministic hot-spot injection: the
    /// node keeps its quota but can only honestly serve a fraction.
    pub fn degrade(&mut self, s: SnodeId, factor: f64) {
        self.leases.record(s).factor = Some(factor.clamp(0.01, 1.0));
    }

    /// A failover the executor could not perform (it would have emptied
    /// the DHT): push the holder's expiry out one TTL so the tick
    /// re-emits it later instead of looping every window.
    pub fn defer(&mut self, s: SnodeId, now: SimTime) {
        self.leases.renew(s, now);
    }

    /// Checks lease safety against the engine's per-snode index (see
    /// [`LeaseTable::verify`]).
    pub fn verify(
        &self,
        snode_count: usize,
        hosted: impl Fn(SnodeId) -> usize,
    ) -> Result<(), String> {
        self.leases.verify(snode_count, hosted)
    }

    /// The capacity-weighted overload factor of every loaded snode, in
    /// snode order: `quota / (effective_capacity / Σ effective_capacity)`.
    /// 1.0 is a perfectly fair node; [`RouterConfig::hot_threshold`]
    /// flags.
    pub fn overloads(&self, loads: &[SnodeLoad]) -> Vec<(SnodeId, f64)> {
        let loads = by_snode(loads);
        let eff: Vec<f64> = self
            .leases
            .joined(&loads)
            .map(|(l, record)| {
                let declared = record.and_then(|r| r.declared);
                declared.unwrap_or_else(|| f64::from(l.vnodes.max(1)))
                    * record.and_then(|r| r.factor).unwrap_or(1.0)
            })
            .collect();
        let total: f64 = eff.iter().sum();
        if total <= 0.0 {
            return Vec::new();
        }
        loads
            .iter()
            .zip(eff)
            .map(|(l, eff)| {
                let fair = eff / total;
                (l.snode, if fair > 0.0 { l.quota / fair } else { f64::INFINITY })
            })
            .collect()
    }

    /// One control-plane window on the deterministic clock: healthy
    /// holders renew, lapsed leases become [`RouteAction::Failover`]s,
    /// and hot snodes (judged on `loads`) shed toward the coldest peer.
    /// Records and loads are walked side by side in snode order, O(S);
    /// the report's vnode counts are the holders' `loads` entries. The
    /// caller executes the actions and reports back through `note_fail`
    /// / `note_remove` / `note_join`.
    pub fn tick(&mut self, now: SimTime, loads: &[SnodeLoad]) -> TickReport {
        self.totals.ticks += 1;
        let mut report = TickReport::default();
        let loads = by_snode(loads);

        // 1. Renewal and expiry: every holder that is not stalled re-ups,
        //    so only a stalled one can lapse. Its record stays until the
        //    executor confirms with `note_fail` (or defers). Failovers
        //    are counted where they are pushed — never as
        //    `actions.len()`, which silently absorbs any action pushed
        //    later in the tick (the hot-spot moves of step 3).
        let ttl = self.cfg.lease_ttl;
        let mut stalled = Vec::new();
        let mut load = loads.iter().peekable();
        for (s, lease) in self.leases.records_mut() {
            while load.next_if(|l| l.snode < s).is_some() {}
            if lease.stalled {
                stalled.push(s);
            }
            let Some(expires_at) = &mut lease.expires_at else { continue };
            let vnodes = load.peek().filter(|l| l.snode == s).map_or(0, |l| u64::from(l.vnodes));
            if !lease.stalled {
                *expires_at = now + ttl;
                report.renewed += vnodes;
            } else if *expires_at <= now {
                report.expired += vnodes;
                report.actions.push(RouteAction::Failover { snode: s });
                self.totals.failovers += 1;
            }
        }
        self.totals.leases_renewed += report.renewed;
        self.totals.leases_expired += report.expired;

        // 2. Hot-spot detection on capacity-weighted overload. Stalled
        //    snodes (every one failing over among them) are the failover
        //    path's problem; the coldest peer is the least loaded of the
        //    rest. A hot snode's streak grows, every other one resets.
        let (mut hot, calm): (Vec<_>, Vec<_>) = self
            .overloads(&loads)
            .into_iter()
            .filter(|(s, _)| stalled.binary_search(s).is_err())
            .partition(|&(_, o)| o > self.cfg.hot_threshold);
        let coldest =
            calm.iter().min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0))).map(|&(s, _)| s);
        report.hot = hot.iter().map(|(s, _)| *s).collect();
        for &s in &report.hot {
            self.leases.record(s);
        }
        for (s, lease) in self.leases.records_mut() {
            lease.streak = match report.hot.binary_search(&s) {
                Ok(_) => lease.streak + 1,
                Err(_) => 0,
            };
        }

        // 3. Shedding: hottest first, bounded per tick, each toward the
        //    coldest peer (if any colder node exists to grow).
        hot.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        for &(s, _) in hot
            .iter()
            .filter(|&&(s, _)| self.leases.get(s).is_some_and(|l| l.streak >= self.cfg.hot_streak))
            .take(self.cfg.max_moves_per_tick)
        {
            report.actions.push(RouteAction::MoveVnode { from: s, to: coldest });
            self.totals.moves += 1;
        }

        // 4. Convergence bookkeeping: an episode opens on the first hot
        //    tick and closes on the first clear one.
        if report.hot.is_empty() {
            if let Some(onset) = self.hot_onset.take() {
                self.convergence.push(self.totals.ticks - onset);
            }
        } else {
            self.totals.hot_windows += 1;
            self.hot_onset.get_or_insert(self.totals.ticks);
        }
        report
    }
}

/// `loads` in snode order — a published snapshot's already are, so only
/// an out-of-order caller's slice is copied.
fn by_snode(loads: &[SnodeLoad]) -> Cow<'_, [SnodeLoad]> {
    let mut loads = Cow::Borrowed(loads);
    if loads.windows(2).any(|w| w[0].snode > w[1].snode) {
        loads.to_mut().sort_by_key(|l| l.snode);
    }
    loads
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::millis(v)
    }

    fn cfg() -> RouterConfig {
        RouterConfig { lease_ttl: ms(100), ..Default::default() }
    }

    /// Even loads over `n` snodes, one vnode each.
    fn flat_loads(n: u32) -> Vec<SnodeLoad> {
        (0..n)
            .map(|s| SnodeLoad { snode: SnodeId(s), vnodes: 1, quota: 1.0 / f64::from(n) })
            .collect()
    }

    fn join_fleet(r: &mut Router, n: u32, now: SimTime) {
        for s in 0..n {
            r.note_capacity(SnodeId(s), 1);
            r.note_join(VnodeId(s), SnodeId(s), now);
        }
    }

    #[test]
    fn healthy_fleet_renews_and_never_fails_over() {
        let mut r = Router::new(cfg());
        join_fleet(&mut r, 4, ms(0));
        for w in 1..=10u64 {
            let rep = r.tick(ms(w * 60), &flat_loads(4));
            assert!(rep.actions.is_empty(), "window {w}: no action expected");
            assert_eq!(rep.renewed, 4);
            assert_eq!(rep.expired, 0);
        }
        assert_eq!(r.totals().failovers, 0);
        assert_eq!(r.worst_convergence(), 0);
    }

    #[test]
    fn a_silent_stall_fails_over_exactly_after_the_ttl() {
        let mut r = Router::new(cfg()); // ttl 100ms, windows every 60ms
        join_fleet(&mut r, 4, ms(0));
        r.inject_stall(SnodeId(2));
        // 60ms: lease (expires at 100ms) still valid — no action.
        assert!(r.tick(ms(60), &flat_loads(4)).actions.is_empty());
        // 120ms: lapsed. Exactly one failover, naming the stalled snode.
        let rep = r.tick(ms(120), &flat_loads(4));
        assert_eq!(rep.actions, vec![RouteAction::Failover { snode: SnodeId(2) }]);
        assert_eq!(rep.expired, 1);
        // The executor confirms; the lease table is clean again.
        r.note_fail(SnodeId(2));
        r.verify(3, |s| usize::from(s != SnodeId(2))).unwrap();
        assert!(r.tick(ms(180), &flat_loads(3)).actions.is_empty());
        assert_eq!(r.totals().failovers, 1);
        assert_eq!(r.totals().leases_expired, 1);
    }

    #[test]
    fn healing_before_expiry_cancels_the_failover() {
        let mut r = Router::new(cfg());
        join_fleet(&mut r, 3, ms(0));
        r.inject_stall(SnodeId(1));
        assert!(r.tick(ms(60), &flat_loads(3)).actions.is_empty());
        r.heal(SnodeId(1)); // resumes renewing at the 99ms tick
        assert!(r.tick(ms(99), &flat_loads(3)).actions.is_empty());
        assert!(r.tick(ms(160), &flat_loads(3)).actions.is_empty());
        assert_eq!(r.totals().failovers, 0);
    }

    #[test]
    fn a_degraded_snode_goes_hot_and_sheds_until_converged() {
        let mut r = Router::new(RouterConfig { max_moves_per_tick: 1, ..cfg() });
        join_fleet(&mut r, 5, ms(0));
        r.degrade(SnodeId(0), 0.25); // serves 1/5 quota on 1/4 capacity → ~4.2× fair
                                     // Window 1: flagged, one shed ordered toward the coldest peer.
        let rep = r.tick(ms(60), &flat_loads(5));
        assert_eq!(rep.hot, vec![SnodeId(0)]);
        assert_eq!(rep.actions.len(), 1);
        let RouteAction::MoveVnode { from, to } = rep.actions[0].clone() else {
            panic!("expected a move, got {:?}", rep.actions[0]);
        };
        assert_eq!(from, SnodeId(0));
        assert!(to.is_some_and(|s| s != SnodeId(0)));
        // The executor sheds: snode 0's quota drops to a fair share of
        // its *effective* capacity. Feed the post-move loads back in.
        let mut loads = flat_loads(5);
        loads[0].quota = 0.04;
        for l in &mut loads[1..] {
            l.quota = 0.24;
        }
        let rep = r.tick(ms(120), &loads);
        assert!(rep.hot.is_empty(), "after shedding the episode must close");
        assert!(rep.actions.is_empty());
        assert!(!r.unconverged());
        assert_eq!(r.convergence_windows(), &[1], "onset→cleared took one window");
        assert_eq!(r.totals().moves, 1);
        assert_eq!(r.totals().hot_windows, 1);
    }

    #[test]
    fn worst_convergence_counts_an_open_episode() {
        let mut r = Router::new(cfg());
        join_fleet(&mut r, 4, ms(0));
        r.degrade(SnodeId(3), 0.1);
        for w in 1..=3u64 {
            let rep = r.tick(ms(w * 60), &flat_loads(4));
            assert!(rep.hot.contains(&SnodeId(3)));
        }
        assert!(r.unconverged());
        assert_eq!(r.worst_convergence(), 3);
    }

    #[test]
    fn a_stalled_snode_lapses_at_its_earliest_grant() {
        let mut r = Router::new(cfg()); // ttl 100ms
        join_fleet(&mut r, 3, ms(0));
        // A later grant never extends a lease: snode 2 still lapses at
        // 100ms, when its first vnode's lease would.
        r.note_join(VnodeId(10), SnodeId(2), ms(50));
        r.inject_stall(SnodeId(2));
        // The 60ms tick renews snodes 0 and 1 to 160ms.
        assert!(r.tick(ms(60), &flat_loads(3)).actions.is_empty());
        // A grant stamped behind the last renewal (the driver grants a
        // hot-spot move's new vnode at its event clock, before the tick's
        // end) pulls snode 1's expiry back to 130ms.
        r.note_join(VnodeId(11), SnodeId(1), ms(30));
        r.inject_stall(SnodeId(1));
        let mut loads = flat_loads(3);
        loads[1].vnodes = 2;
        loads[2].vnodes = 2;
        let rep = r.tick(ms(100), &loads);
        assert_eq!(rep.actions, vec![RouteAction::Failover { snode: SnodeId(2) }]);
        assert_eq!(rep.expired, 2);
        r.note_fail(SnodeId(2));
        loads.pop();
        assert!(r.tick(ms(129), &loads).actions.is_empty());
        let rep = r.tick(ms(130), &loads);
        assert_eq!(rep.actions, vec![RouteAction::Failover { snode: SnodeId(1) }]);
        assert_eq!(rep.expired, 2);
    }

    #[test]
    fn lapses_in_one_tick_fail_over_in_snode_order() {
        let mut r = Router::new(cfg());
        // Snode 3 holds the lowest vnode handle; the order is by snode.
        for (v, s) in [(0, 3), (1, 3), (2, 3), (3, 0), (4, 1), (5, 1), (6, 2)] {
            r.note_join(VnodeId(v), SnodeId(s), ms(0));
        }
        r.inject_stall(SnodeId(3));
        r.inject_stall(SnodeId(1));
        let vnodes = [1, 2, 1, 3];
        let loads: Vec<SnodeLoad> = (0..4u32)
            .map(|s| SnodeLoad { snode: SnodeId(s), vnodes: vnodes[s as usize], quota: 0.25 })
            .collect();
        let rep = r.tick(ms(100), &loads);
        assert_eq!(
            rep.actions,
            vec![
                RouteAction::Failover { snode: SnodeId(1) },
                RouteAction::Failover { snode: SnodeId(3) }
            ]
        );
        assert_eq!(rep.expired, 2 + 3, "the lapsed snodes' load vnode counts");
        assert_eq!(rep.renewed, 1 + 1);
        assert_eq!(r.totals().failovers, 2);
    }

    #[test]
    fn a_graceful_last_leave_forgets_the_snode() {
        let mut r = Router::new(cfg());
        join_fleet(&mut r, 3, ms(0));
        r.degrade(SnodeId(0), 0.1);
        assert_eq!(r.tick(ms(60), &flat_loads(3)).hot, vec![SnodeId(0)]);
        r.inject_stall(SnodeId(0));
        let kept = *r.leases.get(SnodeId(0)).expect("snode 0 has a record");
        assert!(kept.stalled && kept.streak == 1 && kept.factor.is_some());
        // A leave that leaves a vnode behind keeps the record...
        r.note_remove(SnodeId(0), 1);
        assert_eq!(r.leases.get(SnodeId(0)), Some(&kept));
        // ...the last one forgets capacity, degradation, stall and streak.
        r.note_remove(SnodeId(0), 0);
        assert!(r.leases.get(SnodeId(0)).is_none());
        assert_eq!(r.leases().len(), 2);
        // Rejoining, snode 0 starts clean: renewing, fair and cold.
        r.note_join(VnodeId(9), SnodeId(0), ms(70));
        let rep = r.tick(ms(120), &flat_loads(3));
        assert!(rep.actions.is_empty() && rep.hot.is_empty());
        assert_eq!(rep.renewed, 3);
        assert!(r.overloads(&flat_loads(3)).iter().all(|&(_, o)| (o - 1.0).abs() < 1e-12));
    }

    #[test]
    fn moves_are_bounded_per_tick() {
        let mut r = Router::new(RouterConfig { max_moves_per_tick: 2, ..cfg() });
        join_fleet(&mut r, 8, ms(0));
        for s in 0..4u32 {
            r.degrade(SnodeId(s), 0.2);
        }
        let rep = r.tick(ms(60), &flat_loads(8));
        assert_eq!(rep.hot.len(), 4, "all four degraded snodes are hot");
        assert_eq!(rep.actions.len(), 2, "but only two moves per tick");
    }
}
