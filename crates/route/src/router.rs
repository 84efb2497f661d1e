//! The control-plane state machine: lease renewal, silent-failure
//! failover, and capacity-weighted hot-spot scheduling.
//!
//! A [`Router`] owns no data plane. It watches membership (the driver
//! notifies it of joins/leaves/crashes), keeps the lease table,
//! and once per window — one deterministic [`Router::tick`] on the sim
//! clock — decides what should move:
//!
//! * **Failover.** Healthy snodes renew their leases every tick; a
//!   stalled snode silently stops. When its leases lapse, the tick
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

use crate::lease::LeaseTable;
use domus_core::{SnodeId, SnodeLoad, VnodeId};
use domus_sim::SimTime;
use std::collections::{BTreeMap, BTreeSet};

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
    /// A holder's leases lapsed: tear its vnodes down as a crash (the
    /// node is unreachable — its data plane cannot be drained
    /// gracefully) and let repair re-replicate.
    Failover {
        /// The silent snode.
        snode: SnodeId,
        /// The vnodes its lapsed leases covered.
        vnodes: Vec<VnodeId>,
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
    /// Decisions for the executor, failovers first.
    pub actions: Vec<RouteAction>,
    /// Leases renewed this tick (healthy holders).
    pub renewed: u64,
    /// Leases that lapsed this tick (the failover worklist).
    pub expired: u64,
    /// Snodes over the hot threshold this tick.
    pub hot: Vec<SnodeId>,
}

/// Lifetime totals of one router (monotone; sample per window and diff).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterTotals {
    /// Ticks run.
    pub ticks: u64,
    /// Leases renewed by healthy holders (over all ticks).
    pub leases_renewed: u64,
    /// Leases that lapsed (over all ticks).
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
    leases: LeaseTable,
    /// Capacity each snode declared when it joined (its initial vnode
    /// enrollment) — the fixed basis hot-spot decisions are weighted by.
    declared: BTreeMap<SnodeId, f64>,
    /// Effective-capacity factor (1.0 = healthy; a degraded node serves
    /// the same quota on less machine, inflating its overload).
    factor: BTreeMap<SnodeId, f64>,
    /// Snodes injected as silently stalled: they stop renewing.
    stalled: BTreeSet<SnodeId>,
    /// Consecutive hot ticks per snode.
    streaks: BTreeMap<SnodeId, u32>,
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
            declared: BTreeMap::new(),
            factor: BTreeMap::new(),
            stalled: BTreeSet::new(),
            streaks: BTreeMap::new(),
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
        self.declared.entry(s).or_insert(f64::from(vnodes.max(1)));
    }

    /// A vnode came up on `s`: grant its lease.
    pub fn note_join(&mut self, v: VnodeId, s: SnodeId, now: SimTime) {
        self.note_capacity(s, 1);
        self.leases.grant(v, s, now);
    }

    /// A vnode left gracefully: release its lease (and forget the snode
    /// entirely once its last vnode is gone).
    pub fn note_remove(&mut self, v: VnodeId) {
        if let Some(lease) = self.leases.release(v) {
            self.forget_if_empty(lease.holder);
        }
    }

    /// Drops a snode's capacity/stall/streak records once its last lease
    /// is gone — a departed node must not skew the fairness denominator.
    fn forget_if_empty(&mut self, s: SnodeId) {
        if !self.leases.iter().any(|(_, l)| l.holder == s) {
            self.declared.remove(&s);
            self.factor.remove(&s);
            self.stalled.remove(&s);
            self.streaks.remove(&s);
        }
    }

    /// A snode crashed (explicitly, or a failover was executed): release
    /// everything it held and forget it.
    pub fn note_fail(&mut self, s: SnodeId) {
        self.leases.release_holder(s);
        self.declared.remove(&s);
        self.factor.remove(&s);
        self.stalled.remove(&s);
        self.streaks.remove(&s);
    }

    /// Injects a **silent** stall: the data on `s` is unreachable but no
    /// crash notification ever arrives — the only signal is that `s`
    /// stops renewing. Failover happens via lease expiry, not here.
    pub fn inject_stall(&mut self, s: SnodeId) {
        self.stalled.insert(s);
    }

    /// Heals a stalled snode before its leases lapse (it resumes
    /// renewing on the next tick).
    pub fn heal(&mut self, s: SnodeId) {
        self.stalled.remove(&s);
    }

    /// Degrades `s`'s effective capacity to `factor` of its declared
    /// basis (0 < factor ≤ 1) — the deterministic hot-spot injection: the
    /// node keeps its quota but can only honestly serve a fraction.
    pub fn degrade(&mut self, s: SnodeId, factor: f64) {
        self.factor.insert(s, factor.clamp(0.01, 1.0));
    }

    /// A failover the executor could not perform (it would have emptied
    /// the DHT): push the holder's expiry out one TTL so the tick
    /// re-emits it later instead of looping every window.
    pub fn defer(&mut self, s: SnodeId, now: SimTime) {
        self.leases.renew_holder(s, now);
    }

    /// Checks lease safety against the authoritative roster (see
    /// [`LeaseTable::verify`]).
    pub fn verify<I>(&self, roster: I) -> Result<(), String>
    where
        I: IntoIterator<Item = (VnodeId, SnodeId)>,
    {
        self.leases.verify(roster)
    }

    /// The capacity-weighted overload factor of every loaded snode:
    /// `quota / (effective_capacity / Σ effective_capacity)`. 1.0 is a
    /// perfectly fair node; [`RouterConfig::hot_threshold`] flags.
    pub fn overloads(&self, loads: &[SnodeLoad]) -> Vec<(SnodeId, f64)> {
        let eff = |l: &SnodeLoad| {
            let declared =
                self.declared.get(&l.snode).copied().unwrap_or_else(|| f64::from(l.vnodes.max(1)));
            declared * self.factor.get(&l.snode).copied().unwrap_or(1.0)
        };
        let total: f64 = loads.iter().map(eff).sum();
        if total <= 0.0 {
            return Vec::new();
        }
        loads
            .iter()
            .map(|l| {
                let fair = eff(l) / total;
                (l.snode, if fair > 0.0 { l.quota / fair } else { f64::INFINITY })
            })
            .collect()
    }

    /// One control-plane window on the deterministic clock: healthy
    /// holders renew, lapsed leases become [`RouteAction::Failover`]s,
    /// and hot snodes (judged on `loads`) shed toward the coldest peer.
    /// The caller executes the actions, then reports the outcomes back
    /// through `note_fail` / `note_remove` / `note_join`.
    pub fn tick(&mut self, now: SimTime, loads: &[SnodeLoad]) -> TickReport {
        self.totals.ticks += 1;
        let mut report = TickReport::default();

        // 1. Renewal: every holder that is not stalled re-ups. Checked
        //    conversions throughout: a silent `as u64` truncation here
        //    would corrupt every per-window reconciliation downstream.
        let holders: BTreeSet<SnodeId> = self.leases.iter().map(|(_, l)| l.holder).collect();
        for &s in holders.iter().filter(|s| !self.stalled.contains(s)) {
            let renewed = self.leases.renew_holder(s, now);
            report.renewed = report
                .renewed
                .checked_add(u64::try_from(renewed).expect("lease count fits u64"))
                .expect("renewal total overflow");
        }
        self.totals.leases_renewed += report.renewed;

        // 2. Expiry → failover. Leases stay in the table until the
        //    executor confirms with `note_fail` (or defers). Failovers
        //    are counted where they are pushed — never as
        //    `actions.len()`, which silently absorbs any action pushed
        //    later in the tick (the hot-spot moves of step 4).
        for s in self.leases.expired_holders(now) {
            let vnodes: Vec<VnodeId> =
                self.leases.iter().filter(|(_, l)| l.holder == s).map(|(v, _)| v).collect();
            report.expired = report
                .expired
                .checked_add(u64::try_from(vnodes.len()).expect("lease count fits u64"))
                .expect("expiry total overflow");
            report.actions.push(RouteAction::Failover { snode: s, vnodes });
            self.totals.failovers += 1;
        }
        self.totals.leases_expired += report.expired;

        // 3. Hot-spot detection on capacity-weighted overload. Stalled
        //    and expiring snodes are the failover path's problem.
        let skip: BTreeSet<SnodeId> = report
            .actions
            .iter()
            .filter_map(|a| match a {
                RouteAction::Failover { snode, .. } => Some(*snode),
                _ => None,
            })
            .chain(self.stalled.iter().copied())
            .collect();
        let overloads = self.overloads(loads);
        let mut hot: Vec<(SnodeId, f64)> = overloads
            .iter()
            .copied()
            .filter(|(s, o)| !skip.contains(s) && *o > self.cfg.hot_threshold)
            .collect();
        report.hot = hot.iter().map(|(s, _)| *s).collect();
        self.streaks.retain(|s, _| report.hot.contains(s));
        for &(s, _) in &hot {
            *self.streaks.entry(s).or_insert(0) += 1;
        }

        // 4. Shedding: hottest first, bounded per tick, each toward the
        //    coldest peer (if any colder node exists to grow).
        hot.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let coldest = overloads
            .iter()
            .copied()
            .filter(|(s, _)| !skip.contains(s) && !report.hot.contains(s))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
            .map(|(s, _)| s);
        for &(s, _) in hot
            .iter()
            .filter(|(s, _)| self.streaks.get(s).copied().unwrap_or(0) >= self.cfg.hot_streak)
            .take(self.cfg.max_moves_per_tick)
        {
            report.actions.push(RouteAction::MoveVnode { from: s, to: coldest });
            self.totals.moves += 1;
        }

        // 5. Convergence bookkeeping: an episode opens on the first hot
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
        assert_eq!(
            rep.actions,
            vec![RouteAction::Failover { snode: SnodeId(2), vnodes: vec![VnodeId(2)] }]
        );
        assert_eq!(rep.expired, 1);
        // The executor confirms; the lease table is clean again.
        r.note_fail(SnodeId(2));
        let roster = [0u32, 1, 3].map(|s| (VnodeId(s), SnodeId(s)));
        r.verify(roster).unwrap();
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
