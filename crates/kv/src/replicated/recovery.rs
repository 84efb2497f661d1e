//! Crash and recovery: ungraceful snode failure and WAL-replay rejoin.

use super::{RepairReport, ReplicatedStore};
use bytes::Bytes;
use domus_core::{DhtEngine, DhtError, NullSink, RebalanceSink, SnodeId, VnodeId};
use domus_hashspace::Partition;
use domus_wal::WalRecord;
use std::collections::BTreeMap;

/// What one [`ReplicatedStore::fail_snode_with`] crash did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrashReport {
    /// Vnodes of the failed snode torn down.
    pub vnodes_failed: usize,
    /// Always empty: a migration keeps the vnode's handle. Kept until the
    /// benchmark stops reading it.
    pub renames: Vec<(VnodeId, VnodeId)>,
    /// Replica copies destroyed with the snode.
    pub copies_destroyed: u64,
    /// Keys whose **last** copy was destroyed — unrecoverable. Zero
    /// whenever `R ≥ 2` copies existed and at most this one snode was
    /// lost since the last repair.
    pub keys_lost: u64,
    /// Surviving copies relocated onto their new replica chains.
    pub copies_relocated: u64,
}

/// What one [`ReplicatedStore::rejoin_snode`] crash-recovery did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RejoinReport {
    /// Fresh vnodes the snode was re-enrolled with (its count at crash
    /// time).
    pub vnodes: usize,
    /// The re-enrolled vnodes' fresh handles, in creation order.
    pub handles: Vec<VnodeId>,
    /// WAL records scanned during replay (puts, removes, placements).
    pub wal_records: u64,
    /// Framed WAL bytes scanned during replay.
    pub wal_bytes: u64,
    /// Keys restored by replay: present in the log's final state but
    /// absent from every live replica — the copies a digest-less rebuild
    /// could never get back.
    pub recovered: u64,
    /// Records unreadable due to a framing error (torn frame stops the
    /// replay; always 0 for the in-process log).
    pub torn: u64,
    /// The in-line rebuild of the ranges the re-enrolment touched.
    pub repair: RepairReport,
}

impl<E: DhtEngine> ReplicatedStore<E> {
    /// Crashes a snode: its slots are destroyed (not migrated), the
    /// engine absorbs the membership change, and surviving copies are
    /// relocated onto the new replica chains *without re-replicating* —
    /// the touched ranges stay pending until [`ReplicatedStore::repair`].
    pub fn fail_snode(&mut self, s: SnodeId) -> Result<CrashReport, DhtError> {
        self.fail_snode_with(s, &mut NullSink)
    }

    /// [`ReplicatedStore::fail_snode`], forwarding every rebalance event
    /// to `sink`.
    pub fn fail_snode_with(
        &mut self,
        s: SnodeId,
        sink: &mut dyn RebalanceSink,
    ) -> Result<CrashReport, DhtError> {
        // Absorb the membership change first: the engine call is the only
        // fallible step — it checks its preconditions (`EmptySnode`,
        // `LastVnode`) before anything mutates — and the store holds no
        // in-line migration (the tap just collects ranges), so a refused
        // crash destroys nothing.
        let space = self.space();
        let (outcome, mut touched) = self.drive(sink, |e, tap| e.fail_snode(s, tap))?;
        let victims = outcome.vnodes;

        // The crash proper: every in-memory copy the snode held is gone
        // (and so are its bucket digests) — but its WAL survives: the
        // log models the disk, which is exactly what a later
        // `rejoin_snode` replays. Remember the vnode count so the
        // rejoin re-enrols at the same size.
        self.crashed.insert(s, victims.len());
        let mut doomed: Vec<(u64, Bytes)> = Vec::new();
        for &v in &victims {
            doomed.extend(self.slots.drain_slot(v));
        }

        // Every doomed copy marks a range that lost redundancy — including
        // ranges where the snode was only a follower, which no transfer
        // touches (their primaries survived). One range per *partition*
        // holding doomed copies (each victim's points ascend, so memoize
        // the lookup; repeats across victims coalesce in `replace`), not
        // one per copy — the backward horizon walk runs per range.
        let mut memo: Option<Partition> = None;
        for &(point, _) in &doomed {
            if !matches!(&memo, Some(p) if p.contains(point, space)) {
                let (p, _) = self.engine.lookup(point).expect("routing is total");
                memo = Some(p);
                touched.push((p.start(space), p.end(space)));
            }
        }

        // Relocate survivors without re-replicating: the ranges stay
        // pending until `repair`.
        let copies_relocated = self.replace(touched, false).copies_placed;

        // Exact loss accounting: a doomed key is lost iff no copy survived
        // anywhere. Relocation already re-placed every survivor on a
        // placement-order prefix of its chain, so the primary alone
        // decides — one memoized lookup per partition, no successor walks.
        let mut keys_lost = 0u64;
        let mut primary: Option<(Partition, VnodeId)> = None;
        for (point, key) in &doomed {
            if !matches!(&primary, Some((p, _)) if p.contains(*point, space)) {
                primary = Some(self.engine.lookup(*point).expect("routing is total"));
            }
            let owner = primary.as_ref().expect("memoized above").1;
            keys_lost += u64::from(self.slots.probe(owner, *point, key).is_none());
        }
        self.keys -= keys_lost;

        Ok(CrashReport {
            vnodes_failed: victims.len(),
            renames: Vec::new(),
            copies_destroyed: doomed.len() as u64,
            keys_lost,
            copies_relocated,
        })
    }

    /// Re-enrols a crashed snode and **replays its write-ahead log**:
    /// the control plane gets `vnodes` fresh vnodes (the count at crash
    /// time) via [`DhtEngine::rejoin_snode`], the ranges that touched
    /// are rebuilt in-line, and the log's final state is folded back in
    /// — a key absent from every live replica is restored (the `R = 1`
    /// crash-loss class), a key still live is *re-homed* onto its
    /// current primary's log so the rejoined log can checkpoint and
    /// truncate without weakening durability.
    ///
    /// Fails with [`DhtError::EmptySnode`] when `s` was never crashed
    /// (or already rejoined) — there is nothing to replay.
    pub fn rejoin_snode(&mut self, s: SnodeId) -> Result<RejoinReport, DhtError> {
        self.rejoin_snode_with(s, &mut NullSink)
    }

    /// [`ReplicatedStore::rejoin_snode`], forwarding every rebalance
    /// event to `sink`.
    pub fn rejoin_snode_with(
        &mut self,
        s: SnodeId,
        sink: &mut dyn RebalanceSink,
    ) -> Result<RejoinReport, DhtError> {
        let Some(&vnodes) = self.crashed.get(&s) else {
            return Err(DhtError::EmptySnode(s));
        };
        // Control plane first: re-enrol, and rebuild the touched ranges
        // in-line exactly like a join (these are fresh vnodes pulling
        // partitions — full re-replication of what they now own). A
        // re-enrolment that fails midway keeps the snode listed as
        // crashed, its vnodes still owed.
        let (outcome, touched) = self.drive(sink, |e, tap| e.rejoin_snode(s, vnodes, tap))?;
        self.crashed.remove(&s);
        let repair = self.replace(touched, true);

        // Replay: fold the log into its final per-key state.
        let mut report = RejoinReport {
            vnodes: outcome.vnodes.len(),
            handles: outcome.vnodes,
            repair,
            ..RejoinReport::default()
        };
        let mut state: BTreeMap<Bytes, Option<Bytes>> = BTreeMap::new();
        let wal = self.wals.entry(s).or_default();
        report.wal_bytes = wal.bytes() as u64;
        let pre_seq = wal.next_seq();
        for item in wal.replay() {
            let Ok((_, record)) = item else {
                report.torn += 1;
                break;
            };
            report.wal_records += 1;
            match record {
                WalRecord::Put { key, value } => state.insert(key, Some(value)),
                WalRecord::Remove { key } => state.insert(key, None),
                WalRecord::Placement { .. } => None,
            };
        }
        for (key, value) in state {
            let Some(value) = value else { continue };
            match self.get(&key) {
                // Absent everywhere: the crash destroyed the last
                // in-memory copy — only the log still has it. Restore.
                None => {
                    self.put(key, value);
                    report.recovered += 1;
                }
                // Still live: make the current primary's log the durable
                // home (current value, not the possibly stale replayed
                // one) so truncating the rejoined log loses nothing.
                // When the primary is `s` itself the append lands at a
                // sequence number past `pre_seq`, so it survives the
                // checkpoint below.
                Some(current) => {
                    let home = self.route(&key).and_then(|v| self.engine.snode_of(v).ok());
                    if let Some(home) = home {
                        let record = WalRecord::Put { key, value: current };
                        self.wals.entry(home).or_default().append(&record);
                    }
                }
            }
        }
        // Everything below `pre_seq` is now either restored into live
        // (and re-logged) state or re-homed: checkpoint, letting whole
        // segments truncate.
        if let Some(wal) = self.wals.get_mut(&s) {
            wal.checkpoint(pre_seq);
        }
        Ok(report)
    }
}
