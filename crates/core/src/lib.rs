//! # domus-core
//!
//! A cluster-oriented Distributed Hash Table with dynamic balancement
//! across heterogeneous nodes — a from-scratch implementation of
//!
//! > J. Rufino, A. Alves, J. Exposto, A. Pina, *"A cluster oriented model
//! > for dynamically balanced DHTs"*, IPDPS 2004,
//!
//! covering both the **global approach** (the base model of the authors'
//! earlier PDCN'04 paper, summarised in §2) and the **local approach**
//! (this paper's contribution, §3), plus a deletion extension that makes
//! the model fully elastic.
//!
//! ## Model in one paragraph
//!
//! The hash range `R_h = [0, 2^Bh)` is tiled by power-of-two-sized
//! *partitions*; *vnodes* own between `Pmin` and `2·Pmin` partitions each
//! and *snodes* (one per cluster node) host vnodes in proportion to the
//! resources the node enrolls. Creating a vnode triggers a greedy handover
//! of partitions from the most-loaded vnodes — globally (one GPDR, serial,
//! exact) or within a bounded *group* of `Vmin..2·Vmin` vnodes (LPDRs,
//! parallel, slightly less exact). Groups split when full, inheriting
//! binary-prefix identifiers, so the structure needs no central
//! coordination.
//!
//! ## Crate map
//!
//! | Module | Paper section | Contents |
//! |--------|---------------|----------|
//! | [`config`] | §2.2, §3.3, §4.1.2 | `Pmin`/`Vmin` parameters and policies |
//! | [`ids`] | §2.1 | snode/vnode identifiers, canonical names |
//! | [`group_id`] | §3.7.1 | decentralized binary-prefix group identifiers |
//! | [`record`] | §2.1.4, §3.2 | GPDR/LPDR tables |
//! | [`balance`] | §2.5 | the greedy reassignment kernel + cascades |
//! | [`global`] | §2 | the one-region policy: [`GlobalDht`] |
//! | [`local`] | §3 | the balanced engine over a region policy; the group policy: [`LocalDht`], group split, victim selection |
//! | `deletion` | extension | vnode removal, group merges, migration |
//! | [`cluster`] | §1, §2.1.2 | heterogeneous enrollment on any engine |
//! | [`invariants`] | §2.2, §3.3 | exhaustive invariant checker |
//! | [`engine`] | — | the [`DhtEngine`] trait + operation reports |
//! | [`serve`] | — | the concurrent serving plane: epoch snapshots |
//! | [`stats`] | §4.3 | per-snode quota metrics |
//!
//! ## Quick start
//!
//! ```
//! use domus_core::{DhtConfig, LocalDht, DhtEngine, NullSink, SnodeId};
//! use domus_hashspace::HashSpace;
//!
//! // The paper's reference parameterization is Pmin = Vmin = 32; use a
//! // smaller DHT here to keep the doctest fast.
//! let cfg = DhtConfig::new(HashSpace::new(32), 8, 4).unwrap();
//! let mut dht = LocalDht::with_seed(cfg, 0xD0);
//!
//! // Three cluster nodes enroll four vnodes each.
//! for round in 0..4 {
//!     for snode in 0..3 {
//!         dht.create_vnode_with(SnodeId(snode), &mut NullSink).unwrap();
//!     }
//!     let _ = round;
//! }
//!
//! // Every point of the hash range routes to exactly one vnode...
//! let (partition, owner) = dht.lookup(0xDEAD_BEEF).unwrap();
//! assert!(dht.partitions_of(owner).unwrap().contains(&partition));
//! // ...and the quality of balancement is the paper's σ̄(Qv) metric.
//! assert!(dht.vnode_quota_relstd_pct() < 40.0);
//! # dht.check_invariants().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balance;
pub mod cluster;
pub mod config;
mod deletion;
pub mod engine;
pub mod errors;
pub mod global;
pub mod group_id;
pub mod ids;
pub mod invariants;
pub mod ledger;
pub mod local;
pub mod record;
pub mod serve;
pub mod sink;
pub mod state;
pub mod stats;

pub use cluster::{Cluster, EnrollmentPolicy};
pub use config::{ContainerChoice, DhtConfig, SplitSelection, VictimPartitionPolicy};
pub use engine::{
    CreateOutcome, CreateReport, DhtEngine, FailOutcome, GroupSplit, RejoinOutcome, RemoveOutcome,
    RemoveReport, Transfer,
};
pub use errors::DhtError;
pub use global::GlobalDht;
pub use group_id::GroupId;
pub use ids::{CanonicalName, SnodeId, VnodeId};
pub use invariants::InvariantViolation;
pub use ledger::{SnodeLedger, SnodeShare};
pub use local::{ideal_group_count, LocalDht};
pub use record::{Pdr, PdrEntry};
pub use serve::{
    EngineSnapshot, OwnerSpan, RouteCounters, RouteStats, SnapshotBuilder, SnapshotCell, SnodeLoad,
};
pub use sink::{
    CollectReport, CountOnly, LedgeredSink, NullSink, RebalanceEvent, RebalanceSink, Tee,
};
pub use stats::{snode_quota_relstd_pct, snode_quotas, BalanceSnapshot};
