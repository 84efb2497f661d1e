//! # domus
//!
//! A cluster-oriented Distributed Hash Table with dynamic balancement
//! across heterogeneous nodes — a complete, from-scratch Rust
//! implementation of
//!
//! > J. Rufino, A. Alves, J. Exposto, A. Pina,
//! > *"A cluster oriented model for dynamically balanced DHTs"*,
//! > 18th International Parallel and Distributed Processing Symposium
//! > (IPDPS), 2004
//!
//! together with everything the paper's evaluation depends on: the
//! earlier *global* base model it extends, the Consistent Hashing
//! reference it compares against, a one-hop cluster cost simulator, and a
//! key-value store that exercises the DHT end to end.
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! name. Depend on `domus` and everything is in scope; or depend on the
//! individual `domus-*` crates for a narrower build.
//!
//! | Re-export | Crate | Contents |
//! |-----------|-------|----------|
//! | [`core`] | `domus-core` | the model: global + local approaches, invariants, heterogeneity, deletion |
//! | [`hashspace`] | `domus-hashspace` | splitlevel partition algebra, exact quotas, routing map |
//! | [`ch`] | `domus-ch` | Consistent Hashing baseline (Karger '97 / CFS) |
//! | [`sim`] | `domus-sim` | cluster network/cost simulator, protocol pricing, memory accounting |
//! | [`kv`] | `domus-kv` | key-value store with live data migration |
//! | [`route`] | `domus-route` | routing & failover control plane: versioned shard maps, leases, hot-spot scheduling |
//! | [`wal`] | `domus-wal` | durability tier: segmented write-ahead log + Merkle anti-entropy digests |
//! | [`churn`] | `domus-churn` | deterministic churn & failure scenario engine |
//! | [`metrics`] | `domus-metrics` | σ̄ metrics, run averaging, CSV/ASCII reporting |
//! | [`util`] | `domus-util` | deterministic RNG streams, power-of-two helpers |
//!
//! ## Quick start
//!
//! ```
//! use domus::prelude::*;
//!
//! // The paper's reference parameters are Pmin = Vmin = 32; small values
//! // keep the doctest fast.
//! let cfg = DhtConfig::new(HashSpace::new(32), 8, 4).unwrap();
//! let mut dht = LocalDht::with_seed(cfg, 2004);
//!
//! for snode in 0..12u32 {
//!     dht.create_vnode_with(SnodeId(snode), &mut NullSink).unwrap();
//! }
//!
//! // Quality of balancement, exactly as the paper measures it:
//! println!("σ̄(Qv) = {:.2}%", dht.vnode_quota_relstd_pct());
//! assert!(dht.check_invariants().is_ok());
//! ```
//!
//! The runnable examples (`cargo run --example quickstart`, `…
//! observer`, `… heterogeneous_cluster`, `… elastic_scaling`, `…
//! kv_store`, `… parallel_rebalance`) walk through the full API —
//! `observer` shows live consumption of the streaming
//! [`domus_core::RebalanceSink`] surface; the `repro` binary in
//! `domus-experiments` regenerates every figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use domus_ch as ch;
pub use domus_churn as churn;
pub use domus_core as core;
pub use domus_hashspace as hashspace;
pub use domus_kv as kv;
pub use domus_metrics as metrics;
pub use domus_route as route;
pub use domus_sim as sim;
pub use domus_util as util;
pub use domus_wal as wal;

/// The most common imports in one line: `use domus::prelude::*;`.
pub mod prelude {
    pub use domus_ch::{ChEngine, ChNodeId, ChRing};
    pub use domus_churn::{
        Capacity, ChurnDriver, ChurnEvent, DriverConfig, EventStream, Lifetime, Process, Scenario,
    };
    pub use domus_core::{
        BalanceSnapshot, Cluster, CollectReport, ContainerChoice, CountOnly, CreateOutcome,
        DhtConfig, DhtEngine, DhtError, EngineSnapshot, EnrollmentPolicy, FailOutcome, GlobalDht,
        GroupId, LocalDht, NullSink, OwnerSpan, Pdr, RebalanceEvent, RebalanceSink, RejoinOutcome,
        RemoveOutcome, RouteCounters, RouteStats, SnapshotBuilder, SnapshotCell, SnodeId,
        SnodeLoad, SplitSelection, Tee, VictimPartitionPolicy, VnodeId,
    };
    pub use domus_hashspace::{HashSpace, OwnerMap, Partition, Quota};
    pub use domus_kv::{
        CrashReport, KvService, KvStore, QuorumRead, RepairReport, ReplicatedStore, RoutedGet,
        RoutedQuorum, UniformKeys, ZipfKeys,
    };
    pub use domus_metrics::{rel_std_dev_pct, Series, Table, Welford};
    pub use domus_route::{
        Lease, LeaseTable, RouteAction, RouteCache, RouteVersion, Router, RouterConfig,
        RouterTotals, TickReport,
    };
    pub use domus_sim::{ClusterNet, CostModel, EventPricer, SimDriver, SimTime};
    pub use domus_util::{DomusRng, SeedSequence, SplitMix64, Xoshiro256pp};
    pub use domus_wal::{DigestTree, SegmentedWal, WalRecord};
}
