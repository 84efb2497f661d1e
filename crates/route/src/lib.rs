//! # domus-route
//!
//! The dynamic routing & failover **control plane** over the domus DHT —
//! the part of the system that decides *where vnodes should live* when
//! snodes fail silently or load concentrates, layered strictly on top of
//! the `DhtEngine` trait and the `domus-core::serve` serving plane
//! (nothing here touches engine internals).
//!
//! Three pieces, one per module:
//!
//! | Module | Type | Role |
//! |--------|------|------|
//! | [`table`] | [`RouteVersion`] / [`RouteCache`] | shard-map versions; client caches with ≤1-round stale repair |
//! | [`lease`] | [`Lease`] / [`LeaseTable`] | one expiring lease per snode on a deterministic sim clock |
//! | [`router`] | [`Router`] | the per-window tick: renewal, failover, hot-spot scheduling |
//!
//! ## The model in one paragraph
//!
//! Every published `EngineSnapshot` epoch *is* a route version
//! ([`RouteVersion`]); clients pin a version in a [`RouteCache`] and
//! repair staleness in at most one refresh per epoch. Every snode that
//! hosts a vnode holds exactly one [`Lease`], which covers every vnode
//! the engine's per-snode index lists for it; healthy snodes renew each
//! [`Router::tick`], silent ones stop, and a lapsed lease
//! becomes a [`RouteAction::Failover`] that the executor drives through
//! the ordinary `fail_snode` + repair machinery — so at `R ≥ 2` a
//! silently-stalled snode loses zero keys. Per-window `SnodeLoad`s are
//! weighted by declared capacity; a snode serving more than
//! `hot_threshold ×` its fair share is hot and sheds one vnode per tick
//! ([`RouteAction::MoveVnode`]) toward the coldest peer until the
//! imbalance is bounded again.
//!
//! ## Quick start
//!
//! ```
//! use domus_core::{DhtConfig, DhtEngine, LocalDht, SnapshotBuilder, SnapshotCell, SnodeId};
//! use domus_hashspace::HashSpace;
//! use domus_route::{RouteCache, RouteVersion, Router, RouterConfig};
//! use domus_sim::SimTime;
//! use std::sync::Arc;
//!
//! let cfg = DhtConfig::new(HashSpace::new(32), 4, 2).unwrap();
//! let mut dht = LocalDht::with_seed(cfg, 2004);
//! let mut router = Router::new(RouterConfig::default());
//! let mut builder = SnapshotBuilder::new(dht.config().hash_space());
//! for s in 0..4u32 {
//!     let out = dht.create_vnode_with(SnodeId(s), &mut builder).unwrap();
//!     builder.note_create(out.vnode, SnodeId(s));
//!     router.note_join(out.vnode, SnodeId(s), SimTime::ZERO);
//! }
//! let cell = Arc::new(SnapshotCell::new(builder.snapshot()));
//!
//! // Clients route through the pinned snapshot / a cache of it…
//! let snap = cell.load();
//! assert_eq!(snap.snode_count(), 4);
//! let mut cache = RouteCache::new(Arc::clone(&cell));
//! assert_eq!(cache.lookup(42), snap.lookup(42));
//! assert_eq!(cache.version(), RouteVersion(snap.epoch()));
//!
//! // …while the control plane ticks the lease clock per window.
//! let report = router.tick(SimTime::millis(30_000), snap.loads());
//! assert!(report.actions.is_empty(), "healthy fleet: nothing to do");
//! assert_eq!(report.renewed, 4);
//! ```
//!
//! The `ChurnDriver` in `domus-churn` embeds all of this behind
//! `with_router`; the `repro churn-route` experiment and
//! `examples/failover.rs` show the full loop end to end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lease;
pub mod router;
pub mod table;

pub use lease::{Lease, LeaseTable};
pub use router::{RouteAction, Router, RouterConfig, RouterTotals, TickReport};
pub use table::{RouteCache, RouteVersion};
