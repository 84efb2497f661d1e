//! # domus-kv
//!
//! An in-memory key-value store layered on the DHT model — the downstream
//! application the paper's DHT exists to serve. Keys hash onto `R_h`
//! (FNV-1a + finalizer); entries live at the vnode owning the point;
//! every rebalancement event's partition transfers are replayed as data
//! migration, so placement stays consistent with routing through
//! arbitrary join/leave churn.
//!
//! * [`store`] — the single-threaded store + migration engine.
//! * [`replicated`] — R-way cluster-aware replication: distinct-snode
//!   placement, quorum reads, crash survival, event-driven repair.
//! * [`service`] — a `RwLock` façade: concurrent reads, exclusive
//!   maintenance.
//! * [`workload`] — uniform and Zipf key generators for experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bucket;
pub mod replicated;
pub mod service;
pub mod store;
pub mod workload;

pub use replicated::{CrashReport, QuorumRead, RepairReport, ReplicatedStore, RoutedQuorum};
pub use service::{KvService, RoutedGet};
pub use store::{KvStore, MigrationReport};
pub use workload::{UniformKeys, ZipfKeys};
