//! # domus-churn
//!
//! A deterministic churn & failure scenario engine for the `domus` DHT
//! workspace.
//!
//! The paper evaluates its cluster model under monotone growth and shrink
//! sequences; its central claim, however — that group-local balancing
//! keeps the DHT balanced *dynamically* — is a claim about behaviour
//! under sustained, interleaved membership churn. This crate makes that
//! measurable:
//!
//! * [`process`] — composable membership-event generators: Poisson
//!   join/leave with exponential or heavy-tailed Pareto node lifetimes,
//!   flash-crowd bursts, diurnal intensity waves, correlated mass
//!   failure, heterogeneous-capacity arrivals, plus **ungraceful crash**
//!   processes (memoryless single-node crashes and correlated crash
//!   storms) whose victims lose their data unless the overlay replicated
//!   it.
//! * [`scenario`] — [`Scenario`]: processes + horizon, compiled by seed
//!   into one flat [`EventStream`]. The stream is engine-agnostic and a
//!   pure function of `(scenario, seed)`, so the global approach, the
//!   local approach and Consistent Hashing replay the *identical* event
//!   sequence — [`EventStream::fingerprint`] asserts it.
//! * [`event`] — the event vocabulary and the compiled stream.
//! * [`driver`] — [`ChurnDriver`]: replays a stream into any
//!   [`domus_core::DhtEngine`] through the streaming event surface,
//!   pricing every operation in-line with `domus-sim`'s
//!   [`domus_sim::EventPricer`] sink (no report materialisation on the
//!   hot path) and closing one [`WindowSample`] per time window. It is
//!   a replay core composed from five single-concern modules:
//!   - `plant` — the engine, bare or threaded through a
//!     [`domus_kv::KvService`] / a [`domus_kv::ReplicatedStore`] at a
//!     chosen replication factor, behind one method per membership
//!     operation; publishes routing epochs read off the engine's own
//!     map (it keeps no copy); measures keys migrated, lookup correctness,
//!     per-window availability, and (replicated) durability
//!     (`keys_lost`/`keys_total`) plus quorum-read availability with an
//!     anti-entropy repair pass at every window close;
//!   - `roster` — the crashed list and the rank / slice selection
//!     rules over the engine's creation order (who is live, and which
//!     vnodes a tag hosts, is asked of the engine's per-snode index);
//!   - `sample` — [`WindowSample`], [`RunTotals`], [`ChurnOutcome`] and
//!     the CSV schema (one column table);
//!   - `readers` — [`ChurnDriver::with_readers`]: paced reader threads
//!     resolving reads against pinned snapshots during the replay;
//!   - `route` — [`ChurnDriver::with_router`]: the `domus-route` control
//!     plane riding the replay — leases grant/renew/lapse on the sim
//!     clock, silent stalls ([`EventKind::StallRank`]) fail over via
//!     lease expiry, capacity degradations ([`EventKind::DegradeRank`])
//!     trip the hot-spot detector and shed vnodes until rebalanced —
//!     all byte-deterministic, sampled into per-window route columns.
//!
//!   Two rules hold throughout (enforced in `plant`): with readers or a
//!   router attached — from the moment they attach — every operation
//!   **publishes the next routing epoch, read off the engine, before the
//!   store lock is released**, so a settled miss is genuine; without
//!   them **nothing is published per operation** — a snapshot costs
//!   several times the step it would follow.
//!
//! ```
//! use domus_churn::{Capacity, ChurnDriver, DriverConfig, Lifetime, Process, Scenario};
//! use domus_core::{DhtConfig, LocalDht};
//! use domus_hashspace::HashSpace;
//! use domus_sim::SimTime;
//!
//! let scenario = Scenario::new(SimTime::millis(60_000))
//!     .with(Process::InitialFleet { nodes: 8, capacity: Capacity::Fixed(1) })
//!     .with(Process::FlashCrowd {
//!         at: SimTime::millis(30_000),
//!         joins: 16,
//!         spread: SimTime::millis(2_000),
//!         capacity: Capacity::Fixed(1),
//!         stay: Lifetime::Forever,
//!     });
//! let stream = scenario.build(2004);
//!
//! let engine = LocalDht::with_seed(DhtConfig::new(HashSpace::full(), 8, 4).unwrap(), 1);
//! let outcome = ChurnDriver::new(engine, DriverConfig::default()).run(&stream);
//! assert_eq!(outcome.totals.joins, 24);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod event;
pub mod process;
pub mod scenario;

pub use driver::{ChurnDriver, ChurnOutcome, DriverConfig, RunTotals, WindowSample};
pub use event::{ChurnEvent, EventKind, EventStream, NodeTag};
pub use process::{Capacity, Lifetime, Process};
pub use scenario::Scenario;
