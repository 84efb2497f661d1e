//! # domus-metrics
//!
//! Statistics and reporting for the `domus` workspace.
//!
//! The paper's entire evaluation is expressed through one family of metrics:
//! the *relative standard deviation* of a set of quotas against an (ideal)
//! mean — `σ̄(Qv)` for vnodes (figures 4, 6, 9), `σ̄(Qg)` for groups
//! (figure 8), `σ̄(Qn)` for physical nodes (figure 9) — always reported in
//! percent and averaged over 100 simulation runs. This crate provides:
//!
//! * [`welford`] — numerically stable streaming mean/variance, used both
//!   for per-point run-averaging and inside hot loops;
//! * [`relstd`] — the paper's quality metric, with both "measured mean" and
//!   "ideal mean" variants (figure 8 explicitly uses the ideal `1/G`);
//! * [`series`] — named (x, y) experiment curves;
//! * [`table`] — plain-text tables for harness output;
//! * [`plot`] — dependency-free ASCII line plots so every figure can be
//!   eyeballed straight from the terminal;
//! * [`csv`] — hand-rolled CSV emission (kept off `serde` on purpose: the
//!   format is trivial and the approved dependency list is small).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod plot;
pub mod relstd;
pub mod series;
pub mod table;
pub mod welford;

pub use relstd::{rel_std_dev_about_pct, rel_std_dev_pct};
pub use series::Series;
pub use table::Table;
pub use welford::Welford;
