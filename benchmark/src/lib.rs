//! The repository's benchmark: five workloads, run best-of-repetitions,
//! measured from outside through public functions only. See `README.md`
//! in this directory for the protocol, the glossary and the bench surface.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod harness;
pub mod metrics;
pub mod mirror;
pub mod probes;
pub mod serve;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;

/// Seed of every engine's own random source (victim selection, ring
/// points). It is configuration of the program, not benchmark input: with
/// it fixed, every seed starts from the identical enrolled fleet and only
/// the generated events, keys and read sequence differ.
pub const ENGINE_SEED: u64 = 0xD0_4D05;

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// How much work one pass does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The frozen sizes every reported number uses.
    Full,
    /// A tenth of the events: the smoke step (`--quick`).
    Quick,
}

/// What one repetition of a workload produced.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Wall-clock figures: the run reports the best repetition of each.
    pub timings: Metrics,
    /// Deterministic figures: every repetition must produce the same
    /// bits, which the harness asserts.
    pub exact: Metrics,
    /// Operations attempted (measured ops plus output checks).
    pub attempted: u64,
    /// Operations that failed or checks that did not hold.
    pub failed: u64,
    /// Latency of every measured op, nanoseconds, in the op's schedule
    /// order: the same length and order in every repetition, so the run
    /// can take each op's best reading across repetitions.
    pub lat_ns: Vec<u64>,
    /// Service time of every closed-loop op, in order. Empty when the
    /// closed loop is a count over a fixed time; `timings["ops_per_s"]`
    /// is then the rate.
    pub work_ns: Vec<u64>,
    /// `EventStream::fingerprint` (or the digest of the op schedule).
    pub fingerprint: u64,
}

impl Rep {
    /// Adds `v` to an exact counter (backends of a pooled workload sum).
    pub fn add_exact(&mut self, name: &'static str, v: f64) {
        *self.exact.entry(name).or_insert(0.0) += v;
    }
}
