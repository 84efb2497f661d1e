//! DHT configuration: the model parameters `Pmin`, `Vmin` and the policies
//! the paper leaves open.
//!
//! "Once set, `Pmin` and `Vmin` remain constant for the lifetime of a DHT"
//! (§4.1.2) — [`DhtConfig`] is therefore immutable after construction and
//! validated eagerly.

use crate::errors::DhtError;
use domus_hashspace::HashSpace;
use domus_util::bits::is_power_of_two;

/// Which partition a donor vnode hands over in a transfer.
///
/// The paper's algorithm says only "choose a victim partition from it"
/// (§2.5, step 4a) — the choice does not affect quotas (all partitions of a
/// group share one size), but it does affect data-migration locality, so it
/// is exposed as a policy (ablation ABL-VICTIM).
///
/// Each variant picks a position in the donor's holdings, the routing
/// map's owner index (`OwnerMap::nth_holding`), whose order is documented
/// in `domus_hashspace::range_map`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VictimPartitionPolicy {
    /// A uniformly random position in the donor's holdings (default;
    /// matches the paper's stochastic spirit).
    #[default]
    Random,
    /// The last position (LIFO: a receiver appends; the cheapest removal).
    Last,
    /// The first position (FIFO): the donor's later holdings shift up one
    /// place and keep their order.
    First,
}

/// Which of the two halves of a just-split group receives the new vnode.
///
/// §3.7: "One of these two groups will then be randomly chosen to be the
/// container of the new vnode." The alternative — the half that inherited
/// the partition containing the random point `r` — is kept for ablation
/// ABL-CONTAINER.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ContainerChoice {
    /// Uniformly random half (the paper's rule).
    #[default]
    RandomHalf,
    /// The half whose member owns the victim point `r`.
    OwningHalf,
}

/// How a full group's members are divided between the two halves of a
/// split.
///
/// §3.7: "each one with Vmin vnodes, randomly selected from the original
/// victim group". The deterministic alternative (first `Vmin` members by
/// admission order stay together) is kept for ablation ABL-SPLITSEL — it
/// concentrates co-resident vnodes and measurably changes how many LPDRs
/// each snode must replicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitSelection {
    /// Uniformly random halves (the paper's rule).
    #[default]
    RandomHalves,
    /// Admission-order halves (oldest `Vmin` members form child 0).
    AdmissionOrder,
}

/// Immutable parameters of a DHT instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DhtConfig {
    /// The hash range `R_h` (`Bh` bits).
    pub space: HashSpaceConfig,
    /// `Pmin`: minimum partitions per vnode; a power of two (invariant G4).
    pub pmin: u64,
    /// `Vmin`: minimum vnodes per group; a power of two (invariant L2).
    /// Ignored by the global approach.
    pub vmin: u64,
    /// Donor-partition selection policy.
    pub victim_partition: VictimPartitionPolicy,
    /// Container-group selection policy after a group split.
    pub container_choice: ContainerChoice,
    /// Membership-selection policy for group splits.
    pub split_selection: SplitSelection,
}

/// Plain-data stand-in for [`HashSpace`] (just the bit width).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashSpaceConfig {
    /// `Bh`.
    pub bits: u32,
}

impl From<HashSpace> for HashSpaceConfig {
    fn from(s: HashSpace) -> Self {
        Self { bits: s.bits() }
    }
}

impl HashSpaceConfig {
    /// The concrete space.
    pub fn space(&self) -> HashSpace {
        HashSpace::new(self.bits)
    }
}

impl DhtConfig {
    /// A configuration over the full 64-bit space with the paper's reference
    /// parameters `Pmin = Vmin = 32` (§4.1.2: the θ-optimal choice).
    pub fn paper_default() -> Self {
        Self::new(HashSpace::full(), 32, 32).expect("reference parameters are valid")
    }

    /// A validated configuration.
    ///
    /// Constraints: `pmin` and `vmin` are powers of two (invariants G4/L2)
    /// and `pmin` must be representable in the space (`log2(pmin) <= Bh`).
    pub fn new(space: HashSpace, pmin: u64, vmin: u64) -> Result<Self, DhtError> {
        if !is_power_of_two(pmin) {
            return Err(DhtError::BadConfig("Pmin must be a power of two (invariant G4)"));
        }
        if !is_power_of_two(vmin) {
            return Err(DhtError::BadConfig("Vmin must be a power of two (invariant L2)"));
        }
        if u64::from(space.bits()) < pmin.trailing_zeros() as u64 {
            return Err(DhtError::BadConfig("Pmin exceeds the hash-space resolution"));
        }
        Ok(Self {
            space: space.into(),
            pmin,
            vmin,
            victim_partition: VictimPartitionPolicy::default(),
            container_choice: ContainerChoice::default(),
            split_selection: SplitSelection::default(),
        })
    }

    /// Overrides the group-split membership policy.
    pub fn with_split_selection(mut self, s: SplitSelection) -> Self {
        self.split_selection = s;
        self
    }

    /// Overrides the donor-partition policy.
    pub fn with_victim_partition(mut self, p: VictimPartitionPolicy) -> Self {
        self.victim_partition = p;
        self
    }

    /// Overrides the container-group policy.
    pub fn with_container_choice(mut self, c: ContainerChoice) -> Self {
        self.container_choice = c;
        self
    }

    /// `Pmax = 2·Pmin` (invariant G4).
    #[inline]
    pub fn pmax(&self) -> u64 {
        2 * self.pmin
    }

    /// `Vmax = 2·Vmin` (invariant L2).
    #[inline]
    pub fn vmax(&self) -> u64 {
        2 * self.vmin
    }

    /// The hash space.
    #[inline]
    pub fn hash_space(&self) -> HashSpace {
        self.space.space()
    }

    /// `log2(Pmin)`: the splitlevel of a fresh single-vnode group.
    #[inline]
    pub fn initial_level(&self) -> u32 {
        self.pmin.trailing_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_parameters() {
        let c = DhtConfig::paper_default();
        assert_eq!(c.pmin, 32);
        assert_eq!(c.vmin, 32);
        assert_eq!(c.pmax(), 64);
        assert_eq!(c.vmax(), 64);
        assert_eq!(c.hash_space().bits(), 64);
        assert_eq!(c.initial_level(), 5);
    }

    #[test]
    fn rejects_non_power_of_two() {
        let s = HashSpace::new(32);
        assert!(matches!(DhtConfig::new(s, 12, 32), Err(DhtError::BadConfig(_))));
        assert!(matches!(DhtConfig::new(s, 32, 12), Err(DhtError::BadConfig(_))));
        assert!(DhtConfig::new(s, 1, 1).is_ok(), "1 is a valid power of two");
    }

    #[test]
    fn rejects_pmin_finer_than_space() {
        let s = HashSpace::new(4);
        assert!(DhtConfig::new(s, 16, 1).is_ok());
        assert!(matches!(DhtConfig::new(s, 32, 1), Err(DhtError::BadConfig(_))));
    }

    #[test]
    fn builder_overrides() {
        let c = DhtConfig::paper_default()
            .with_victim_partition(VictimPartitionPolicy::Last)
            .with_container_choice(ContainerChoice::OwningHalf);
        assert_eq!(c.victim_partition, VictimPartitionPolicy::Last);
        assert_eq!(c.container_choice, ContainerChoice::OwningHalf);
    }
}
