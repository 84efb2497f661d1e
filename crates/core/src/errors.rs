//! Error types for DHT operations.

use crate::ids::{SnodeId, VnodeId};

/// Errors returned by the DHT engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DhtError {
    /// The vnode handle does not exist or was deleted.
    UnknownVnode(VnodeId),
    /// The snode hosts no live vnodes: a crash of, or a [`crate::Cluster`]
    /// operation on, a snode the DHT does not know.
    EmptySnode(SnodeId),
    /// The operation needs at least one vnode but the DHT is empty.
    Empty,
    /// Removing this vnode would leave the DHT empty — the model has no
    /// representation for a DHT with zero vnodes mid-lifetime.
    LastVnode,
    /// A binary split would push a group's splitlevel beyond `Bh` — the
    /// hash space cannot be divided more finely. Choose a larger `Bh` or a
    /// smaller `Pmin`/vnode count.
    LevelOverflow {
        /// The group's current splitlevel.
        level: u32,
        /// The space's bit width.
        bits: u32,
    },
    /// Configuration rejected (message explains which constraint failed).
    BadConfig(&'static str),
}

impl std::fmt::Display for DhtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DhtError::UnknownVnode(v) => write!(f, "unknown or deleted vnode {v}"),
            DhtError::EmptySnode(s) => write!(f, "snode {s} hosts no live vnodes"),
            DhtError::Empty => write!(f, "the DHT has no vnodes"),
            DhtError::LastVnode => write!(f, "cannot remove the last vnode of a DHT"),
            DhtError::LevelOverflow { level, bits } => {
                write!(f, "splitlevel {level} cannot be increased: hash space has only {bits} bits")
            }
            DhtError::BadConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for DhtError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(DhtError::UnknownVnode(VnodeId(7)).to_string().contains("v7"));
        assert!(DhtError::EmptySnode(SnodeId(3)).to_string().contains("s3"));
        assert!(DhtError::LevelOverflow { level: 64, bits: 64 }.to_string().contains("64 bits"));
        assert!(DhtError::BadConfig("pmin").to_string().contains("pmin"));
    }
}
