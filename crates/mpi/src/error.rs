//! Error type of the message-passing substrate.

use core::fmt;

/// Errors produced by the message-passing substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpiError {
    /// The destination rank does not exist in the communicator.
    InvalidRank {
        /// The requested rank.
        rank: usize,
        /// The communicator size.
        size: usize,
    },
    /// The peer ranks disconnected (a rank panicked or exited early)
    /// while this rank was blocked in a receive.
    Disconnected,
    /// A rank's thread panicked: raised by whoever joins the rank
    /// threads (the runner does, for a world of threads), with the
    /// panic message when it is known.
    RankPanicked {
        /// The rank that panicked.
        rank: usize,
        /// The panic's text, or a stand-in when it carried none.
        message: String,
    },
    /// A decoded message payload was malformed.
    MalformedPayload {
        /// Human-readable description of what failed to decode.
        what: &'static str,
    },
    /// [`crate::World::communicators`] was asked for zero ranks.
    EmptyWorld,
}

impl fmt::Display for MpiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidRank { rank, size } => {
                write!(f, "rank {rank} is outside the communicator of size {size}")
            }
            Self::Disconnected => write!(f, "peer ranks disconnected"),
            Self::RankPanicked { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
            Self::MalformedPayload { what } => write!(f, "malformed payload: {what}"),
            Self::EmptyWorld => write!(f, "world size must be at least 1"),
        }
    }
}

impl std::error::Error for MpiError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(MpiError::InvalidRank { rank: 9, size: 4 }
            .to_string()
            .contains("rank 9"));
        assert!(MpiError::Disconnected.to_string().contains("disconnected"));
        assert!(MpiError::EmptyWorld.to_string().contains("at least 1"));
        assert!(MpiError::MalformedPayload {
            what: "truncated f64"
        }
        .to_string()
        .contains("truncated"));
    }
}
