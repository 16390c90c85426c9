//! Error types for collective operations.

use std::fmt;

/// Result alias used throughout the library.
pub type Result<T> = std::result::Result<T, CommError>;

/// Errors surfaced by point-to-point and collective operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A peer rank was outside `0..size`.
    InvalidRank {
        /// The offending rank.
        rank: usize,
        /// The communicator/group size.
        size: usize,
    },
    /// A root argument was outside the group.
    InvalidRoot {
        /// The offending root.
        root: usize,
        /// The group size.
        size: usize,
    },
    /// A receive completed with a different length than the caller's
    /// buffer (the library operates in the paper's "known lengths" mode).
    LengthMismatch {
        /// Bytes expected by the receiver.
        expected: usize,
        /// Bytes actually sent.
        actual: usize,
    },
    /// Buffer sizes passed to a collective are inconsistent (e.g. an
    /// allgather output that is not `p ×` the input block).
    BadBufferSize {
        /// What the operation required.
        expected: usize,
        /// What was supplied.
        actual: usize,
    },
    /// The peer disconnected or the backend shut down mid-operation.
    Disconnected,
    /// A strategy was used with a group of mismatched size.
    StrategyMismatch {
        /// Nodes the strategy covers.
        strategy_nodes: usize,
        /// Actual group size.
        group_len: usize,
    },
    /// The calling node is not a member of the group it tried to use.
    NotInGroup,
    /// A compiled plan was executed with bindings that do not match its
    /// program (wrong element size or group size, missing buffer, write
    /// to a read-only argument, malformed step operand).
    PlanMismatch {
        /// What did not match.
        what: &'static str,
    },
    /// A blocking wait exceeded its deadline. The watchdog raises this
    /// instead of hanging; `from` names the peer whose message never
    /// arrived.
    Timeout {
        /// The peer rank the wait was matching against.
        from: usize,
        /// The tag the wait was matching against.
        tag: u64,
        /// How long the wait lasted before giving up, in milliseconds.
        waited_ms: u64,
    },
    /// The collective was torn down by the coordinated-abort protocol:
    /// some rank failed unrecoverably and poisoned every peer so that
    /// all `p` ranks return this structured error instead of hanging.
    Aborted(AbortInfo),
}

/// `Ok` where a buffer of `actual` items has the `expected` length,
/// else [`CommError::BadBufferSize`].
pub(crate) fn expect_len(expected: usize, actual: usize) -> Result<()> {
    if actual == expected {
        Ok(())
    } else {
        Err(CommError::BadBufferSize { expected, actual })
    }
}

/// Why a rank declared its collective unrecoverable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortCause {
    /// Message loss persisted beyond the retry budget.
    DropBudget,
    /// Payload corruption persisted beyond the retry budget.
    CorruptBudget,
    /// The rank stalled past the collective deadline.
    Stall,
    /// A blocking wait on this rank timed out (the named culprit never
    /// delivered), so the waiter initiated the abort.
    Timeout,
    /// An abort initiated outside the fault layer (malformed poison
    /// payload, backend shutdown).
    External,
}

impl AbortCause {
    fn code(self) -> u64 {
        match self {
            AbortCause::DropBudget => 0,
            AbortCause::CorruptBudget => 1,
            AbortCause::Stall => 2,
            AbortCause::Timeout => 3,
            AbortCause::External => 4,
        }
    }

    fn from_code(code: u64) -> AbortCause {
        match code {
            0 => AbortCause::DropBudget,
            1 => AbortCause::CorruptBudget,
            2 => AbortCause::Stall,
            3 => AbortCause::Timeout,
            _ => AbortCause::External,
        }
    }

    /// Stable lower-case name (used by traces and audit JSON).
    pub fn name(self) -> &'static str {
        match self {
            AbortCause::DropBudget => "drop-budget",
            AbortCause::CorruptBudget => "corrupt-budget",
            AbortCause::Stall => "stall",
            AbortCause::Timeout => "timeout",
            AbortCause::External => "external",
        }
    }
}

impl fmt::Display for AbortCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The structured payload of a coordinated abort: who failed, where in
/// the schedule, and why. Travels on the reserved poison tag as a fixed
/// 40-byte wire record so every rank reports the same diagnosis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbortInfo {
    /// The rank that initiated the poison broadcast.
    pub origin: usize,
    /// The rank diagnosed as faulty (usually `origin`; differs when a
    /// waiter times out on a silent peer and names it).
    pub culprit: usize,
    /// The plan id active on the origin when it aborted (0 = none).
    pub plan: u64,
    /// The plan step index active on the origin when it aborted.
    pub step: u64,
    /// Why the abort was declared.
    pub cause: AbortCause,
}

impl AbortInfo {
    /// Bytes of the poison wire record: five little-endian `u64`s.
    pub const WIRE_LEN: usize = 40;

    /// Serializes to the fixed poison wire record.
    pub fn encode(&self) -> [u8; Self::WIRE_LEN] {
        let mut out = [0u8; Self::WIRE_LEN];
        let words = [
            self.origin as u64,
            self.culprit as u64,
            self.plan,
            self.step,
            self.cause.code(),
        ];
        for (chunk, word) in out.chunks_exact_mut(8).zip(words) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// Parses a poison wire record; `None` if the payload is malformed.
    pub fn decode(bytes: &[u8]) -> Option<AbortInfo> {
        if bytes.len() != Self::WIRE_LEN {
            return None;
        }
        let mut words = [0u64; 5];
        for (word, chunk) in words.iter_mut().zip(bytes.chunks_exact(8)) {
            *word = u64::from_le_bytes(chunk.try_into().ok()?);
        }
        Some(AbortInfo {
            origin: words[0] as usize,
            culprit: words[1] as usize,
            plan: words[2],
            step: words[3],
            cause: AbortCause::from_code(words[4]),
        })
    }
}

impl fmt::Display for AbortInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "coordinated abort: rank {} faulty ({}), origin {}, plan {} step {}",
            self.culprit, self.cause, self.origin, self.plan, self.step
        )
    }
}

/// A collective-level failure with full structured context: which rank
/// observed it, in which op (and strategy), at which compiled plan and
/// step, and the root-cause [`CommError`] chain underneath.
///
/// `Display` allocates nothing: every field is either `Copy` or a
/// `&'static str`, formatted straight into the caller's formatter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectiveError {
    /// The rank reporting the failure.
    pub rank: usize,
    /// The collective op name (e.g. `"broadcast"`).
    pub op: &'static str,
    /// The strategy name, when the op takes one.
    pub strategy: Option<&'static str>,
    /// The compiled plan id active when the failure surfaced (0 = none).
    pub plan: u64,
    /// The plan step index active when the failure surfaced.
    pub step: u64,
    /// The underlying transport/collective error.
    pub cause: CommError,
}

impl CollectiveError {
    /// Wraps a transport error with collective context.
    pub fn new(rank: usize, op: &'static str, cause: CommError) -> CollectiveError {
        CollectiveError {
            rank,
            op,
            strategy: None,
            plan: 0,
            step: 0,
            cause,
        }
    }

    /// Attaches a strategy name.
    pub fn with_strategy(mut self, strategy: &'static str) -> CollectiveError {
        self.strategy = Some(strategy);
        self
    }

    /// Attaches the plan/step the rank had reached.
    pub fn at(mut self, plan: u64, step: u64) -> CollectiveError {
        self.plan = plan;
        self.step = step;
        self
    }

    /// The rank diagnosed as faulty, when the cause carries one.
    pub fn faulty_rank(&self) -> Option<usize> {
        match &self.cause {
            CommError::Aborted(info) => Some(info.culprit),
            CommError::Timeout { from, .. } => Some(*from),
            _ => None,
        }
    }
}

impl fmt::Display for CollectiveError {
    /// Non-allocating: every field is `Copy` or `&'static str`, written
    /// straight into the caller's formatter.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} failed on rank {}", self.op, self.rank)?;
        if let Some(s) = self.strategy {
            write!(f, " (strategy {s})")?;
        }
        if self.plan != 0 {
            write!(f, " at plan {} step {}", self.plan, self.step)?;
        }
        write!(f, ": {}", self.cause)
    }
}

impl std::error::Error for CollectiveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.cause)
    }
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::InvalidRank { rank, size } => {
                write!(f, "rank {rank} out of range for size {size}")
            }
            CommError::InvalidRoot { root, size } => {
                write!(f, "root {root} out of range for group of {size}")
            }
            CommError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "receive length mismatch: expected {expected} bytes, got {actual}"
                )
            }
            CommError::BadBufferSize { expected, actual } => {
                write!(
                    f,
                    "buffer size mismatch: expected {expected} items, got {actual}"
                )
            }
            CommError::Disconnected => write!(f, "peer disconnected"),
            CommError::StrategyMismatch {
                strategy_nodes,
                group_len,
            } => write!(
                f,
                "strategy covers {strategy_nodes} nodes but group has {group_len} members"
            ),
            CommError::NotInGroup => write!(f, "calling node is not a member of the group"),
            CommError::PlanMismatch { what } => write!(f, "plan execution mismatch: {what}"),
            CommError::Timeout {
                from,
                tag,
                waited_ms,
            } => write!(
                f,
                "timed out after {waited_ms} ms waiting on rank {from} (tag {tag:#x})"
            ),
            CommError::Aborted(info) => write!(f, "{info}"),
        }
    }
}

impl std::error::Error for CommError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(CommError::InvalidRank { rank: 9, size: 4 }
            .to_string()
            .contains("9"));
        assert!(CommError::LengthMismatch {
            expected: 8,
            actual: 4
        }
        .to_string()
        .contains("expected 8"));
        assert!(CommError::Disconnected.to_string().contains("disconnected"));
        assert!(CommError::Timeout {
            from: 3,
            tag: 0x20,
            waited_ms: 250
        }
        .to_string()
        .contains("rank 3"));
    }

    #[test]
    fn abort_info_round_trips_through_wire_record() {
        let info = AbortInfo {
            origin: 2,
            culprit: 5,
            plan: 0xdead_beef,
            step: 17,
            cause: AbortCause::CorruptBudget,
        };
        let wire = info.encode();
        assert_eq!(wire.len(), AbortInfo::WIRE_LEN);
        assert_eq!(AbortInfo::decode(&wire), Some(info));
        assert_eq!(AbortInfo::decode(&wire[..39]), None);
        assert_eq!(AbortInfo::decode(&[]), None);
    }

    #[test]
    fn abort_cause_codes_round_trip() {
        for cause in [
            AbortCause::DropBudget,
            AbortCause::CorruptBudget,
            AbortCause::Stall,
            AbortCause::Timeout,
            AbortCause::External,
        ] {
            assert_eq!(AbortCause::from_code(cause.code()), cause);
        }
    }

    #[test]
    fn collective_error_carries_context_and_source() {
        let info = AbortInfo {
            origin: 1,
            culprit: 1,
            plan: 7,
            step: 3,
            cause: AbortCause::DropBudget,
        };
        let err = CollectiveError::new(4, "allreduce", CommError::Aborted(info))
            .with_strategy("sc")
            .at(7, 3);
        assert_eq!(err.faulty_rank(), Some(1));
        let text = err.to_string();
        assert!(text.contains("allreduce failed on rank 4"));
        assert!(text.contains("strategy sc"));
        assert!(text.contains("plan 7 step 3"));
        assert!(text.contains("drop-budget"));
        use std::error::Error as _;
        assert!(err.source().is_some());
    }
}
