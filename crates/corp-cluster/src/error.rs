//! Typed control-plane failures.
//!
//! The coordinator never panics on a sick shard: every failure is either
//! recovered in place (restart + inline scheduling) or recorded here and
//! surfaced through [`ShardedProvisioner::errors`](crate::ShardedProvisioner::errors).

use std::fmt;

/// A control-plane failure observed by the shard supervisor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The OS refused to spawn the pool worker a shard runs on.
    SpawnFailed {
        /// Shard whose worker could not be spawned.
        shard: usize,
        /// The underlying `io::Error`, stringified (io::Error: !Clone).
        reason: String,
    },
    /// A shard's pipeline died (panic or scheduled kill) and no factory
    /// was registered to rebuild it, so the coordinator schedules the
    /// shard inline permanently.
    WorkerUnrecoverable {
        /// Shard left without a pipeline.
        shard: usize,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::SpawnFailed { shard, reason } => {
                write!(f, "failed to spawn worker for shard {shard}: {reason}")
            }
            ClusterError::WorkerUnrecoverable { shard } => {
                write!(
                    f,
                    "shard {shard} pipeline died with no factory to rebuild it; scheduling inline"
                )
            }
        }
    }
}

impl std::error::Error for ClusterError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_the_shard_involved() {
        let e = ClusterError::WorkerUnrecoverable { shard: 3 };
        assert!(e.to_string().contains("shard 3"));
        let s = ClusterError::SpawnFailed {
            shard: 1,
            reason: "no threads left".into(),
        };
        assert!(s.to_string().contains("shard 1"));
    }
}
