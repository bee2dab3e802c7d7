//! Control-plane telemetry for sharded (multi-scheduler) provisioners.
//!
//! A distributed control plane — several scheduler shards proposing
//! placements that one capacity arbiter admits — has health metrics a
//! monolithic scheduler does not: how often proposals conflict over the
//! same capacity, how many land elsewhere or abort, how deep each shard's
//! queue runs. [`ControlPlaneStats`] carries those counters into the
//! [`SimulationReport`](crate::SimulationReport) so scalability experiments
//! can report commit-conflict rates alongside utilization and SLO metrics.
//!
//! The types live here (rather than in the control-plane crate) so the
//! engine can embed them in its report without depending on any particular
//! control-plane implementation; provisioners surface them through
//! [`Provisioner::control_plane_stats`](crate::Provisioner::control_plane_stats),
//! which defaults to `None` for monolithic schedulers.

use serde::{Deserialize, Serialize};

/// Counters for one scheduler shard.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Placement proposals this shard emitted.
    pub proposals: u64,
    /// Proposals that committed (possibly after a retry).
    pub commits: u64,
    /// Proposals (and allocation adjustments) refused because their VM
    /// could not take them.
    pub conflicts: u64,
    /// Proposals that landed on the Eq. 22 best fit after their proposed
    /// VM conflicted (at most one per proposal).
    pub retries: u64,
    /// Proposals that placed nowhere: neither the proposed VM nor any other
    /// fit, the VM id was unknown, or the allocation was non-finite. There
    /// is no retry budget to exhaust; a proposal retries at most once.
    pub aborts: u64,
    /// Deepest pending-job queue this shard saw in any slot.
    pub max_queue_depth: usize,
    /// Times this shard's pipeline was rebuilt after dying.
    pub restarts: u64,
    /// Slots where the coordinator scheduled this shard inline because no
    /// shard plan arrived (dead pipeline, dropped dispatch, or late plan).
    pub inline_slots: u64,
    /// Slots where a circuit breaker held this shard isolated: the
    /// coordinator scheduled it inline *by design*, without dispatching
    /// it.
    pub isolated_slots: u64,
}

/// A circuit-breaker state, as surfaced in reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakerStateName {
    /// Traffic flows to the shard's worker normally.
    Closed,
    /// The shard is isolated; its slots are scheduled inline.
    Open,
    /// One probe slot is being allowed through to test recovery.
    HalfOpen,
}

/// One deterministic breaker state transition, recorded at the slot it
/// happened.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BreakerTransition {
    /// Slot index of the transition.
    pub slot: u64,
    /// Shard whose breaker moved.
    pub shard: usize,
    /// State before.
    pub from: BreakerStateName,
    /// State after.
    pub to: BreakerStateName,
}

/// Aggregate counters for a sharded control plane plus its capacity ledger.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ControlPlaneStats {
    /// Number of scheduler shards.
    pub shards: usize,
    /// Claims the placement store admitted. Every admitted claim commits
    /// in the same step, so this always equals `commits`.
    pub reservations: u64,
    /// Claims committed.
    pub commits: u64,
    /// Claims (and allocation adjustments) refused because they would
    /// overcommit their VM.
    pub conflicts: u64,
    /// Admitted claims rolled back. No claim outlives its slot, so nothing
    /// is ever left to roll back and this always reads 0; reports keep the
    /// field for a stable schema.
    pub aborts: u64,
    /// Placement retries across all shards.
    pub retries: u64,
    /// Claims that landed on their proposed VM while no other shard had
    /// written that VM in the slot.
    pub fast_path_hits: u64,
    /// Arbitration slots where at least one claim was not a fast-path hit.
    pub fallback_rounds: u64,
    /// Claims whose proposed VM another shard had already written in the
    /// slot.
    pub stripe_conflicts: u64,
    /// Deepest store-wide pending queue observed in any slot.
    pub max_queue_depth: usize,
    /// Shard pipelines killed by the fault schedule.
    pub worker_kills: u64,
    /// Shard pipeline panics caught by the supervisor (in a proposal or in
    /// a completion or service-level callback).
    pub worker_panics: u64,
    /// Shard pipelines rebuilt from their provisioner factories.
    pub worker_restarts: u64,
    /// Slots where the coordinator scheduled a shard inline for lack of a
    /// shard plan.
    pub inline_slots: u64,
    /// Control-plane messages lost (scheduled dispatch drops plus
    /// completion batches for dead shards).
    pub messages_dropped: u64,
    /// Shard plans delayed past their slot deadline by the schedule.
    pub messages_delayed: u64,
    /// Reply waits that tripped a real-time timeout. The coordinator has
    /// no such timeout (its pool dispatch waits for every shard), so this
    /// always reads 0; reports keep the field for a stable schema.
    pub recv_timeouts: u64,
    /// Slots a circuit breaker held a shard isolated (scheduled inline by
    /// design rather than by failure).
    pub isolated_slots: u64,
    /// Circuit-breaker trips (Closed/HalfOpen → Open).
    pub breaker_opens: u64,
    /// Half-open probes issued (Open → HalfOpen).
    pub breaker_half_opens: u64,
    /// Breaker recoveries (HalfOpen → Closed).
    pub breaker_closes: u64,
    /// Every breaker state transition, slot-ordered. Empty when no breaker
    /// layer is configured.
    pub breaker_transitions: Vec<BreakerTransition>,
    /// Per-shard breakdowns, shard-index ordered.
    pub per_shard: Vec<ShardStats>,
}

impl ControlPlaneStats {
    /// Fraction of claim attempts that conflicted:
    /// `conflicts / (reservations + conflicts)`. Zero when no attempts were
    /// made.
    pub fn conflict_rate(&self) -> f64 {
        let attempts = self.reservations + self.conflicts;
        if attempts == 0 {
            0.0
        } else {
            self.conflicts as f64 / attempts as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflict_rate_handles_zero_attempts() {
        assert_eq!(ControlPlaneStats::default().conflict_rate(), 0.0);
    }

    #[test]
    fn conflict_rate_is_fraction_of_attempts() {
        let stats = ControlPlaneStats {
            reservations: 75,
            conflicts: 25,
            ..Default::default()
        };
        assert!((stats.conflict_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn stats_serialize_with_per_shard_breakdown() {
        let stats = ControlPlaneStats {
            shards: 2,
            reservations: 10,
            commits: 9,
            conflicts: 1,
            aborts: 1,
            retries: 1,
            max_queue_depth: 4,
            per_shard: vec![ShardStats {
                shard: 0,
                proposals: 5,
                ..Default::default()
            }],
            ..Default::default()
        };
        let json = serde::json::to_string(&stats);
        assert!(json.contains("\"per_shard\":[{\"shard\":0"), "{json}");
        assert!(json.contains("\"conflicts\":1"), "{json}");
    }
}
