//! The sharded control-plane coordinator, adapting N scheduler shards to
//! the engine's single-`Provisioner` interface.
//!
//! Each shard owns one full scheduler pipeline. The shards run as tasks on
//! one long-lived [`WorkerPool`] as wide as the shard count (spawning
//! threads per slot would put coordination overhead on the critical path
//! of every decision). Each slot then runs in two phases:
//!
//! 1. **Propose (parallel).** One pool dispatch over the engine's borrowed
//!    [`SlotContext`]: each shard task narrows the fleet to the jobs its
//!    shard owns (see [`crate::shard`]) into a view buffer the shard keeps
//!    across slots, runs its pipeline, and returns its [`ProvisionPlan`].
//! 2. **Arbitrate (sequential, deterministic).** The coordinator replays
//!    the proposals against the striped [`PlacementStore`] in a fixed
//!    order — allocation adjustments first (shrinks before grows, as the
//!    engine applies them), then placements round-robin by (proposal
//!    index, shard). Each placement first attempts the store's
//!    **optimistic fast path**
//!    ([`PlacementStore::try_fast_commit`]): when no other shard has
//!    touched the proposed VM this slot, both 2PC phases fuse into one
//!    commit under a single stripe lock. On any miss — foreign writer,
//!    capacity conflict, unknown VM — the claim falls back to full
//!    ordered 2PC at the same arbitration position: open a reservation
//!    (phase 1), on conflict retry against the next-best-fit VM up to the
//!    retry budget, after which the proposal aborts and the job stays
//!    pending — the queue itself is the bounded backoff, since the owning
//!    shard re-proposes next slot. Fallback confirms are deferred and land
//!    as one batched round per slot
//!    ([`PlacementStore::confirm_batch`], one acquisition per touched
//!    stripe); a hold blocks headroom exactly like a commitment, so
//!    deferral is invisible to admission. Either way the committed
//!    sequence the store validated is exactly the sequence the engine will
//!    apply: a store-approved plan can never trip the engine's validators.
//!    The fast path takes claims in the same canonical order the fallback
//!    does, so it changes per-claim cost, never outcomes — at one shard no
//!    VM ever sees a foreign writer, every claim fast-commits, and reports
//!    stay byte-identical to the monolithic path.
//!
//! ## Supervision
//!
//! The coordinator assumes a shard's pipeline can fail at any point: every
//! call into it runs under `catch_unwind`, and a scheduled
//! [`ControlFaultPlan`] can kill a shard (drop its pipeline), drop its
//! dispatch, or delay its plan past the slot, deterministically. Whenever
//! a shard produces no usable plan for a slot — dead pipeline, lost
//! dispatch, late plan — the coordinator schedules that shard's jobs
//! *inline* with a conservative static-peak pass (full-request first fit
//! over the shard's narrowed view), merged at the shard's own index so
//! arbitration order is unchanged. Dead pipelines are rebuilt from their
//! [`ProvisionerFactory`] when one was registered
//! ([`ShardedProvisioner::with_factories`]); without a factory the shard
//! degrades to permanent inline scheduling and a typed [`ClusterError`]
//! is recorded. Neither a shard failure nor a failure to spawn a pool
//! thread panics the coordinator.
//!
//! Determinism: proposal generation is per-shard deterministic (each shard
//! owns its RNG/predictor state), arbitration order is a pure function
//! of (shard index, proposal index), and fault injection follows a
//! pre-computed plan — so identical seeds and configs yield byte-identical
//! reports at any shard count, while the store itself stays fully
//! thread-safe for genuinely racing users.

use corp_faults::ControlFaultPlan;
use corp_pool::WorkerPool;
use corp_sim::control_plane::{ControlPlaneStats, ShardStats};
use corp_sim::{
    JobCompletion, JobId, Placement, ProvisionPlan, Provisioner, ResourceVector, SlotContext,
    StaticPeakProvisioner, VmView,
};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::backend::TwoPhaseBackend;
use crate::error::ClusterError;
use crate::health::{ShardHealth, ShardSlotOutcome};
use crate::shard::{owner_of, shard_pending, shard_vm_views, shard_vm_views_into};
use crate::store::PlacementStore;
use corp_core::pipeline::PlacementBackend;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Rebuilds one shard's scheduler pipeline after it dies.
pub type ProvisionerFactory = Box<dyn Fn() -> Box<dyn Provisioner + Send> + Send>;

/// Alternative-VM attempts after a placement's first reservation
/// conflicts; past the budget the proposal aborts to the pending queue.
const MAX_RETRIES: usize = 3;

/// Coordinator knobs.
#[derive(Debug, Clone, Default)]
pub struct ShardConfig {
    /// Scheduled control-plane chaos (shard kills, dispatch drops, plan
    /// delays); `None` runs fault-free.
    pub fault_plan: Option<ControlFaultPlan>,
}

/// The state a shard's pool task works on: its pipeline and the buffer its
/// narrowed fleet view is rebuilt in every slot (steady state reuses every
/// inner allocation — job vectors, history tails). Only the shard's own
/// task locks it during a dispatch, so the mutex is never contended; it is
/// how a task reached through the pool's shared closure gets `&mut` access.
struct ShardPipeline {
    /// `None` while the shard is dead (killed, panicked, or without a pool
    /// worker), until the supervisor rebuilds it.
    inner: Option<Box<dyn Provisioner + Send>>,
    vms: Vec<VmView>,
}

/// The coordinator's bookkeeping for one shard.
struct Shard {
    stats: ShardStats,
    /// Dead with no way back (no factory, or no pool worker): the
    /// coordinator schedules this shard inline permanently.
    failed: bool,
    /// Rebuilds the pipeline after a death, when registered.
    factory: Option<ProvisionerFactory>,
    /// External supervisor (circuit breaker) holds this shard isolated:
    /// schedule it inline without dispatching it.
    forced_inline: bool,
    /// What happened on the most recent provisioning slot.
    last_outcome: ShardSlotOutcome,
    /// The pipeline's [`Provisioner::full_view_period`], captured when it
    /// is built: the coordinator advertises the gcd of its shards'
    /// periods, so every shard still sees deep view histories exactly on
    /// its own window boundaries.
    view_period: u64,
}

/// Counters for the supervisor's recovery activity.
#[derive(Debug, Default, Clone)]
struct RecoveryCounters {
    worker_kills: u64,
    worker_panics: u64,
    worker_restarts: u64,
    inline_slots: u64,
    isolated_slots: u64,
    messages_dropped: u64,
    messages_delayed: u64,
}

/// Runs one shard's pipeline over its narrowed view of `ctx`. `None`
/// reports a caught panic: the pipeline may hold arbitrary state mid-panic,
/// so the coordinator drops it and rebuilds it from the factory.
fn run_shard(
    pipeline: &Mutex<ShardPipeline>,
    ctx: &SlotContext<'_>,
    shard: usize,
    num_shards: usize,
) -> Option<ProvisionPlan> {
    let mut pipeline = pipeline.lock();
    let ShardPipeline { inner, vms } = &mut *pipeline;
    // Only shards with a pipeline are dispatched.
    let inner = inner.as_mut()?;
    catch_unwind(AssertUnwindSafe(|| {
        shard_vm_views_into(ctx.vms, shard, num_shards, vms);
        let pending = shard_pending(ctx.pending, shard, num_shards);
        inner.provision(&SlotContext {
            slot: ctx.slot,
            vms,
            pending: &pending,
            committed: ctx.committed,
            max_vm_capacity: ctx.max_vm_capacity,
        })
    }))
    .ok()
}

/// N scheduler shards behind the engine's `Provisioner` interface (see
/// module docs).
pub struct ShardedProvisioner {
    name: String,
    shards: Vec<Shard>,
    /// Indexed like `shards`; kept apart so pool tasks can share them
    /// without the (non-`Sync`) factories.
    pipelines: Vec<Mutex<ShardPipeline>>,
    /// One worker per shard; shard proposals are its tasks.
    pool: WorkerPool,
    config: ShardConfig,
    /// Built lazily from the first slot's fleet view.
    store: Option<PlacementStore>,
    max_queue_depth: usize,
    recovery: RecoveryCounters,
    errors: Vec<ClusterError>,
    /// Current brownout posture, re-applied to pipelines after a rebuild.
    service_level: u8,
    /// Slots where at least one placement fell back from the optimistic
    /// fast path to a full ordered 2PC round.
    fallback_rounds: u64,
    /// Per-slot scratch for the store rebase (capacity/committed columns).
    rebase_scratch: (Vec<ResourceVector>, Vec<ResourceVector>),
}

impl ShardedProvisioner {
    /// Wraps `inners` (one per shard) under a display name of
    /// `"<base>x<shards>"`, starting one pool worker per shard. Shards
    /// built this way cannot be rebuilt after a death (there is no
    /// factory); the shard degrades to inline scheduling instead. Prefer
    /// [`ShardedProvisioner::with_factories`] when running under fault
    /// injection.
    ///
    /// # Panics
    ///
    /// If `inners` is empty.
    pub fn new(
        base_name: &str,
        inners: Vec<Box<dyn Provisioner + Send>>,
        config: ShardConfig,
    ) -> Self {
        assert!(!inners.is_empty(), "need at least one shard");
        Self::build(
            base_name,
            inners.into_iter().map(|inner| (inner, None)).collect(),
            config,
        )
    }

    /// Like [`ShardedProvisioner::new`], but each shard's pipeline comes
    /// from a factory the supervisor re-invokes to rebuild the shard
    /// after a crash. Factories must be deterministic (same pipeline every
    /// call) for fault-injected runs to replay byte-identically.
    ///
    /// # Panics
    ///
    /// If `factories` is empty.
    pub fn with_factories(
        base_name: &str,
        factories: Vec<ProvisionerFactory>,
        config: ShardConfig,
    ) -> Self {
        assert!(!factories.is_empty(), "need at least one shard");
        Self::build(
            base_name,
            factories
                .into_iter()
                .map(|factory| (factory(), Some(factory)))
                .collect(),
            config,
        )
    }

    fn build(
        base_name: &str,
        inners: Vec<(Box<dyn Provisioner + Send>, Option<ProvisionerFactory>)>,
        config: ShardConfig,
    ) -> Self {
        let num_shards = inners.len();
        let mut pool = WorkerPool::new();
        let mut errors = Vec::new();
        // `Some` only when a spawn failed, leaving shards without a worker.
        let spawn_error = pool.ensure(num_shards).err().map(|e| e.to_string());
        let mut shards = Vec::with_capacity(num_shards);
        let mut pipelines = Vec::with_capacity(num_shards);
        for (shard, (inner, factory)) in inners.into_iter().enumerate() {
            // A shard without a pool worker is dead on arrival: it keeps
            // its slot in the shard map (job ownership is positional) and
            // is scheduled inline; a factory still allows a later rebuild.
            let has_worker = shard < pool.width();
            if !has_worker {
                errors.push(ClusterError::SpawnFailed {
                    shard,
                    reason: spawn_error.clone().unwrap_or_default(),
                });
            }
            shards.push(Shard {
                stats: ShardStats {
                    shard,
                    ..Default::default()
                },
                failed: !has_worker && factory.is_none(),
                factory,
                forced_inline: false,
                last_outcome: ShardSlotOutcome::Idle,
                view_period: inner.full_view_period().max(1),
            });
            pipelines.push(Mutex::new(ShardPipeline {
                inner: has_worker.then_some(inner),
                vms: Vec::new(),
            }));
        }
        ShardedProvisioner {
            name: format!("{}x{}", base_name, num_shards),
            shards,
            pipelines,
            pool,
            config,
            store: None,
            max_queue_depth: 0,
            recovery: RecoveryCounters::default(),
            errors,
            service_level: 0,
            fallback_rounds: 0,
            rebase_scratch: (Vec::new(), Vec::new()),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shared placement store (after the first slot).
    pub fn store(&self) -> Option<&PlacementStore> {
        self.store.as_ref()
    }

    /// Typed failures the supervisor recorded (spawn failures,
    /// unrecoverable shards). Recovered incidents appear only as counters
    /// in [`Provisioner::control_plane_stats`].
    pub fn errors(&self) -> &[ClusterError] {
        &self.errors
    }

    /// Per-shard supervision snapshots after the most recent slot — the
    /// feed an external circuit-breaker layer keys its state machine on.
    pub fn shard_health(&self) -> Vec<ShardHealth> {
        self.shards
            .iter()
            .zip(&self.pipelines)
            .enumerate()
            .map(|(shard, (s, pipeline))| ShardHealth {
                shard,
                alive: pipeline.lock().inner.is_some(),
                failed: s.failed,
                last_outcome: s.last_outcome,
            })
            .collect()
    }

    /// Isolates (or releases) one shard: while forced, the coordinator
    /// schedules the shard inline every slot *without* dispatching it —
    /// the inline-fallback half of a circuit breaker's Open state. The
    /// pipeline stays up (and keeps receiving completion notifications) so
    /// a later probe finds it warm.
    ///
    /// Out-of-range shard indices are ignored.
    pub fn set_forced_inline(&mut self, shard: usize, forced: bool) {
        if let Some(s) = self.shards.get_mut(shard) {
            s.forced_inline = forced;
        }
    }

    fn alive(&mut self, shard: usize) -> bool {
        self.pipelines[shard].get_mut().inner.is_some()
    }

    /// Calls into a live shard's pipeline under `catch_unwind`. A panic
    /// drops the pipeline and is counted; the next provisioning slot
    /// rebuilds the shard and schedules it inline. Returns whether the
    /// shard had a pipeline to call.
    fn call_shard(&mut self, shard: usize, f: impl FnOnce(&mut dyn Provisioner)) -> bool {
        let pipeline = self.pipelines[shard].get_mut();
        let Some(inner) = pipeline.inner.as_mut() else {
            return false;
        };
        if catch_unwind(AssertUnwindSafe(|| f(inner.as_mut()))).is_err() {
            pipeline.inner = None;
            self.recovery.worker_panics += 1;
        }
        true
    }

    /// Rebuilds a dead shard's pipeline from its factory; without one, or
    /// without a pool worker to run it on, the shard is marked permanently
    /// failed.
    fn restart_shard(&mut self, shard: usize) {
        if self.shards[shard].failed {
            return;
        }
        let Some(inner) = self.shards[shard].factory.as_ref().map(|f| f()) else {
            self.shards[shard].failed = true;
            self.errors
                .push(ClusterError::WorkerUnrecoverable { shard });
            return;
        };
        if let Err(e) = self.pool.ensure(shard + 1) {
            self.shards[shard].failed = true;
            self.errors.push(ClusterError::SpawnFailed {
                shard,
                reason: e.to_string(),
            });
            return;
        }
        let s = &mut self.shards[shard];
        s.view_period = inner.full_view_period().max(1);
        s.stats.restarts += 1;
        self.recovery.worker_restarts += 1;
        self.pipelines[shard].get_mut().inner = Some(inner);
        // A factory rebuild starts at full service; re-apply the
        // coordinator's current brownout posture.
        let level = self.service_level;
        if level != 0 {
            self.call_shard(shard, |inner| inner.set_service_level(level));
        }
    }

    /// Conservative coordinator-side plan for a shard that produced none:
    /// static-peak first fit over the shard's own narrowed view. Full-peak
    /// allocations can never violate an SLO on their own, and the store
    /// still arbitrates them against every other shard's proposals.
    fn inline_plan(ctx: &SlotContext<'_>, shard: usize, num_shards: usize) -> ProvisionPlan {
        let my_vms = shard_vm_views(ctx.vms, shard, num_shards);
        let my_pending = shard_pending(ctx.pending, shard, num_shards);
        let narrowed = SlotContext {
            slot: ctx.slot,
            vms: &my_vms,
            pending: &my_pending,
            committed: ctx.committed,
            max_vm_capacity: ctx.max_vm_capacity,
        };
        let mut fallback = StaticPeakProvisioner;
        fallback.provision(&narrowed)
    }

    /// Phase A: every serving shard proposes in parallel, one pool task
    /// per shard over the borrowed context. Scheduled chaos is applied
    /// here; any shard without a usable plan is scheduled inline, and dead
    /// shards are rebuilt before returning.
    fn propose(&mut self, ctx: &SlotContext<'_>) -> Vec<ProvisionPlan> {
        let n = self.shards.len();
        self.max_queue_depth = self.max_queue_depth.max(ctx.pending.len());
        let mut depths = vec![0usize; n];
        for job in ctx.pending {
            depths[owner_of(job.id, n)] += 1;
        }
        for (shard, depth) in self.shards.iter_mut().zip(depths) {
            shard.stats.max_queue_depth = shard.stats.max_queue_depth.max(depth);
        }

        // Scheduled chaos for this slot.
        let mut kill = vec![false; n];
        let mut drop_request = vec![false; n];
        let mut delay = vec![false; n];
        if let Some(plan) = &self.config.fault_plan {
            for shard in 0..n {
                kill[shard] = plan.kill_scheduled(ctx.slot, shard);
                drop_request[shard] = plan.drop_scheduled(ctx.slot, shard);
                delay[shard] = plan.delay_scheduled(ctx.slot, shard);
            }
        }
        for (shard, &killed) in kill.iter().enumerate() {
            if killed && self.alive(shard) {
                self.pipelines[shard].get_mut().inner = None;
                self.recovery.worker_kills += 1;
            }
        }

        // Breaker-isolated shards get no dispatch at all: the whole point
        // of Open is not paying for the sick shard's pipeline.
        let mut dispatch = Vec::with_capacity(n);
        for (shard, &dropped) in drop_request.iter().enumerate() {
            if self.shards[shard].forced_inline || !self.alive(shard) {
                continue;
            }
            if dropped {
                self.recovery.messages_dropped += 1;
                continue;
            }
            dispatch.push(shard);
        }
        // Only shards with a pool worker have a pipeline, so the dispatch
        // fits the pool and every shard task gets a worker of its own.
        let mut results: Vec<Option<ProvisionPlan>> = vec![None; dispatch.len()];
        let pipelines = &self.pipelines;
        self.pool.run_chunks(
            &dispatch,
            &mut results,
            dispatch.len().max(1),
            &|| (),
            &|&shard, _: &mut ()| run_shard(&pipelines[shard], ctx, shard, n),
            &|_| (),
        );

        // A delayed shard ran, so its state advanced, but its plan missed
        // the slot and is discarded.
        let mut plans: Vec<Option<ProvisionPlan>> = vec![None; n];
        for (&shard, result) in dispatch.iter().zip(results) {
            if delay[shard] {
                self.recovery.messages_delayed += 1;
            }
            match result {
                None => {
                    self.pipelines[shard].get_mut().inner = None;
                    self.recovery.worker_panics += 1;
                }
                Some(_) if delay[shard] => {}
                Some(plan) => plans[shard] = Some(plan),
            }
        }

        // Recovery: rebuild what died, schedule inline what is missing,
        // and record each shard's slot outcome for shard_health().
        for (shard, plan) in plans.iter_mut().enumerate() {
            if !self.alive(shard) {
                self.restart_shard(shard);
            }
            let s = &mut self.shards[shard];
            if plan.is_some() {
                s.last_outcome = ShardSlotOutcome::Served;
            } else {
                if s.forced_inline {
                    s.stats.isolated_slots += 1;
                    self.recovery.isolated_slots += 1;
                    s.last_outcome = ShardSlotOutcome::Isolated;
                } else {
                    s.stats.inline_slots += 1;
                    self.recovery.inline_slots += 1;
                    s.last_outcome = ShardSlotOutcome::FellBack;
                }
                *plan = Some(Self::inline_plan(ctx, shard, n));
            }
        }

        plans.into_iter().map(Option::unwrap_or_default).collect()
    }

    /// Phase B: deterministic sequential arbitration of all proposals
    /// through the store.
    fn arbitrate(&mut self, ctx: &SlotContext<'_>, plans: Vec<ProvisionPlan>) -> ProvisionPlan {
        let Some(store) = self.store.as_ref() else {
            // Unreachable (provision initializes the store) but no panic:
            // an empty plan is always safe.
            return ProvisionPlan::default();
        };
        let mut merged = ProvisionPlan::default();

        // Adjustments: shrinks release capacity before grows claim it —
        // the same stable ordering the engine applies, so the store's
        // committed sequence previews the engine's exactly. The per-job
        // allocation map is only built when some plan actually proposes an
        // adjustment; pure-placement slots (the common case for
        // non-reallocating schemes) skip the fleet walk entirely.
        let all_adjustments: Vec<(usize, JobId, ResourceVector)> = plans
            .iter()
            .enumerate()
            .flat_map(|(s, plan)| {
                plan.adjustments
                    .iter()
                    .map(move |(job, alloc)| (s, *job, *alloc))
            })
            .collect();
        if !all_adjustments.is_empty() {
            // Current allocations of running jobs, for adjustment rebasing.
            let current: HashMap<JobId, (usize, ResourceVector)> = ctx
                .vms
                .iter()
                .flat_map(|vm| vm.jobs.iter().map(|j| (j.id, (vm.id, j.allocation))))
                .collect();
            let is_shrink = |job: &JobId, new: &ResourceVector| {
                current
                    .get(job)
                    .map(|(_, old)| new.fits_within(old))
                    .unwrap_or(false)
            };
            let (shrinks, grows): (Vec<_>, Vec<_>) = all_adjustments
                .into_iter()
                .partition(|(_, job, new)| is_shrink(job, new));
            for (shard, job, new) in shrinks.into_iter().chain(grows) {
                let Some(&(vm, old)) = current.get(&job) else {
                    self.shards[shard].stats.conflicts += 1;
                    continue;
                };
                if !new.is_finite() {
                    // A poisoned pipeline may propose NaN; the engine would
                    // drop it anyway, but refusing here keeps the store's
                    // committed preview authoritative.
                    self.shards[shard].stats.conflicts += 1;
                    continue;
                }
                if store.adjust(vm, old, new) {
                    merged.adjustments.push((job, new));
                } else {
                    self.shards[shard].stats.conflicts += 1;
                }
            }
        }

        // Placements: round-robin by (proposal index, shard). Each claim
        // first attempts the store's optimistic fast path on its proposed
        // VM — one stripe acquisition fusing both 2PC phases when no other
        // shard has written that VM this slot. Any miss falls back, at the
        // same canonical position, to a full 2PC claim through the same
        // `PlacementBackend` stage contract the monolithic pipelines place
        // through, with phase 2 deferred into one batched confirm round
        // per slot. The fast path changes per-claim cost, never outcomes:
        // a fast commit admits exactly what reserve+confirm would have.
        let pending_ids: HashSet<JobId> = ctx.pending.iter().map(|j| j.id).collect();
        let mut placed: HashSet<JobId> = HashSet::new();
        let mut backend = TwoPhaseBackend::new(store, MAX_RETRIES);
        backend.defer_confirms();
        // The trait threads an RNG for randomized selectors; 2PC claims
        // are deterministic and never draw from it.
        let mut rng = StdRng::seed_from_u64(0);
        let mut fell_back = false;
        let deepest = plans.iter().map(|p| p.placements.len()).max().unwrap_or(0);
        for index in 0..deepest {
            for (shard, plan) in plans.iter().enumerate() {
                let Some(p) = plan.placements.get(index) else {
                    continue;
                };
                let stats = &mut self.shards[shard].stats;
                stats.proposals += 1;
                if !pending_ids.contains(&p.job) || placed.contains(&p.job) {
                    continue; // not placeable: duplicate or unknown job
                }
                if !p.allocation.is_finite() {
                    stats.aborts += 1;
                    continue;
                }
                let alloc = p.allocation.clamp_nonnegative();
                let committed_vm = match store.try_fast_commit(shard, p.vm, alloc) {
                    Ok(()) => Some(p.vm),
                    Err(_) => {
                        // Foreign writer, capacity conflict, or unknown
                        // VM: full ordered 2PC with bounded best-fit
                        // retry, exactly the claim the fast path fused.
                        fell_back = true;
                        backend.set_origin(shard);
                        let claim =
                            backend.choose(&[], &alloc, Some(p.vm), &ctx.max_vm_capacity, &mut rng);
                        stats.conflicts += claim.conflicts;
                        stats.retries += claim.retries;
                        claim.vm
                    }
                };
                match committed_vm {
                    Some(vm) => {
                        stats.commits += 1;
                        placed.insert(p.job);
                        merged.placements.push(Placement {
                            job: p.job,
                            vm,
                            allocation: alloc,
                        });
                    }
                    None => stats.aborts += 1,
                }
            }
        }
        backend.flush_confirms();
        if fell_back {
            self.fallback_rounds += 1;
        }

        for plan in plans {
            merged.predictions.extend(plan.predictions);
        }
        merged
    }
}

impl Provisioner for ShardedProvisioner {
    fn name(&self) -> &str {
        &self.name
    }

    fn provision(&mut self, ctx: &SlotContext<'_>) -> ProvisionPlan {
        let (capacities, committed) = &mut self.rebase_scratch;
        capacities.clear();
        capacities.extend(ctx.vms.iter().map(|vm| vm.capacity));
        committed.clear();
        committed.extend(ctx.vms.iter().map(|vm| vm.committed));
        let store = self
            .store
            .get_or_insert_with(|| PlacementStore::new(capacities.clone()));
        // Re-basing capacities every slot tracks crashed VMs (whose view
        // capacity is zero) leaving and rejoining the fleet.
        store.begin_slot_full(capacities, committed);
        let plans = self.propose(ctx);
        self.arbitrate(ctx, plans)
    }

    fn full_view_period(&self) -> u64 {
        // The gcd of the shards' periods: every shard still receives deep
        // view histories on (at least) its own window boundaries, while
        // off-period slots skip the engine's deep history copies — the
        // dominant snapshot cost for window-driven pipelines.
        fn gcd(a: u64, b: u64) -> u64 {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        self.shards
            .iter()
            .map(|s| s.view_period)
            .fold(0, gcd)
            .max(1)
    }

    fn on_job_completed(&mut self, job: JobId, unused_history: &[Vec<f64>]) {
        let single = [JobCompletion {
            job,
            handle: corp_sim::JobHandle::DETACHED,
            unused_history: unused_history.to_vec(),
        }];
        self.on_jobs_completed(&single);
    }

    fn on_jobs_completed(&mut self, completed: &[JobCompletion]) {
        // Group the slot's completions by owning shard, preserving
        // completion order within each group, and hand each shard its
        // batch in one call — the engine hands the whole slot at once.
        let n = self.shards.len();
        let mut batches: Vec<Vec<JobCompletion>> = vec![Vec::new(); n];
        for c in completed {
            batches[owner_of(c.job, n)].push(c.clone());
        }
        for (owner, jobs) in batches.into_iter().enumerate() {
            if jobs.is_empty() {
                continue;
            }
            if !self.call_shard(owner, |inner| inner.on_jobs_completed(&jobs)) {
                // The shard is dead: its corpus misses one slot's samples
                // (the rebuild happens on the next provision call).
                // Dropped notifications are counted per batch.
                self.recovery.messages_dropped += 1;
            }
        }
    }

    fn set_service_level(&mut self, level: u8) {
        if self.service_level == level {
            return;
        }
        self.service_level = level;
        // A dead shard is skipped: the rebuild re-applies the current
        // level once the factory has produced a fresh pipeline.
        for shard in 0..self.shards.len() {
            self.call_shard(shard, |inner| inner.set_service_level(level));
        }
    }

    fn control_plane_stats(&self) -> Option<ControlPlaneStats> {
        let counters = self
            .store
            .as_ref()
            .map(|s| s.counters())
            .unwrap_or_default();
        Some(ControlPlaneStats {
            shards: self.shards.len(),
            reservations: counters.reservations,
            commits: counters.commits,
            conflicts: counters.conflicts,
            aborts: counters.aborts,
            retries: self.shards.iter().map(|s| s.stats.retries).sum(),
            fast_path_hits: counters.fast_commits,
            fallback_rounds: self.fallback_rounds,
            stripe_conflicts: counters.epoch_conflicts,
            max_queue_depth: self.max_queue_depth,
            worker_kills: self.recovery.worker_kills,
            worker_panics: self.recovery.worker_panics,
            worker_restarts: self.recovery.worker_restarts,
            inline_slots: self.recovery.inline_slots,
            messages_dropped: self.recovery.messages_dropped,
            messages_delayed: self.recovery.messages_delayed,
            recv_timeouts: 0,
            isolated_slots: self.recovery.isolated_slots,
            breaker_opens: 0,
            breaker_half_opens: 0,
            breaker_closes: 0,
            breaker_transitions: Vec::new(),
            per_shard: self.shards.iter().map(|s| s.stats.clone()).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corp_faults::SlotShard;
    use corp_sim::{PendingJobView, StaticPeakProvisioner, VmView};

    fn rv(v: f64) -> ResourceVector {
        ResourceVector::splat(v)
    }

    fn fleet(free: &[f64]) -> Vec<VmView> {
        free.iter()
            .enumerate()
            .map(|(id, &f)| VmView {
                id,
                capacity: rv(4.0),
                committed: rv(4.0) - rv(f),
                free: rv(f),
                jobs: Vec::new(),
                unused_history: Vec::new(),
            })
            .collect()
    }

    fn committed_of(vms: &[VmView]) -> Vec<ResourceVector> {
        vms.iter().map(|v| v.committed).collect()
    }

    fn job(id: JobId, req: f64) -> PendingJobView {
        PendingJobView {
            id,
            requested: rv(req),
            arrival_slot: 0,
            slo_slots: 10,
            handle: corp_sim::JobHandle::DETACHED,
        }
    }

    fn sharded(n: usize) -> ShardedProvisioner {
        let inners: Vec<Box<dyn Provisioner + Send>> = (0..n)
            .map(|_| Box::new(StaticPeakProvisioner) as _)
            .collect();
        ShardedProvisioner::new("static-peak", inners, ShardConfig::default())
    }

    fn sharded_with_plan(n: usize, fault_plan: ControlFaultPlan) -> ShardedProvisioner {
        let factories: Vec<ProvisionerFactory> = (0..n)
            .map(|_| {
                Box::new(|| Box::new(StaticPeakProvisioner) as Box<dyn Provisioner + Send>) as _
            })
            .collect();
        ShardedProvisioner::with_factories(
            "static-peak",
            factories,
            ShardConfig {
                fault_plan: Some(fault_plan),
            },
        )
    }

    #[test]
    fn racing_shards_never_overcommit_a_vm() {
        // One VM with room for exactly two unit jobs; four shards each
        // propose their own job for it (static-peak first-fit all pick VM
        // 0). The store must admit exactly two and abort the rest.
        let vms = fleet(&[2.0]);
        let committed = committed_of(&vms);
        let pending: Vec<PendingJobView> = (0..4).map(|i| job(i, 1.0)).collect();
        let ctx = SlotContext {
            slot: 0,
            vms: &vms,
            pending: &pending,
            committed: &committed,
            max_vm_capacity: rv(4.0),
        };
        let mut p = sharded(4);
        let plan = p.provision(&ctx);
        assert_eq!(plan.placements.len(), 2, "{plan:?}");
        let stats = p.control_plane_stats().unwrap();
        assert_eq!(stats.commits, 2);
        assert!(stats.conflicts >= 2, "{stats:?}");
        assert!(p.store().unwrap().holds_invariants(1e-9));
    }

    #[test]
    fn conflicting_placements_retry_onto_best_fit_vm() {
        // VM 0 fits one unit job; VM 1 is wide open. Both shards propose
        // VM 0 (first fit); the loser must land on VM 1 via retry, and the
        // tighter VM is preferred when several fit.
        let vms = fleet(&[1.0, 4.0]);
        let committed = committed_of(&vms);
        let pending = vec![job(0, 1.0), job(1, 1.0)];
        let ctx = SlotContext {
            slot: 0,
            vms: &vms,
            pending: &pending,
            committed: &committed,
            max_vm_capacity: rv(4.0),
        };
        let mut p = sharded(2);
        let plan = p.provision(&ctx);
        assert_eq!(plan.placements.len(), 2, "{plan:?}");
        let vms_used: Vec<usize> = plan.placements.iter().map(|pl| pl.vm).collect();
        assert_eq!(vms_used, vec![0, 1], "loser retried onto VM 1: {plan:?}");
        let stats = p.control_plane_stats().unwrap();
        assert_eq!(stats.retries, 1, "{stats:?}");
        assert_eq!(stats.commits, 2);
    }

    #[test]
    fn retry_budget_bounds_attempts_and_aborts_to_pending() {
        // One VM with room for one job, two shards each proposing theirs.
        // The loser's reservation conflicts and best-fit finds no
        // alternative, so it aborts immediately instead of burning the
        // whole retry budget on hopeless VMs; its job stays pending.
        let vms = fleet(&[1.0]);
        let committed = committed_of(&vms);
        let pending = vec![job(0, 1.0), job(1, 1.0)];
        let ctx = SlotContext {
            slot: 0,
            vms: &vms,
            pending: &pending,
            committed: &committed,
            max_vm_capacity: rv(4.0),
        };
        let mut p = sharded(2);
        let plan = p.provision(&ctx);
        assert_eq!(plan.placements.len(), 1);
        let stats = p.control_plane_stats().unwrap();
        let aborted: u64 = stats.per_shard.iter().map(|s| s.aborts).sum();
        assert_eq!(aborted, 1, "{stats:?}");
        assert_eq!(stats.retries, 0, "no fitting alternative, no retry");
        assert_eq!(stats.commits, 1);
    }

    #[test]
    fn single_shard_passes_plans_through_unchanged() {
        let vms = fleet(&[4.0, 4.0]);
        let committed = committed_of(&vms);
        let pending = vec![job(0, 1.0), job(1, 2.0)];
        let ctx = SlotContext {
            slot: 0,
            vms: &vms,
            pending: &pending,
            committed: &committed,
            max_vm_capacity: rv(4.0),
        };
        let mut baseline = StaticPeakProvisioner;
        let expected = baseline.provision(&ctx);
        let mut p = sharded(1);
        let got = p.provision(&ctx);
        assert_eq!(got.placements, expected.placements);
        assert_eq!(p.name(), "static-peakx1");
    }

    #[test]
    fn queue_depths_track_the_deepest_slot() {
        let vms = fleet(&[4.0]);
        let committed = committed_of(&vms);
        let pending: Vec<PendingJobView> = (0..3).map(|i| job(i, 0.5)).collect();
        let ctx = SlotContext {
            slot: 0,
            vms: &vms,
            pending: &pending,
            committed: &committed,
            max_vm_capacity: rv(4.0),
        };
        let mut p = sharded(2);
        let _ = p.provision(&ctx);
        let empty: Vec<PendingJobView> = Vec::new();
        let ctx2 = SlotContext {
            slot: 1,
            vms: &vms,
            pending: &empty,
            committed: &committed,
            max_vm_capacity: rv(4.0),
        };
        let _ = p.provision(&ctx2);
        let stats = p.control_plane_stats().unwrap();
        assert_eq!(stats.max_queue_depth, 3);
        // Jobs 0 and 2 belong to shard 0; job 1 to shard 1.
        assert_eq!(stats.per_shard[0].max_queue_depth, 2);
        assert_eq!(stats.per_shard[1].max_queue_depth, 1);
    }

    #[test]
    fn killed_worker_is_restarted_and_its_slot_scheduled_inline() {
        let plan = ControlFaultPlan::new(vec![SlotShard { slot: 0, shard: 1 }], vec![], vec![]);
        let mut p = sharded_with_plan(2, plan);
        let vms = fleet(&[4.0, 4.0]);
        let committed = committed_of(&vms);
        let pending = vec![job(0, 1.0), job(1, 1.0)];
        let ctx = SlotContext {
            slot: 0,
            vms: &vms,
            pending: &pending,
            committed: &committed,
            max_vm_capacity: rv(4.0),
        };
        let got = p.provision(&ctx);
        // Both jobs place: shard 0 via its worker, shard 1 inline.
        assert_eq!(got.placements.len(), 2, "{got:?}");
        let stats = p.control_plane_stats().unwrap();
        assert_eq!(stats.worker_kills, 1, "{stats:?}");
        assert_eq!(stats.worker_restarts, 1, "{stats:?}");
        assert_eq!(stats.inline_slots, 1, "{stats:?}");
        assert_eq!(stats.per_shard[1].restarts, 1);
        assert_eq!(stats.per_shard[1].inline_slots, 1);
        // The restarted worker serves the next slot normally.
        let ctx2 = SlotContext {
            slot: 1,
            vms: &vms,
            pending: &pending,
            committed: &committed,
            max_vm_capacity: rv(4.0),
        };
        let again = p.provision(&ctx2);
        assert_eq!(again.placements.len(), 2, "{again:?}");
        assert_eq!(p.control_plane_stats().unwrap().inline_slots, 1);
        assert!(p.errors().is_empty(), "recovered without typed errors");
    }

    #[test]
    fn panicking_worker_is_caught_restarted_and_replaced_inline() {
        /// Panics the first time it is asked to provision; fine after a
        /// factory rebuild (the panic trigger is per-instance state).
        struct PanicOnce {
            armed: bool,
        }
        impl Provisioner for PanicOnce {
            fn name(&self) -> &str {
                "panic-once"
            }
            fn provision(&mut self, ctx: &SlotContext<'_>) -> ProvisionPlan {
                if self.armed && ctx.slot == 0 {
                    panic!("injected pipeline panic");
                }
                let mut inner = StaticPeakProvisioner;
                inner.provision(ctx)
            }
        }
        // Only the factory's first product is armed: the rebuilt instance
        // behaves, proving recovery rather than a crash loop.
        let factories: Vec<ProvisionerFactory> = {
            use std::sync::atomic::{AtomicUsize, Ordering};
            let calls = std::sync::Arc::new(AtomicUsize::new(0));
            vec![
                Box::new(|| Box::new(StaticPeakProvisioner) as _),
                Box::new(move || {
                    let n = calls.fetch_add(1, Ordering::SeqCst);
                    Box::new(PanicOnce { armed: n == 0 }) as _
                }),
            ]
        };
        let mut p =
            ShardedProvisioner::with_factories("static-peak", factories, ShardConfig::default());
        let vms = fleet(&[4.0, 4.0]);
        let committed = committed_of(&vms);
        let pending = vec![job(0, 1.0), job(1, 1.0)];
        let ctx = SlotContext {
            slot: 0,
            vms: &vms,
            pending: &pending,
            committed: &committed,
            max_vm_capacity: rv(4.0),
        };
        let got = p.provision(&ctx);
        assert_eq!(got.placements.len(), 2, "inline covers the panic: {got:?}");
        let stats = p.control_plane_stats().unwrap();
        assert_eq!(stats.worker_panics, 1, "{stats:?}");
        assert_eq!(stats.worker_restarts, 1, "{stats:?}");
        // Next slot, the rebuilt worker answers for itself.
        let ctx2 = SlotContext {
            slot: 1,
            vms: &vms,
            pending: &pending,
            committed: &committed,
            max_vm_capacity: rv(4.0),
        };
        let again = p.provision(&ctx2);
        assert_eq!(again.placements.len(), 2, "{again:?}");
        assert_eq!(p.control_plane_stats().unwrap().inline_slots, 1);
    }

    /// Which callback [`PanicInCallback`] blows up in.
    #[derive(Clone, Copy, PartialEq)]
    enum Callback {
        JobsCompleted,
        ServiceLevel,
    }

    /// Places like static peak, but panics in one callback while armed.
    struct PanicInCallback {
        armed: bool,
        callback: Callback,
    }

    impl Provisioner for PanicInCallback {
        fn name(&self) -> &str {
            "panic-in-callback"
        }
        fn provision(&mut self, ctx: &SlotContext<'_>) -> ProvisionPlan {
            StaticPeakProvisioner.provision(ctx)
        }
        fn on_jobs_completed(&mut self, _: &[JobCompletion]) {
            if self.armed && self.callback == Callback::JobsCompleted {
                panic!("injected completion panic");
            }
        }
        fn set_service_level(&mut self, _: u8) {
            if self.armed && self.callback == Callback::ServiceLevel {
                panic!("injected service-level panic");
            }
        }
    }

    /// Shard 1 panics in `callback` when `trigger` fires between slots 0
    /// and 1. The panic must be counted, the shard rebuilt from its
    /// factory and scheduled inline for slot 1, and the rebuilt shard must
    /// serve its own job in slot 2.
    fn assert_callback_panic_recovers(
        callback: Callback,
        trigger: impl FnOnce(&mut ShardedProvisioner),
    ) {
        // Only the factory's first product is armed: the rebuilt instance
        // behaves, proving recovery rather than a crash loop.
        let factories: Vec<ProvisionerFactory> = {
            use std::sync::atomic::{AtomicUsize, Ordering};
            let calls = std::sync::Arc::new(AtomicUsize::new(0));
            vec![
                Box::new(|| Box::new(StaticPeakProvisioner) as _),
                Box::new(move || {
                    let n = calls.fetch_add(1, Ordering::SeqCst);
                    Box::new(PanicInCallback {
                        armed: n == 0,
                        callback,
                    }) as _
                }),
            ]
        };
        let mut p =
            ShardedProvisioner::with_factories("static-peak", factories, ShardConfig::default());
        let vms = fleet(&[4.0, 4.0]);
        let committed = committed_of(&vms);
        let pending = vec![job(0, 1.0), job(1, 1.0)];
        let ctx = |slot| SlotContext {
            slot,
            vms: &vms,
            pending: &pending,
            committed: &committed,
            max_vm_capacity: rv(4.0),
        };
        assert_eq!(p.provision(&ctx(0)).placements.len(), 2);
        trigger(&mut p);
        let got = p.provision(&ctx(1));
        assert_eq!(got.placements.len(), 2, "inline covers the shard: {got:?}");
        assert_eq!(p.shard_health()[1].last_outcome, ShardSlotOutcome::FellBack);
        let again = p.provision(&ctx(2));
        assert!(again.placements.iter().any(|pl| pl.job == 1), "{again:?}");
        assert_eq!(p.shard_health()[1].last_outcome, ShardSlotOutcome::Served);
        let stats = p.control_plane_stats().unwrap();
        assert_eq!(stats.worker_panics, 1, "{stats:?}");
        assert_eq!(stats.worker_restarts, 1, "{stats:?}");
        assert_eq!(stats.inline_slots, 1, "{stats:?}");
        assert_eq!(stats.per_shard[1].restarts, 1, "{stats:?}");
        assert!(p.errors().is_empty());
    }

    #[test]
    fn completion_callback_panic_is_counted_and_recovered() {
        assert_callback_panic_recovers(Callback::JobsCompleted, |p| {
            // Job 1 is owned by shard 1.
            p.on_jobs_completed(&[JobCompletion {
                job: 1,
                handle: corp_sim::JobHandle::DETACHED,
                unused_history: Vec::new(),
            }]);
        });
    }

    #[test]
    fn service_level_callback_panic_is_counted_and_recovered() {
        assert_callback_panic_recovers(Callback::ServiceLevel, |p| p.set_service_level(1));
    }

    #[test]
    fn dropped_requests_and_delayed_replies_fall_back_inline() {
        let plan = ControlFaultPlan::new(
            vec![],
            vec![SlotShard { slot: 0, shard: 0 }],
            vec![SlotShard { slot: 1, shard: 1 }],
        );
        let mut p = sharded_with_plan(2, plan);
        let vms = fleet(&[4.0, 4.0]);
        let committed = committed_of(&vms);
        let pending = vec![job(0, 1.0), job(1, 1.0)];
        for slot in 0..3u64 {
            let ctx = SlotContext {
                slot,
                vms: &vms,
                pending: &pending,
                committed: &committed,
                max_vm_capacity: rv(4.0),
            };
            let got = p.provision(&ctx);
            assert_eq!(got.placements.len(), 2, "slot {slot}: {got:?}");
        }
        let stats = p.control_plane_stats().unwrap();
        assert_eq!(stats.messages_dropped, 1, "{stats:?}");
        assert_eq!(stats.messages_delayed, 1, "{stats:?}");
        assert_eq!(stats.inline_slots, 2, "{stats:?}");
        // Neither fault killed the shard: no restarts, and the delayed
        // plan was discarded, not misapplied.
        assert_eq!(stats.worker_restarts, 0, "{stats:?}");
        assert!(p.errors().is_empty());
    }

    #[test]
    fn factoryless_worker_death_degrades_to_permanent_inline() {
        let plan = ControlFaultPlan::new(vec![SlotShard { slot: 0, shard: 0 }], vec![], vec![]);
        let inners: Vec<Box<dyn Provisioner + Send>> = (0..2)
            .map(|_| Box::new(StaticPeakProvisioner) as _)
            .collect();
        let mut p = ShardedProvisioner::new(
            "static-peak",
            inners,
            ShardConfig {
                fault_plan: Some(plan),
            },
        );
        let vms = fleet(&[4.0, 4.0]);
        let committed = committed_of(&vms);
        let pending = vec![job(0, 1.0), job(1, 1.0)];
        for slot in 0..3u64 {
            let ctx = SlotContext {
                slot,
                vms: &vms,
                pending: &pending,
                committed: &committed,
                max_vm_capacity: rv(4.0),
            };
            let got = p.provision(&ctx);
            assert_eq!(got.placements.len(), 2, "slot {slot}: {got:?}");
        }
        let stats = p.control_plane_stats().unwrap();
        assert_eq!(stats.worker_kills, 1);
        assert_eq!(stats.worker_restarts, 0, "no factory, no rebirth");
        assert_eq!(stats.inline_slots, 3, "shard 0 inline every slot");
        assert_eq!(
            p.errors(),
            &[ClusterError::WorkerUnrecoverable { shard: 0 }],
            "typed error recorded exactly once"
        );
    }

    #[test]
    fn forced_inline_isolates_a_shard_without_failure_accounting() {
        let mut p = sharded(2);
        let vms = fleet(&[4.0, 4.0]);
        let committed = committed_of(&vms);
        let pending = vec![job(0, 1.0), job(1, 1.0)];
        p.set_forced_inline(1, true);
        for slot in 0..2u64 {
            let ctx = SlotContext {
                slot,
                vms: &vms,
                pending: &pending,
                committed: &committed,
                max_vm_capacity: rv(4.0),
            };
            let got = p.provision(&ctx);
            assert_eq!(got.placements.len(), 2, "isolated shard places inline");
        }
        let health = p.shard_health();
        assert_eq!(health[0].last_outcome, ShardSlotOutcome::Served);
        assert_eq!(health[1].last_outcome, ShardSlotOutcome::Isolated);
        assert!(health[1].alive, "isolation never kills the worker");
        let stats = p.control_plane_stats().unwrap();
        assert_eq!(stats.isolated_slots, 2);
        assert_eq!(stats.per_shard[1].isolated_slots, 2);
        assert_eq!(stats.inline_slots, 0, "isolation is not a failure");
        // Release: the worker serves again immediately.
        p.set_forced_inline(1, false);
        let ctx = SlotContext {
            slot: 2,
            vms: &vms,
            pending: &pending,
            committed: &committed,
            max_vm_capacity: rv(4.0),
        };
        let _ = p.provision(&ctx);
        assert_eq!(
            p.shard_health()[1].last_outcome,
            ShardSlotOutcome::Served,
            "released shard serves from its (still warm) worker"
        );
    }

    #[test]
    fn nonfinite_proposals_are_refused_in_arbitration() {
        /// Proposes a NaN allocation for every pending job.
        struct NanPlacer;
        impl Provisioner for NanPlacer {
            fn name(&self) -> &str {
                "nan-placer"
            }
            fn provision(&mut self, ctx: &SlotContext<'_>) -> ProvisionPlan {
                let mut plan = ProvisionPlan::default();
                for j in ctx.pending {
                    plan.placements.push(Placement {
                        job: j.id,
                        vm: 0,
                        allocation: ResourceVector::splat(f64::NAN),
                    });
                }
                plan
            }
        }
        let mut p = ShardedProvisioner::new(
            "nan",
            vec![Box::new(NanPlacer) as _],
            ShardConfig::default(),
        );
        let vms = fleet(&[4.0]);
        let committed = committed_of(&vms);
        let pending = vec![job(0, 1.0)];
        let ctx = SlotContext {
            slot: 0,
            vms: &vms,
            pending: &pending,
            committed: &committed,
            max_vm_capacity: rv(4.0),
        };
        let got = p.provision(&ctx);
        assert!(got.placements.is_empty(), "{got:?}");
        let stats = p.control_plane_stats().unwrap();
        assert_eq!(stats.per_shard[0].aborts, 1, "{stats:?}");
        assert!(p.store().unwrap().holds_invariants(1e-9));
    }
}
