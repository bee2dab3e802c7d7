//! Timing decorators around the workspace's public layer boundaries.
//!
//! The four pipeline stage traits are wrapped one by one and recomposed
//! through `ProvisioningPipeline::compose`; whole provisioners (a
//! monolithic pipeline, each shard's pipeline, the sharded coordinator)
//! are wrapped at the engine's `Provisioner` interface; the daemon's
//! arrival iterator is wrapped as a feed. A decorator forwards every call
//! unchanged, so a decorated run makes exactly the decisions of a plain
//! one (the self-tests pin this byte for byte).
//!
//! [`Probe`] and [`Feed`] are not tracing: they stamp the hand-off and
//! placement instants the end-to-end placement latency is measured from,
//! and run in traced and untraced runs alike.

use crate::spans::{Counts, Lane, Name, SlotSample};
use corp_core::pipeline::{
    Claim, JobPacker, PendingOutcome, PlacementBackend, ReallocationGate, UsagePredictor,
    WindowForecast,
};
use corp_core::{JobEntity, PackableJob};
use corp_sim::control_plane::ControlPlaneStats;
use corp_sim::{JobCompletion, JobId, ProvisionPlan, Provisioner, ResourceVector, SlotContext};
use corp_trace::{JobSpec, NUM_RESOURCES};
use rand::rngs::StdRng;
use std::time::Instant;

/// Times `UsagePredictor` calls.
pub struct TimedPredictor<U> {
    /// The decorated stage.
    pub inner: U,
    lane: Lane,
}

impl<U> TimedPredictor<U> {
    /// Decorates `inner` on `lane`.
    pub fn new(inner: U, lane: &Lane) -> Self {
        TimedPredictor {
            inner,
            lane: lane.clone(),
        }
    }
}

impl<U: UsagePredictor> UsagePredictor for TimedPredictor<U> {
    fn ingest(&mut self, ctx: &SlotContext<'_>, window: u64, outcomes: &mut Vec<PendingOutcome>) {
        let inner = &mut self.inner;
        self.lane
            .time(Name::PredictIngest, || inner.ingest(ctx, window, outcomes));
    }

    fn forecast(&mut self, ctx: &SlotContext<'_>) -> WindowForecast {
        Counts::add(&self.lane.tracer().counts.forecast_calls, 1);
        let inner = &mut self.inner;
        self.lane
            .time(Name::PredictForecast, || inner.forecast(ctx))
    }

    fn unlocked(&self, resource: usize) -> bool {
        self.inner.unlocked(resource)
    }

    fn absorb_completion(&mut self, job: u64, unused_history: &[Vec<f64>]) {
        let inner = &mut self.inner;
        self.lane.time(Name::PredictAbsorb, || {
            inner.absorb_completion(job, unused_history)
        });
    }
}

/// Times `ReallocationGate` calls and counts the adjustments they add.
pub struct TimedGate<G> {
    inner: G,
    lane: Lane,
}

impl<G> TimedGate<G> {
    /// Decorates `inner` on `lane`.
    pub fn new(inner: G, lane: &Lane) -> Self {
        TimedGate {
            inner,
            lane: lane.clone(),
        }
    }
}

impl<G: ReallocationGate> ReallocationGate for TimedGate<G> {
    fn reallocate(
        &mut self,
        ctx: &SlotContext<'_>,
        forecast: &WindowForecast,
        unlocked: &[bool; NUM_RESOURCES],
        window: u64,
        pools: &mut [ResourceVector],
        outcomes: &mut Vec<PendingOutcome>,
        plan: &mut ProvisionPlan,
    ) {
        let before = plan.adjustments.len();
        let inner = &mut self.inner;
        self.lane.time(Name::GateReallocate, || {
            inner.reallocate(ctx, forecast, unlocked, window, pools, outcomes, plan)
        });
        let added = plan.adjustments.len().saturating_sub(before) as u64;
        Counts::add(&self.lane.tracer().counts.adjustments, added);
    }
}

/// Times `JobPacker::pack` and counts jobs in and entities out.
pub struct TimedPacker<K> {
    inner: K,
    lane: Lane,
}

impl<K> TimedPacker<K> {
    /// Decorates `inner` on `lane`.
    pub fn new(inner: K, lane: &Lane) -> Self {
        TimedPacker {
            inner,
            lane: lane.clone(),
        }
    }
}

impl<K: JobPacker> JobPacker for TimedPacker<K> {
    fn pack(&self, jobs: &[PackableJob], reference: &ResourceVector) -> Vec<JobEntity> {
        let entities = self
            .lane
            .time(Name::Pack, || self.inner.pack(jobs, reference));
        let counts = &self.lane.tracer().counts;
        Counts::add(&counts.jobs_in, jobs.len() as u64);
        Counts::add(&counts.entities_out, entities.len() as u64);
        entities
    }
}

/// Times `PlacementBackend` calls and counts claims and hits.
pub struct TimedBackend<B> {
    inner: B,
    lane: Lane,
}

impl<B> TimedBackend<B> {
    /// Decorates `inner` on `lane`.
    pub fn new(inner: B, lane: &Lane) -> Self {
        TimedBackend {
            inner,
            lane: lane.clone(),
        }
    }
}

impl<B: PlacementBackend> PlacementBackend for TimedBackend<B> {
    fn begin_slot(&mut self, pools: &[ResourceVector], reference: &ResourceVector) {
        let inner = &mut self.inner;
        self.lane
            .time(Name::PlaceBeginSlot, || inner.begin_slot(pools, reference));
    }

    fn choose(
        &mut self,
        pools: &[ResourceVector],
        fit: &ResourceVector,
        hint: Option<usize>,
        reference: &ResourceVector,
        rng: &mut StdRng,
    ) -> Claim {
        let inner = &mut self.inner;
        let claim = self.lane.time(Name::PlaceChoose, || {
            inner.choose(pools, fit, hint, reference, rng)
        });
        let counts = &self.lane.tracer().counts;
        Counts::add(&counts.claims, 1);
        Counts::add(&counts.hits, u64::from(claim.vm.is_some()));
        claim
    }

    fn debit(&mut self, vm: usize, pool_after: &ResourceVector, reference: &ResourceVector) {
        let inner = &mut self.inner;
        self.lane
            .time(Name::PlaceDebit, || inner.debit(vm, pool_after, reference));
    }
}

/// Times a whole provisioner at the engine's interface. On the
/// coordinator lane it also samples the slot's queue and times the
/// engine's completion callback; on a shard lane it only marks the slot
/// its stage decorators serve.
pub struct TimedProvisioner<P> {
    inner: P,
    lane: Lane,
    name: Name,
    coordinator: bool,
}

impl<P> TimedProvisioner<P> {
    /// Decorates the coordinator-lane provisioner `inner`; its provision
    /// spans are named `name`.
    pub fn coordinator(inner: P, lane: &Lane, name: Name) -> Self {
        TimedProvisioner {
            inner,
            lane: lane.clone(),
            name,
            coordinator: true,
        }
    }

    /// Decorates one shard's pipeline on its own lane.
    pub fn shard(inner: P, lane: &Lane) -> Self {
        TimedProvisioner {
            inner,
            lane: lane.clone(),
            name: Name::ShardProvision,
            coordinator: false,
        }
    }
}

impl<P: Provisioner> Provisioner for TimedProvisioner<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn provision(&mut self, ctx: &SlotContext<'_>) -> ProvisionPlan {
        self.lane.set_slot(ctx.slot);
        if self.coordinator {
            let running: usize = ctx.vms.iter().map(|v| v.jobs.len()).sum();
            self.lane.tracer().sample(SlotSample {
                pending: ctx.pending.len(),
                active: running + ctx.pending.len(),
            });
        }
        let inner = &mut self.inner;
        self.lane.time(self.name, || inner.provision(ctx))
    }

    fn on_job_completed(&mut self, job: JobId, unused_history: &[Vec<f64>]) {
        self.inner.on_job_completed(job, unused_history);
    }

    fn on_jobs_completed(&mut self, completed: &[JobCompletion]) {
        let inner = &mut self.inner;
        if self.coordinator {
            self.lane.time(Name::EngineCompletions, || {
                inner.on_jobs_completed(completed)
            });
        } else {
            inner.on_jobs_completed(completed);
        }
    }

    fn control_plane_stats(&self) -> Option<ControlPlaneStats> {
        self.inner.control_plane_stats()
    }

    fn set_service_level(&mut self, level: u8) {
        self.inner.set_service_level(level);
    }

    fn full_view_period(&self) -> u64 {
        self.inner.full_view_period()
    }
}

/// The outermost provisioner wrapper of every run: stamps the instant each
/// `provision` call returns, and its slot, against every job its plan
/// places.
pub struct Probe<'a> {
    inner: &'a mut dyn Provisioner,
    /// `(job, instant the placing provision call returned, slot)`, plan
    /// order.
    pub placed: Vec<(JobId, Instant, u64)>,
}

impl<'a> Probe<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn Provisioner) -> Self {
        Probe {
            inner,
            placed: Vec::new(),
        }
    }
}

impl Provisioner for Probe<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn provision(&mut self, ctx: &SlotContext<'_>) -> ProvisionPlan {
        let plan = self.inner.provision(ctx);
        let now = Instant::now();
        self.placed
            .extend(plan.placements.iter().map(|p| (p.job, now, ctx.slot)));
        plan
    }

    fn on_job_completed(&mut self, job: JobId, unused_history: &[Vec<f64>]) {
        self.inner.on_job_completed(job, unused_history);
    }

    fn on_jobs_completed(&mut self, completed: &[JobCompletion]) {
        self.inner.on_jobs_completed(completed);
    }

    fn control_plane_stats(&self) -> Option<ControlPlaneStats> {
        self.inner.control_plane_stats()
    }

    fn set_service_level(&mut self, level: u8) {
        self.inner.set_service_level(level);
    }

    fn full_view_period(&self) -> u64 {
        self.inner.full_view_period()
    }
}

/// The daemon's arrival feed: stamps the instant each job leaves the
/// decoder (the hand-off), and in a traced run times each `next` call.
pub struct Feed<'a, I> {
    inner: I,
    /// `(job, instant the daemon pulled it)`, arrival order.
    handoff: &'a mut Vec<(JobId, Instant)>,
    lane: Option<Lane>,
}

impl<'a, I> Feed<'a, I> {
    /// Wraps `inner`, appending hand-offs to `handoff`; `lane` turns on
    /// decode spans.
    pub fn new(inner: I, handoff: &'a mut Vec<(JobId, Instant)>, lane: Option<&Lane>) -> Self {
        Feed {
            inner,
            handoff,
            lane: lane.cloned(),
        }
    }
}

impl<I: Iterator<Item = JobSpec>> Iterator for Feed<'_, I> {
    type Item = JobSpec;

    fn next(&mut self) -> Option<JobSpec> {
        let inner = &mut self.inner;
        let spec = match &self.lane {
            Some(lane) => lane.time(Name::TraceDecode, || inner.next()),
            None => inner.next(),
        };
        if let Some(spec) = &spec {
            self.handoff.push((spec.id, Instant::now()));
        }
        spec
    }
}
