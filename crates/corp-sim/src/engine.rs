//! The slot-stepped simulation engine.
//!
//! Per slot the engine: admits arrivals, asks the [`Provisioner`] for a
//! plan (timing the decision and charging modeled communication latency per
//! action message), applies validated adjustments and placements, advances
//! running jobs under the strict-reservation execution model, resolves any
//! predictions targeting this slot, and records metrics.
//!
//! Two drivers share the same core. [`Simulation`] is the batch driver: it
//! owns a complete workload up front and steps the engine slot by slot
//! until the workload drains (the paper's evaluation mode). [`SlotEngine`]
//! is the core itself, exposed so event-driven callers (the `corp-serve`
//! daemon) can submit jobs as they arrive on a live stream and pump slots
//! one [`step`](SlotEngine::step) at a time — the decisions are the same
//! either way, byte for byte, because the slot body is the same code.
//!
//! ## Validation rules
//!
//! * An adjustment may not push a VM's committed total above capacity and
//!   may not be negative; invalid adjustments are dropped (counted).
//! * A placement must reference a pending job and fit the VM's free
//!   capacity at application time; invalid placements are dropped.
//! * Jobs whose peak request exceeds every VM's capacity are rejected at
//!   arrival (they could never run) and count as SLO violations.

use crate::cluster::Cluster;
use crate::faults::{corrupt_vector, FaultRuntime, FaultStats};
use crate::job::{JobId, JobState, RunningJob};
use crate::metrics::{MetricsCollector, PredictionOutcome, UtilizationSample};
use crate::provisioner::{
    JobCompletion, PendingJobView, PredictionRecord, Provisioner, SlotContext, VmView,
    VIEW_HISTORY_CAP,
};
use crate::resources::ResourceVector;
use crate::ring::{copy_newest, copy_tail, BoundedRing};
use crate::store::{JobHandle, JobStore};
use corp_faults::{FaultEvent, FaultTimeline};
use corp_trace::{JobSpec, NUM_RESOURCES};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::time::Instant;

/// Engine knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimulationOptions {
    /// Hard stop: slots simulated past the last arrival before declaring
    /// remaining jobs unfinished.
    pub max_slots: u64,
    /// Include measured wall-clock decision time in the overhead metric
    /// (always true for overhead experiments; harmless elsewhere).
    pub measure_decision_time: bool,
    /// Prediction-error tolerance for the error-rate metric, as a fraction
    /// of each resource's maximum VM capacity (`eps_k = frac * C'_k`) —
    /// resource types live on very different scales (cores vs. hundreds of
    /// GB), so a relative tolerance is the only meaningful one.
    pub prediction_eps_frac: f64,
    /// Recycle each job's arena slot (record, histories, SoA columns)
    /// as soon as it completes or is rejected, bounding engine memory by
    /// *active* jobs instead of total jobs submitted. Reports are
    /// byte-identical either way; the cost is that
    /// [`SlotEngine::jobs`] no longer retains terminal jobs for post-run
    /// inspection. `false` everywhere except streaming soak runs
    /// (`corp-exp scale`).
    pub reclaim_completed: bool,
}

impl Default for SimulationOptions {
    fn default() -> Self {
        SimulationOptions {
            max_slots: 100_000,
            measure_decision_time: true,
            prediction_eps_frac: 0.25,
            reclaim_completed: false,
        }
    }
}

/// Final report of one run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimulationReport {
    /// Provisioner name.
    pub provisioner: String,
    /// Environment profile name.
    pub environment: String,
    /// Number of jobs submitted.
    pub num_jobs: usize,
    /// Aggregate per-resource utilization (time-aggregated Eq. 1).
    pub utilization: [f64; NUM_RESOURCES],
    /// Aggregate weighted overall utilization (Eq. 2).
    pub overall_utilization: f64,
    /// SLO violation rate over terminal jobs (unfinished jobs count as
    /// violations).
    pub slo_violation_rate: f64,
    /// Prediction error rate at the configured tolerance (Fig. 6 metric).
    pub prediction_error_rate: f64,
    /// Number of predictions resolved.
    pub predictions_resolved: usize,
    /// Total allocation overhead in milliseconds (Figs. 10/14 metric).
    pub overhead_ms: f64,
    /// Completed job count.
    pub completed: usize,
    /// Completed jobs that violated their SLO.
    pub violated: usize,
    /// Arrival-time rejections.
    pub rejected: usize,
    /// Jobs still unfinished at the slot cap.
    pub unfinished: usize,
    /// Slots actually simulated.
    pub slots_run: u64,
    /// Mean response time over completed jobs, in slots.
    pub mean_response_slots: f64,
    /// Dropped invalid plan actions (diagnostics; 0 for well-behaved
    /// provisioners).
    pub invalid_actions: usize,
    /// Dropped non-finite (NaN/∞) action vectors — a subset of
    /// `invalid_actions`, split out because they indicate a poisoned
    /// pipeline rather than a mere capacity miss.
    pub nonfinite_actions: usize,
    /// Control-plane counters when the run used a sharded multi-scheduler
    /// provisioner; `None` for monolithic schedulers.
    pub control_plane: Option<crate::control_plane::ControlPlaneStats>,
    /// Fault-injection counters when the run carried a fault schedule;
    /// `None` for fault-free runs.
    pub faults: Option<FaultStats>,
}

/// What one [`SlotEngine::step`] did: the placements it applied, the jobs
/// that finished, and the arrivals it rejected. Event-driven drivers turn
/// these into `Completion` events and per-request placement latencies; the
/// batch driver ignores them.
#[derive(Debug, Clone, Default)]
pub struct SlotOutcome {
    /// `(job, vm)` for every placement applied this slot, application
    /// order.
    pub placements: Vec<(JobId, usize)>,
    /// Jobs that completed this slot, completion order (VM id ascending,
    /// scan order within a VM).
    pub completed: Vec<JobId>,
    /// Jobs rejected at admission this slot (request exceeds every VM).
    pub rejected: Vec<JobId>,
}

/// The reusable slot-stepping core: all engine state, pumped one slot at a
/// time.
///
/// Jobs enter through [`submit`](Self::submit) (queued for admission at the
/// next step) and the engine advances through [`step`](Self::step); when
/// the caller decides the run is over, [`report`](Self::report) folds the
/// accumulated metrics into a [`SimulationReport`]. [`Simulation`] drives
/// this from a pre-sorted arrival list; the `corp-serve` daemon drives it
/// from a timestamped event queue. Both produce identical decisions for
/// identical admission sequences because this is the only slot body.
pub struct SlotEngine {
    cluster: Cluster,
    options: SimulationOptions,
    store: JobStore,
    index_of: HashMap<JobId, JobHandle>,
    metrics: MetricsCollector,
    vm_unused_history: Vec<BoundedRing>,
    pending_predictions: Vec<PredictionRecord>,
    invalid_actions: usize,
    nonfinite_actions: usize,
    faults: Option<FaultRuntime>,
    max_capacity: ResourceVector,
    vm_committed: Vec<ResourceVector>,
    vm_jobs: Vec<Vec<JobHandle>>,
    /// Admitted jobs awaiting placement (engine-side pending queue).
    pending: Vec<JobHandle>,
    /// Jobs submitted since the last step, admitted (or rejected) at the
    /// start of the next one, submission-ordered.
    incoming: Vec<JobHandle>,
    active: usize,
    slot: u64,
    // Per-slot scratch, reused across steps instead of reallocated.
    slot_vm_unused: Vec<ResourceVector>,
    vm_views: Vec<VmView>,
    pending_views: Vec<PendingJobView>,
    completions: Vec<JobCompletion>,
    // Idle-VM view skip bookkeeping (pooled path, fault-free runs only).
    // A VM whose view provably cannot differ from a rebuild — empty,
    // untouched since its last rebuild, same full/newest mode, and an
    // unused-history ring that was already saturated all-zero when last
    // rebuilt — keeps its buffers as-is, making the per-slot view cost
    // proportional to *occupied* VMs.
    view_dirty: Vec<bool>,
    view_last_full: Vec<Option<bool>>,
    view_zero_ok: Vec<bool>,
    zero_streak: Vec<u32>,
}

impl SlotEngine {
    /// Builds an empty engine over `cluster`: no jobs yet, slot 0 next.
    pub fn new(cluster: Cluster, options: SimulationOptions) -> Self {
        let num_vms = cluster.vms.len();
        let max_capacity = cluster.max_vm_capacity();
        let vm_views = cluster
            .vms
            .iter()
            .map(|vm| VmView {
                id: vm.id,
                capacity: vm.capacity,
                committed: ResourceVector::ZERO,
                free: ResourceVector::ZERO,
                jobs: Vec::new(),
                unused_history: Vec::new(),
            })
            .collect();
        SlotEngine {
            cluster,
            store: JobStore::new(options.reclaim_completed),
            options,
            index_of: HashMap::new(),
            metrics: MetricsCollector::new(),
            vm_unused_history: vec![BoundedRing::new(); num_vms],
            pending_predictions: Vec::new(),
            invalid_actions: 0,
            nonfinite_actions: 0,
            faults: None,
            max_capacity,
            vm_committed: vec![ResourceVector::ZERO; num_vms],
            vm_jobs: vec![Vec::new(); num_vms],
            pending: Vec::new(),
            incoming: Vec::new(),
            active: 0,
            slot: 0,
            slot_vm_unused: vec![ResourceVector::ZERO; num_vms],
            vm_views,
            pending_views: Vec::new(),
            completions: Vec::new(),
            view_dirty: vec![true; num_vms],
            view_last_full: vec![None; num_vms],
            view_zero_ok: vec![false; num_vms],
            zero_streak: vec![0; num_vms],
        }
    }

    /// Arms the engine to replay `timeline` alongside the workload (see
    /// [`Simulation::with_fault_timeline`]).
    pub fn with_fault_timeline(mut self, timeline: FaultTimeline) -> Self {
        let num_vms = self.cluster.vms.len();
        self.faults = Some(FaultRuntime::new(timeline, num_vms));
        self
    }

    /// Registers a job for admission at the start of the next
    /// [`step`](Self::step). Admission (and oversized-request rejection)
    /// happens inside the step so that fault events scheduled for the slot
    /// apply first, exactly as in the batch loop.
    pub fn submit(&mut self, spec: JobSpec) {
        let id = spec.id;
        let handle = self.store.insert(spec);
        self.index_of.insert(id, handle);
        self.incoming.push(handle);
    }

    /// The next slot to be simulated (equivalently: slots simulated so
    /// far).
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// The options this engine was built with (external drivers read the
    /// slot cap from here).
    pub fn options(&self) -> &SimulationOptions {
        &self.options
    }

    /// Jobs currently admitted but not finished (pending + running).
    pub fn active(&self) -> usize {
        self.active
    }

    /// Read access to the metrics collected so far.
    pub fn metrics(&self) -> &MetricsCollector {
        &self.metrics
    }

    /// Read access to the job arena. With the default append-only store
    /// this is every submitted job's state, submission-ordered; under
    /// [`SimulationOptions::reclaim_completed`] terminal jobs are
    /// recycled, so slots hold tombstones (id `u64::MAX`) or reused
    /// records and order carries no meaning.
    pub fn jobs(&self) -> &[RunningJob] {
        self.store.as_slice()
    }

    /// The backing job store (arena occupancy and lifetime counters).
    pub fn store(&self) -> &JobStore {
        &self.store
    }

    /// Simulates one slot under `provisioner` and returns what happened.
    pub fn step(&mut self, provisioner: &mut dyn Provisioner) -> SlotOutcome {
        let mut outcome = SlotOutcome::default();
        let slot = self.slot;

        // 0. Apply the faults scheduled for this slot, before arrivals
        // and provisioning: a crash kills the VM's running jobs
        // (progress lost — no checkpointing), re-enqueues them, and
        // releases the VM's committed capacity.
        if let Some(faults) = self.faults.as_mut() {
            let num_vms = self.cluster.vms.len();
            for event in faults.start_slot(slot) {
                match event {
                    FaultEvent::VmCrash { vm } if vm < num_vms && !faults.down[vm] => {
                        faults.down[vm] = true;
                        faults.stats.vm_crashes += 1;
                        for h in self.vm_jobs[vm].drain(..) {
                            faults.stats.jobs_killed += 1;
                            faults.kill_slot.insert(self.store.job(h).id(), slot);
                            let job = self.store.job_mut(h);
                            job.state = JobState::Pending;
                            job.progress = 0.0;
                            self.store.set_allocation(h, ResourceVector::ZERO);
                            self.pending.push(h);
                        }
                        self.vm_committed[vm] = ResourceVector::ZERO;
                    }
                    FaultEvent::VmRecover { vm } if vm < num_vms && faults.down[vm] => {
                        faults.down[vm] = false;
                        faults.stats.vm_recoveries += 1;
                    }
                    FaultEvent::VmDegrade { vm, factor } if vm < num_vms => {
                        faults.degrade[vm] = factor.clamp(0.05, 1.0);
                    }
                    FaultEvent::VmRestore { vm } if vm < num_vms => {
                        faults.degrade[vm] = 1.0;
                    }
                    FaultEvent::PoisonViews { vm, kind } if vm < num_vms => {
                        faults.poison[vm] = Some(kind);
                        faults.stats.poisoned_views += 1;
                    }
                    _ => {}
                }
            }
            faults.tally_slot();
        }

        // 1. Admit arrivals submitted since the last step.
        for i in 0..self.incoming.len() {
            let h = self.incoming[i];
            if !self.store.requested(h).fits_within(&self.max_capacity) {
                let id = self.store.job(h).id();
                self.store.job_mut(h).state = JobState::Rejected;
                self.metrics.record_rejection();
                outcome.rejected.push(id);
                if self.options.reclaim_completed {
                    self.index_of.remove(&id);
                    self.store.release(h);
                }
            } else {
                self.pending.push(h);
                self.active += 1;
            }
        }
        self.incoming.clear();

        // 2. Ask the provisioner for a plan.
        let plan = {
            // How often the provisioner reads deep history tails (see
            // `Provisioner::full_view_period`). Off-period slots carry
            // only the newest sample of each history, skipping the deep
            // copies. The determinism suite holds window-driven
            // provisioners to their declared period by rerunning them
            // with full views every slot.
            let full_view_period = provisioner.full_view_period().max(1);
            let full = slot % full_view_period == 0;
            let copy_history: &dyn Fn(&[ResourceVector], &mut Vec<ResourceVector>) =
                if full { &copy_tail } else { &copy_newest };
            let skip_enabled = self.faults.is_none();
            for vm in &self.cluster.vms {
                let view = &mut self.vm_views[vm.id];
                // A down VM presents as zero capacity with nothing
                // running: provisioners cannot place onto it, and
                // sharded stores rebase it to an empty ledger.
                if self.faults.as_ref().is_some_and(|f| f.down[vm.id]) {
                    view.capacity = ResourceVector::ZERO;
                    view.committed = ResourceVector::ZERO;
                    view.free = ResourceVector::ZERO;
                    view.jobs.clear();
                    view.unused_history.clear();
                    continue;
                }
                let occupants = &self.vm_jobs[vm.id];
                // Idle-VM skip: nothing placed/completed here since the
                // last rebuild (`!dirty`), same full/newest mode, and
                // the unused-history ring was already saturated
                // all-zero at that rebuild — every push since has been
                // another zero evicting a zero, so a rebuild would
                // reproduce the buffers bit for bit. Leave them be.
                if skip_enabled
                    && occupants.is_empty()
                    && !self.view_dirty[vm.id]
                    && self.view_last_full[vm.id] == Some(full)
                    && self.view_zero_ok[vm.id]
                {
                    continue;
                }
                view.capacity = vm.capacity;
                view.committed = self.vm_committed[vm.id];
                view.free = vm.capacity.saturating_sub(&self.vm_committed[vm.id]);
                // Match the view list to the VM's occupancy, keeping
                // the history buffers of surviving entries alive.
                view.jobs.truncate(occupants.len());
                while view.jobs.len() < occupants.len() {
                    view.jobs.push(crate::provisioner::RunningJobView {
                        id: 0,
                        requested: ResourceVector::ZERO,
                        allocation: ResourceVector::ZERO,
                        recent_demand: Vec::new(),
                        recent_unused: Vec::new(),
                    });
                }
                for (jv, &h) in view.jobs.iter_mut().zip(occupants) {
                    let j = self.store.job(h);
                    jv.id = j.id();
                    jv.requested = self.store.requested(h);
                    jv.allocation = self.store.allocation(h);
                    copy_history(&j.observed_demand, &mut jv.recent_demand);
                    copy_history(&j.observed_unused, &mut jv.recent_unused);
                }
                let ring = &self.vm_unused_history[vm.id];
                if full {
                    ring.copy_all(&mut view.unused_history);
                } else {
                    ring.copy_newest(&mut view.unused_history);
                }
                self.view_dirty[vm.id] = false;
                self.view_last_full[vm.id] = Some(full);
                self.view_zero_ok[vm.id] = occupants.is_empty()
                    && ring.len() == VIEW_HISTORY_CAP
                    && self.zero_streak[vm.id] >= VIEW_HISTORY_CAP as u32;
                // Poisoning corrupts only the monitoring tails the
                // provisioner sees this slot; ground truth stays
                // intact (the tails are rewritten from it next slot).
                if let Some(kind) = self.faults.as_ref().and_then(|f| f.poison[vm.id]) {
                    for job in &mut view.jobs {
                        if let Some(v) = job.recent_demand.last_mut() {
                            corrupt_vector(v, kind);
                        }
                        if let Some(v) = job.recent_unused.last_mut() {
                            corrupt_vector(v, kind);
                        }
                    }
                    if let Some(v) = view.unused_history.last_mut() {
                        corrupt_vector(v, kind);
                    }
                }
            }
            self.pending_views.clear();
            let store = &self.store;
            self.pending_views.extend(self.pending.iter().map(|&h| {
                let j = store.job(h);
                PendingJobView {
                    id: j.id(),
                    requested: store.requested(h),
                    arrival_slot: j.spec.arrival_slot,
                    slo_slots: j.spec.slo_slots,
                    handle: h,
                }
            }));
            let ctx = SlotContext {
                slot,
                vms: &self.vm_views,
                pending: &self.pending_views,
                committed: &self.vm_committed,
                max_vm_capacity: self.max_capacity,
            };
            let started = Instant::now();
            let plan = provisioner.provision(&ctx);
            if self.options.measure_decision_time {
                self.metrics.overhead_us += started.elapsed().as_secs_f64() * 1e6;
            }
            plan
        };
        let messages = plan.adjustments.len() + plan.placements.len();
        self.metrics.overhead_us += messages as f64 * self.cluster.profile.comm_latency_us;
        self.pending_predictions.extend(plan.predictions);

        // 3. Apply allocation adjustments to running jobs. Shrinking
        // adjustments run first so that reclaim-and-restore bundles in
        // one plan never transit through a spuriously over-committed
        // state.
        let mut adjustments = plan.adjustments;
        adjustments.sort_by_key(|(job_id, new_alloc)| {
            let shrinking = self
                .index_of
                .get(job_id)
                .map(|&h| new_alloc.fits_within(&self.store.allocation(h)))
                .unwrap_or(false);
            !shrinking
        });
        for (job_id, new_alloc) in adjustments {
            let Some(&h) = self.index_of.get(&job_id) else {
                self.invalid_actions += 1;
                continue;
            };
            let JobState::Running { vm } = self.store.job(h).state else {
                self.invalid_actions += 1;
                continue;
            };
            if !new_alloc.is_finite() {
                self.invalid_actions += 1;
                self.nonfinite_actions += 1;
                continue;
            }
            if !new_alloc.is_nonnegative() {
                self.invalid_actions += 1;
                continue;
            }
            let new_alloc = new_alloc.clamp_nonnegative();
            let old = self.store.allocation(h);
            let candidate = self.vm_committed[vm] - old + new_alloc;
            if candidate
                .clamp_nonnegative()
                .fits_within(&self.cluster.vms[vm].capacity)
            {
                self.vm_committed[vm] = candidate.clamp_nonnegative();
                self.store.set_allocation(h, new_alloc);
            } else {
                self.invalid_actions += 1;
            }
        }

        // 4. Apply placements.
        for p in plan.placements {
            let Some(&h) = self.index_of.get(&p.job) else {
                self.invalid_actions += 1;
                continue;
            };
            if !p.allocation.is_finite() {
                self.invalid_actions += 1;
                self.nonfinite_actions += 1;
                continue;
            }
            let is_pending =
                matches!(self.store.job(h).state, JobState::Pending) && self.pending.contains(&h);
            if !is_pending || p.vm >= self.cluster.vms.len() || !p.allocation.is_nonnegative() {
                self.invalid_actions += 1;
                continue;
            }
            // Down VMs are out of the fleet: placements onto them are
            // dropped even though nominal capacity would admit them.
            if let Some(faults) = self.faults.as_mut() {
                if faults.down[p.vm] {
                    self.invalid_actions += 1;
                    faults.stats.dropped_down_vm_actions += 1;
                    continue;
                }
            }
            let alloc = p.allocation.clamp_nonnegative();
            let free = self.cluster.vms[p.vm]
                .capacity
                .saturating_sub(&self.vm_committed[p.vm]);
            if !alloc.fits_within(&free) {
                self.invalid_actions += 1;
                continue;
            }
            self.vm_committed[p.vm] += alloc;
            self.vm_jobs[p.vm].push(h);
            self.pending.retain(|&x| x != h);
            self.store.set_allocation(h, alloc);
            let job = self.store.job_mut(h);
            job.state = JobState::Running { vm: p.vm };
            job.placed_vm = Some(p.vm);
            if job.placed_slot.is_none() {
                job.placed_slot = Some(slot);
            }
            self.view_dirty[p.vm] = true;
            outcome.placements.push((p.job, p.vm));
            if let Some(faults) = self.faults.as_mut() {
                faults.note_placement(p.job, slot);
            }
        }

        // 5. Advance running jobs and collect per-slot totals.
        let mut slot_allocated = ResourceVector::ZERO;
        let mut slot_demanded = ResourceVector::ZERO;
        self.slot_vm_unused.fill(ResourceVector::ZERO);
        for (vm_id, jobs_here) in self.vm_jobs.iter().enumerate() {
            if jobs_here.is_empty() {
                self.vm_unused_history[vm_id].push(ResourceVector::ZERO);
                self.zero_streak[vm_id] = self.zero_streak[vm_id].saturating_add(1);
                continue;
            }
            self.zero_streak[vm_id] = 0;
            // Physical congestion: total true demand vs capacity.
            let mut total_demand = ResourceVector::ZERO;
            for &h in jobs_here {
                total_demand += self.store.job(h).current_demand();
            }
            // A degraded VM physically delivers only a fraction of its
            // nominal capacity; commitments are contractual and stay
            // against nominal, so only the congestion math scales.
            let cap = match self.faults.as_ref() {
                Some(f) if f.degrade[vm_id] < 1.0 => {
                    self.cluster.vms[vm_id].capacity.scaled(f.degrade[vm_id])
                }
                _ => self.cluster.vms[vm_id].capacity,
            };
            let mut congestion = 1.0f64;
            for k in 0..NUM_RESOURCES {
                if total_demand[k] > cap[k] && total_demand[k] > 0.0 {
                    congestion = congestion.min(cap[k] / total_demand[k]);
                }
            }
            for &h in jobs_here {
                let demand = self.store.job(h).current_demand();
                let allocation = self.store.allocation(h);
                let rate = congestion.min(allocation.coverage_of(&demand));
                let unused = allocation.saturating_sub(&demand);
                let job = self.store.job_mut(h);
                job.progress += rate;
                job.observed_demand.push(demand);
                job.observed_unused.push(unused);
                self.slot_vm_unused[vm_id] += unused;
                slot_allocated += allocation;
                slot_demanded += demand;
            }
            self.vm_unused_history[vm_id].push(self.slot_vm_unused[vm_id]);
        }
        self.metrics.record_slot(UtilizationSample {
            slot,
            allocated: slot_allocated,
            demanded: slot_demanded,
        });

        // 6. Resolve predictions targeting this slot: job-targeted
        // records score against that job's observed unused (dropped if
        // the job already finished), VM-targeted ones against the VM
        // total. Removal is swap_remove-style: matured records are
        // plucked without shifting the (much longer) still-pending
        // tail, so resolution costs O(matured) per slot instead of a
        // compaction of the whole queue. Resolved outcomes feed only
        // order-independent aggregates (counts and error rates), so the
        // removal order never reaches the report.
        {
            let mut i = 0;
            while i < self.pending_predictions.len() {
                if self.pending_predictions[i].target_slot > slot {
                    i += 1;
                    continue;
                }
                let p = self.pending_predictions.swap_remove(i);
                if p.target_slot != slot || p.resource >= NUM_RESOURCES {
                    continue; // stale or malformed: dropped unscored
                }
                let actual = match p.job {
                    Some(job_id) => match self.index_of.get(&job_id) {
                        Some(&h) if matches!(self.store.job(h).state, JobState::Running { .. }) => {
                            self.store
                                .job(h)
                                .observed_unused
                                .last()
                                .map(|u| u[p.resource])
                        }
                        _ => None,
                    },
                    None => self.slot_vm_unused.get(p.vm).map(|u| u[p.resource]),
                };
                if let Some(actual) = actual {
                    self.metrics.predictions.push(PredictionOutcome {
                        vm: p.vm,
                        resource: p.resource,
                        target_slot: slot,
                        predicted: p.predicted,
                        actual,
                    });
                }
            }
        }

        // 7. Completions — collected across the fleet in completion
        // order (VM id ascending, scan order within a VM) and delivered
        // as one batch per slot, so distributed provisioners can send
        // one message per shard instead of one per job.
        self.completions.clear();
        for (vm_id, jobs_here) in self.vm_jobs.iter_mut().enumerate() {
            let mut i = 0;
            while i < jobs_here.len() {
                let h = jobs_here[i];
                if self.store.job(h).work_done() {
                    let id = self.store.job(h).id();
                    let violated = self.store.job(h).violates_slo(slot);
                    let response = self.store.job(h).response_slots(slot);
                    self.vm_committed[vm_id] =
                        (self.vm_committed[vm_id] - self.store.allocation(h)).clamp_nonnegative();
                    self.store.set_allocation(h, ResourceVector::ZERO);
                    self.store.job_mut(h).state = JobState::Completed {
                        finish_slot: slot,
                        violated,
                    };
                    self.metrics.record_completion(response, violated);
                    self.completions.push(JobCompletion {
                        job: id,
                        handle: h,
                        unused_history: (0..NUM_RESOURCES)
                            .map(|r| self.store.job(h).unused_series(r))
                            .collect(),
                    });
                    outcome.completed.push(id);
                    jobs_here.swap_remove(i);
                    self.active -= 1;
                    self.view_dirty[vm_id] = true;
                    if self.options.reclaim_completed {
                        self.index_of.remove(&id);
                        self.store.release(h);
                    }
                } else {
                    i += 1;
                }
            }
        }
        if !self.completions.is_empty() {
            provisioner.on_jobs_completed(&self.completions);
        }

        self.slot += 1;
        outcome
    }

    /// Folds the accumulated metrics into a [`SimulationReport`]. Call
    /// once, after the last step — fault counters are moved into the
    /// report, so a second call would report them zeroed.
    pub fn report(&mut self, provisioner: &dyn Provisioner) -> SimulationReport {
        let fault_stats = self.faults.as_mut().map(|f| {
            f.finish();
            // The run is over and the counters are spent; taking the stats
            // hands them to the report without cloning the per-category
            // tallies.
            std::mem::take(&mut f.stats)
        });

        // Unfinished jobs are SLO violations by definition (never served in
        // time). Admitted-but-unfinished jobs are exactly `active`;
        // submitted-but-not-yet-admitted ones sit in `incoming` — counting
        // them incrementally (instead of scanning every job ever stored)
        // keeps the report O(live) under slot reclamation.
        let unfinished = self.active + self.incoming.len();

        let terminal = self.metrics.completed + self.metrics.rejected + unfinished;
        let slo_rate = if terminal == 0 {
            0.0
        } else {
            (self.metrics.violated + self.metrics.rejected + unfinished) as f64 / terminal as f64
        };

        SimulationReport {
            provisioner: provisioner.name().to_string(),
            environment: self.cluster.profile.name.clone(),
            num_jobs: self.store.total_inserted(),
            utilization: self.metrics.aggregate_utilization(),
            overall_utilization: self.metrics.aggregate_overall_utilization(),
            slo_violation_rate: slo_rate,
            prediction_error_rate: {
                let eps: [f64; NUM_RESOURCES] = std::array::from_fn(|k| {
                    self.options.prediction_eps_frac * self.max_capacity[k]
                });
                self.metrics.prediction_error_rate_per_resource(&eps)
            },
            predictions_resolved: self.metrics.predictions.len(),
            overhead_ms: self.metrics.overhead_ms(),
            completed: self.metrics.completed,
            violated: self.metrics.violated,
            rejected: self.metrics.rejected,
            unfinished,
            slots_run: self.slot,
            mean_response_slots: self.metrics.mean_response_slots(),
            invalid_actions: self.invalid_actions,
            nonfinite_actions: self.nonfinite_actions,
            control_plane: provisioner.control_plane_stats(),
            faults: fault_stats,
        }
    }
}

/// The batch simulator: a [`SlotEngine`] plus a complete, pre-sorted
/// workload, stepped until the workload drains or the slot cap trips.
pub struct Simulation {
    engine: SlotEngine,
    /// Specs not yet submitted, `None` once handed to the engine.
    specs: Vec<Option<JobSpec>>,
    /// Arrival slots sorted ascending alongside spec indices.
    arrivals: Vec<(u64, usize)>,
    next_arrival: usize,
}

impl Simulation {
    /// Builds a simulation over `cluster` with the given workload.
    pub fn new(cluster: Cluster, specs: Vec<JobSpec>, options: SimulationOptions) -> Self {
        let mut arrivals: Vec<(u64, usize)> = specs
            .iter()
            .enumerate()
            .map(|(i, j)| (j.arrival_slot, i))
            .collect();
        arrivals.sort_by_key(|&(slot, _)| slot);
        Simulation {
            engine: SlotEngine::new(cluster, options),
            specs: specs.into_iter().map(Some).collect(),
            arrivals,
            next_arrival: 0,
        }
    }

    /// Arms the simulation to replay `timeline` alongside the workload:
    /// VM crash/recovery windows, capacity degradation, and per-slot view
    /// poisoning, all applied at deterministic slots. An empty timeline
    /// behaves exactly like a plain [`Simulation::new`] run except that
    /// the report carries zeroed [`FaultStats`] instead of `None`.
    pub fn with_fault_timeline(mut self, timeline: FaultTimeline) -> Self {
        self.engine = self.engine.with_fault_timeline(timeline);
        self
    }

    /// Read access to the metrics collected so far (or after `run`).
    pub fn metrics(&self) -> &MetricsCollector {
        self.engine.metrics()
    }

    /// Read access to job states after `run` (tests, detailed analyses).
    /// Arrival-ordered (stable by arrival slot); jobs never submitted
    /// because the slot cap tripped first keep their initial pending
    /// state.
    pub fn jobs(&self) -> &[RunningJob] {
        self.engine.jobs()
    }

    /// Runs the simulation to completion under `provisioner` and returns
    /// the report.
    pub fn run(&mut self, provisioner: &mut dyn Provisioner) -> SimulationReport {
        let last_arrival = self.arrivals.iter().map(|&(s, _)| s).max().unwrap_or(0);
        let max_slot = self.engine.options.max_slots + last_arrival;
        loop {
            while self.next_arrival < self.arrivals.len()
                && self.arrivals[self.next_arrival].0 <= self.engine.slot()
            {
                let idx = self.arrivals[self.next_arrival].1;
                self.next_arrival += 1;
                let spec = self.specs[idx].take().expect("each spec submitted once");
                self.engine.submit(spec);
            }
            self.engine.step(provisioner);
            let arrivals_done = self.next_arrival == self.arrivals.len();
            if (arrivals_done && self.engine.active() == 0) || self.engine.slot() >= max_slot {
                break;
            }
        }
        // A slot-cap stop can (in the degenerate `max_slots == 0` setup)
        // precede the last arrivals; register the stragglers so the report
        // still counts every spec as submitted-and-unfinished.
        while self.next_arrival < self.arrivals.len() {
            let idx = self.arrivals[self.next_arrival].1;
            self.next_arrival += 1;
            if let Some(spec) = self.specs[idx].take() {
                self.engine.submit(spec);
            }
        }
        self.engine.report(provisioner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::EnvironmentProfile;
    use crate::provisioner::StaticPeakProvisioner;
    use corp_trace::{WorkloadConfig, WorkloadGenerator};

    fn small_workload(n: usize, seed: u64) -> Vec<JobSpec> {
        WorkloadGenerator::new(
            WorkloadConfig {
                num_jobs: n,
                ..WorkloadConfig::default()
            },
            seed,
        )
        .generate()
    }

    fn cluster() -> Cluster {
        Cluster::from_profile(EnvironmentProfile::palmetto_cluster())
    }

    #[test]
    fn static_peak_completes_all_jobs_without_violations() {
        // Full-peak reservations never throttle execution, so with ample
        // capacity every job completes within its SLO.
        let mut sim = Simulation::new(
            cluster(),
            small_workload(40, 1),
            SimulationOptions::default(),
        );
        let report = sim.run(&mut StaticPeakProvisioner);
        assert_eq!(report.completed, 40);
        assert_eq!(report.unfinished, 0);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.invalid_actions, 0);
        assert_eq!(report.slo_violation_rate, 0.0, "{report:?}");
    }

    #[test]
    fn static_peak_utilization_is_materially_below_one() {
        // Peak reservations waste the gap between peak and actual demand —
        // the premise of the whole paper.
        let mut sim = Simulation::new(
            cluster(),
            small_workload(60, 2),
            SimulationOptions::default(),
        );
        let report = sim.run(&mut StaticPeakProvisioner);
        assert!(
            report.overall_utilization < 0.95,
            "peak reservation should waste resources: {}",
            report.overall_utilization
        );
        assert!(
            report.overall_utilization > 0.2,
            "but demand is not negligible"
        );
    }

    #[test]
    fn oversized_job_is_rejected() {
        let mut jobs = small_workload(2, 3);
        jobs[0].requested = [999.0, 999.0, 999.0];
        let mut sim = Simulation::new(cluster(), jobs, SimulationOptions::default());
        let report = sim.run(&mut StaticPeakProvisioner);
        assert_eq!(report.rejected, 1);
        assert_eq!(report.completed, 1);
        assert!(
            report.slo_violation_rate > 0.0,
            "rejection counts as violation"
        );
    }

    #[test]
    fn empty_workload_terminates_immediately() {
        let mut sim = Simulation::new(cluster(), Vec::new(), SimulationOptions::default());
        let report = sim.run(&mut StaticPeakProvisioner);
        assert_eq!(report.completed, 0);
        assert_eq!(report.slo_violation_rate, 0.0);
    }

    #[test]
    fn overhead_accumulates_comm_latency_per_message() {
        let jobs = small_workload(20, 4);
        let mut sim = Simulation::new(
            cluster(),
            jobs,
            SimulationOptions {
                measure_decision_time: false,
                ..SimulationOptions::default()
            },
        );
        let report = sim.run(&mut StaticPeakProvisioner);
        // 20 placements at 100us each = 2ms, exactly (no decision time).
        assert!(
            (report.overhead_ms - 2.0).abs() < 1e-9,
            "got {}",
            report.overhead_ms
        );
    }

    #[test]
    fn ec2_overhead_exceeds_cluster_overhead_for_same_workload() {
        let jobs = small_workload(20, 5);
        let opts = SimulationOptions {
            measure_decision_time: false,
            ..SimulationOptions::default()
        };
        let mut sim_c = Simulation::new(cluster(), jobs.clone(), opts.clone());
        let rep_c = sim_c.run(&mut StaticPeakProvisioner);
        // Scale demands down so jobs fit EC2's small nodes.
        let mut ec2_jobs = jobs;
        for j in &mut ec2_jobs {
            for r in &mut j.requested {
                *r *= 0.2;
            }
            for d in &mut j.demand {
                for v in d.iter_mut() {
                    *v *= 0.2;
                }
            }
        }
        let mut sim_e = Simulation::new(
            Cluster::from_profile(EnvironmentProfile::amazon_ec2()),
            ec2_jobs,
            opts,
        );
        let rep_e = sim_e.run(&mut StaticPeakProvisioner);
        assert!(
            rep_e.overhead_ms > rep_c.overhead_ms,
            "EC2 comm latency must dominate: {} vs {}",
            rep_e.overhead_ms,
            rep_c.overhead_ms
        );
    }

    #[test]
    fn deterministic_given_same_seed_and_policy() {
        let run = || {
            let mut sim = Simulation::new(
                cluster(),
                small_workload(30, 7),
                SimulationOptions {
                    measure_decision_time: false,
                    ..Default::default()
                },
            );
            let r = sim.run(&mut StaticPeakProvisioner);
            (r.completed, r.overall_utilization.to_bits(), r.slots_run)
        };
        assert_eq!(run(), run());
    }

    /// A deliberately hostile provisioner that issues invalid actions.
    struct Chaotic;
    impl Provisioner for Chaotic {
        fn name(&self) -> &str {
            "chaotic"
        }
        fn provision(&mut self, ctx: &SlotContext<'_>) -> crate::provisioner::ProvisionPlan {
            let mut plan = crate::provisioner::ProvisionPlan::default();
            // Bogus adjustment for a job that does not exist.
            plan.adjustments
                .push((u64::MAX, ResourceVector::splat(1.0)));
            // Place pending jobs on a bogus VM id, then correctly.
            for j in ctx.pending {
                plan.placements.push(crate::provisioner::Placement {
                    job: j.id,
                    vm: usize::MAX,
                    allocation: j.requested,
                });
                plan.placements.push(crate::provisioner::Placement {
                    job: j.id,
                    vm: 0,
                    allocation: j.requested,
                });
            }
            plan
        }
    }

    #[test]
    fn invalid_actions_are_dropped_not_fatal() {
        let mut jobs = small_workload(3, 8);
        // Space the arrivals so VM 0 can host them sequentially if needed.
        for (i, j) in jobs.iter_mut().enumerate() {
            j.arrival_slot = (i as u64) * 60;
        }
        let mut sim = Simulation::new(cluster(), jobs, SimulationOptions::default());
        let report = sim.run(&mut Chaotic);
        assert!(report.invalid_actions > 0);
        assert_eq!(
            report.completed, 3,
            "valid placements still apply: {report:?}"
        );
    }

    /// A provisioner that places jobs but allocates only 35% of the
    /// request — strict reservations must slow the jobs down (typical
    /// demand sits near 50% of the request, so this under-allocates nearly
    /// every job).
    struct HalfAllocator;
    impl Provisioner for HalfAllocator {
        fn name(&self) -> &str {
            "half"
        }
        fn provision(&mut self, ctx: &SlotContext<'_>) -> crate::provisioner::ProvisionPlan {
            let mut plan = crate::provisioner::ProvisionPlan::default();
            let mut free: Vec<ResourceVector> = ctx.vms.iter().map(|v| v.free).collect();
            for j in ctx.pending {
                let alloc = j.requested.scaled(0.35);
                if let Some(vm) = free.iter().position(|f| alloc.fits_within(f)) {
                    free[vm] -= alloc;
                    plan.placements.push(crate::provisioner::Placement {
                        job: j.id,
                        vm,
                        allocation: alloc,
                    });
                }
            }
            plan
        }
    }

    #[test]
    fn under_allocation_causes_slo_violations() {
        let mut sim = Simulation::new(
            cluster(),
            small_workload(40, 9),
            SimulationOptions::default(),
        );
        let report = sim.run(&mut HalfAllocator);
        // 35% allocation against ~50%-of-request demand => coverage ~0.7
        // on the binding resource, stretching response times past the SLO
        // slack for most jobs.
        assert!(
            report.slo_violation_rate > 0.5,
            "starved jobs must blow their SLOs: {report:?}"
        );
    }

    #[test]
    fn under_allocation_raises_utilization() {
        // The flip side: allocating closer to demand raises utilization.
        let jobs = small_workload(40, 10);
        let opts = SimulationOptions {
            measure_decision_time: false,
            ..SimulationOptions::default()
        };
        let full =
            Simulation::new(cluster(), jobs.clone(), opts.clone()).run(&mut StaticPeakProvisioner);
        let half = Simulation::new(cluster(), jobs, opts).run(&mut HalfAllocator);
        assert!(
            half.overall_utilization > full.overall_utilization,
            "tighter allocations must utilize better: {} vs {}",
            half.overall_utilization,
            full.overall_utilization
        );
    }

    /// Registers a same-slot prediction of zero unused for VM 0 every slot.
    struct ZeroPredictor(StaticPeakProvisioner);
    impl Provisioner for ZeroPredictor {
        fn name(&self) -> &str {
            "zero-pred"
        }
        fn provision(&mut self, ctx: &SlotContext<'_>) -> crate::provisioner::ProvisionPlan {
            let mut plan = self.0.provision(ctx);
            plan.predictions.push(PredictionRecord {
                vm: 0,
                job: None,
                resource: 0,
                made_at: ctx.slot,
                target_slot: ctx.slot,
                predicted: 0.0,
            });
            plan
        }
    }

    #[test]
    fn predictions_are_resolved_against_actuals() {
        let mut sim = Simulation::new(
            cluster(),
            small_workload(30, 11),
            SimulationOptions::default(),
        );
        let report = sim.run(&mut ZeroPredictor(StaticPeakProvisioner));
        assert!(report.predictions_resolved > 0);
        // Zero-unused predictions on a peak-allocated VM are mostly wrong.
        assert!(report.prediction_error_rate > 0.3, "{report:?}");
    }

    /// Registers per-job predictions equal to the job's last observed
    /// unused value (a persistence predictor — should score very well).
    struct JobPersistencePredictor(StaticPeakProvisioner);
    impl Provisioner for JobPersistencePredictor {
        fn name(&self) -> &str {
            "job-persistence"
        }
        fn provision(&mut self, ctx: &SlotContext<'_>) -> crate::provisioner::ProvisionPlan {
            let mut plan = self.0.provision(ctx);
            for vm in ctx.vms {
                for job in &vm.jobs {
                    if let Some(u) = job.recent_unused.last() {
                        plan.predictions.push(PredictionRecord {
                            vm: vm.id,
                            job: Some(job.id),
                            resource: 0,
                            made_at: ctx.slot,
                            target_slot: ctx.slot + 1,
                            predicted: u[0],
                        });
                    }
                }
            }
            plan
        }
    }

    #[test]
    fn job_targeted_predictions_resolve_against_the_job() {
        let mut sim = Simulation::new(
            cluster(),
            small_workload(30, 14),
            SimulationOptions::default(),
        );
        let report = sim.run(&mut JobPersistencePredictor(StaticPeakProvisioner));
        assert!(report.predictions_resolved > 0, "{report:?}");
        // Persistence on a per-job unused series has symmetric errors, and
        // the paper's correctness band [0, eps) rejects every
        // over-estimation — so ~half the predictions score "wrong" even
        // though their magnitudes are tiny. The rate must sit near that
        // structural 50%, far from the ~100% a systematically wrong
        // predictor would show.
        assert!(
            report.prediction_error_rate < 0.7,
            "persistence should score near the symmetric-band bound: {report:?}"
        );
        // Predictions for jobs that completed before their target slot are
        // dropped, never mis-scored: resolved <= registered.
        let registered = sim.metrics().predictions.len();
        assert_eq!(registered, report.predictions_resolved);
    }

    #[test]
    fn views_expose_job_histories_and_placed_slots_are_recorded() {
        struct Inspect {
            inner: StaticPeakProvisioner,
            saw_history: bool,
        }
        impl Provisioner for Inspect {
            fn name(&self) -> &str {
                "inspect"
            }
            fn provision(&mut self, ctx: &SlotContext<'_>) -> crate::provisioner::ProvisionPlan {
                for vm in ctx.vms {
                    for job in &vm.jobs {
                        assert_eq!(job.recent_demand.len(), job.recent_unused.len());
                        assert!(job.recent_demand.len() <= crate::provisioner::VIEW_HISTORY_CAP);
                        assert!(job.allocation.fits_within(&job.requested));
                        if !job.recent_demand.is_empty() {
                            self.saw_history = true;
                        }
                    }
                }
                self.inner.provision(ctx)
            }
        }
        let mut p = Inspect {
            inner: StaticPeakProvisioner,
            saw_history: false,
        };
        let mut sim = Simulation::new(
            cluster(),
            small_workload(20, 15),
            SimulationOptions::default(),
        );
        let report = sim.run(&mut p);
        assert!(p.saw_history, "views must carry usage history");
        assert_eq!(report.completed, 20);
        for j in sim.jobs() {
            if matches!(j.state, JobState::Completed { .. }) {
                let placed = j.placed_slot.expect("completed jobs were placed");
                assert!(placed >= j.spec.arrival_slot);
                assert!(j.placed_vm.is_some(), "completed jobs record a host VM");
            }
        }
    }

    #[test]
    fn vm_crash_kills_and_reenqueues_jobs_which_finish_after_recovery() {
        use corp_faults::{FaultEvent, FaultTimeline, TimedFault};
        let jobs = small_workload(10, 21);
        // Let the jobs get placed (slot 0-1), then crash every VM at slot 3
        // and bring them all back at slot 20: everything running dies, waits
        // out the outage in the queue, and restarts from scratch.
        let num_vms = cluster().vms.len();
        let mut events = Vec::new();
        for vm in 0..num_vms {
            events.push(TimedFault {
                slot: 3,
                event: FaultEvent::VmCrash { vm },
            });
            events.push(TimedFault {
                slot: 20,
                event: FaultEvent::VmRecover { vm },
            });
        }
        let mut sim = Simulation::new(cluster(), jobs, SimulationOptions::default())
            .with_fault_timeline(FaultTimeline::new(events));
        let report = sim.run(&mut StaticPeakProvisioner);
        let faults = report.faults.as_ref().expect("fault stats present");
        assert_eq!(faults.vm_crashes as usize, num_vms);
        assert_eq!(faults.vm_recoveries as usize, num_vms);
        assert!(faults.jobs_killed > 0, "{report:?}");
        assert_eq!(
            faults.replacements, faults.jobs_killed,
            "every killed job is eventually re-placed: {report:?}"
        );
        assert!(faults.mean_replacement_latency_slots >= 1.0, "{report:?}");
        assert_eq!(report.completed, 10, "{report:?}");
        assert_eq!(report.unfinished, 0);
    }

    #[test]
    fn placements_onto_down_vms_are_dropped() {
        use corp_faults::{FaultEvent, FaultTimeline, TimedFault};
        /// Ignores the zero-capacity view and insists on placing onto VM 0.
        struct Stubborn;
        impl Provisioner for Stubborn {
            fn name(&self) -> &str {
                "stubborn"
            }
            fn provision(&mut self, ctx: &SlotContext<'_>) -> crate::provisioner::ProvisionPlan {
                let mut plan = crate::provisioner::ProvisionPlan::default();
                for j in ctx.pending {
                    plan.placements.push(crate::provisioner::Placement {
                        job: j.id,
                        vm: 0,
                        allocation: j.requested,
                    });
                }
                plan
            }
        }
        let timeline = FaultTimeline::new(vec![TimedFault {
            slot: 0,
            event: FaultEvent::VmCrash { vm: 0 },
        }]);
        let mut sim = Simulation::new(
            cluster(),
            small_workload(3, 22),
            SimulationOptions {
                max_slots: 30,
                ..SimulationOptions::default()
            },
        )
        .with_fault_timeline(timeline);
        let report = sim.run(&mut Stubborn);
        let faults = report.faults.as_ref().expect("fault stats present");
        assert!(faults.dropped_down_vm_actions > 0, "{report:?}");
        assert_eq!(report.completed, 0, "VM 0 never hosts anything");
    }

    #[test]
    fn nonfinite_actions_are_dropped_and_counted() {
        /// Emits NaN placements first, then valid ones, plus NaN and
        /// infinite adjustments for whatever is running.
        struct Poisonous;
        impl Provisioner for Poisonous {
            fn name(&self) -> &str {
                "poisonous"
            }
            fn provision(&mut self, ctx: &SlotContext<'_>) -> crate::provisioner::ProvisionPlan {
                let mut plan = crate::provisioner::ProvisionPlan::default();
                for vm in ctx.vms {
                    for job in &vm.jobs {
                        plan.adjustments
                            .push((job.id, ResourceVector::splat(f64::NAN)));
                        plan.adjustments
                            .push((job.id, ResourceVector::splat(f64::INFINITY)));
                    }
                }
                for j in ctx.pending {
                    plan.placements.push(crate::provisioner::Placement {
                        job: j.id,
                        vm: 0,
                        allocation: ResourceVector::splat(f64::NAN),
                    });
                    plan.placements.push(crate::provisioner::Placement {
                        job: j.id,
                        vm: 0,
                        allocation: j.requested,
                    });
                }
                plan
            }
        }
        let mut jobs = small_workload(3, 23);
        for (i, j) in jobs.iter_mut().enumerate() {
            j.arrival_slot = (i as u64) * 60;
        }
        let mut sim = Simulation::new(cluster(), jobs, SimulationOptions::default());
        let report = sim.run(&mut Poisonous);
        assert!(report.nonfinite_actions > 0, "{report:?}");
        assert!(report.invalid_actions >= report.nonfinite_actions);
        assert_eq!(report.completed, 3, "valid placements still apply");
        // Allocations stayed finite throughout: utilization is a number.
        assert!(report.overall_utilization.is_finite());
    }

    #[test]
    fn degradation_throttles_jobs_on_the_straggler() {
        use corp_faults::{FaultEvent, FaultTimeline, TimedFault};
        let jobs = small_workload(30, 24);
        let opts = SimulationOptions {
            measure_decision_time: false,
            ..SimulationOptions::default()
        };
        let healthy =
            Simulation::new(cluster(), jobs.clone(), opts.clone()).run(&mut StaticPeakProvisioner);
        let num_vms = cluster().vms.len();
        let events = (0..num_vms)
            .map(|vm| TimedFault {
                slot: 1,
                event: FaultEvent::VmDegrade { vm, factor: 0.3 },
            })
            .collect();
        let degraded = Simulation::new(cluster(), jobs, opts)
            .with_fault_timeline(FaultTimeline::new(events))
            .run(&mut StaticPeakProvisioner);
        let faults = degraded.faults.as_ref().expect("fault stats present");
        assert!(faults.degraded_vm_slots > 0);
        assert!(
            degraded.mean_response_slots > healthy.mean_response_slots,
            "stragglers must stretch response times: {} vs {}",
            degraded.mean_response_slots,
            healthy.mean_response_slots
        );
    }

    #[test]
    fn poisoned_views_corrupt_monitoring_but_not_ground_truth() {
        use corp_faults::{FaultEvent, FaultTimeline, PoisonKind, TimedFault};
        struct SeesNan {
            inner: StaticPeakProvisioner,
            saw_nan: bool,
        }
        impl Provisioner for SeesNan {
            fn name(&self) -> &str {
                "sees-nan"
            }
            fn provision(&mut self, ctx: &SlotContext<'_>) -> crate::provisioner::ProvisionPlan {
                for vm in ctx.vms {
                    for job in &vm.jobs {
                        if job.recent_unused.iter().any(|u| !u.is_finite()) {
                            self.saw_nan = true;
                        }
                    }
                }
                self.inner.provision(ctx)
            }
        }
        let events = (2..12)
            .map(|slot| TimedFault {
                slot,
                event: FaultEvent::PoisonViews {
                    vm: 0,
                    kind: PoisonKind::Nan,
                },
            })
            .collect();
        let mut sim = Simulation::new(
            cluster(),
            small_workload(20, 25),
            SimulationOptions::default(),
        )
        .with_fault_timeline(FaultTimeline::new(events));
        let mut p = SeesNan {
            inner: StaticPeakProvisioner,
            saw_nan: false,
        };
        let report = sim.run(&mut p);
        assert!(p.saw_nan, "poison must reach the provisioner's view");
        let faults = report.faults.as_ref().expect("fault stats present");
        assert_eq!(faults.poisoned_views, 10);
        // Ground truth untouched: jobs complete and the metrics are finite.
        assert_eq!(report.completed, 20, "{report:?}");
        assert!(report.overall_utilization.is_finite());
    }

    #[test]
    fn empty_timeline_matches_fault_free_run_except_zeroed_stats() {
        use corp_faults::FaultTimeline;
        let jobs = small_workload(25, 26);
        let opts = SimulationOptions {
            measure_decision_time: false,
            ..SimulationOptions::default()
        };
        let plain =
            Simulation::new(cluster(), jobs.clone(), opts.clone()).run(&mut StaticPeakProvisioner);
        let faulty = Simulation::new(cluster(), jobs, opts)
            .with_fault_timeline(FaultTimeline::default())
            .run(&mut StaticPeakProvisioner);
        assert_eq!(plain.faults, None);
        assert_eq!(faulty.faults, Some(crate::faults::FaultStats::default()));
        assert_eq!(plain.completed, faulty.completed);
        assert_eq!(plain.slots_run, faulty.slots_run);
        assert_eq!(
            plain.overall_utilization.to_bits(),
            faulty.overall_utilization.to_bits(),
            "an empty schedule must not perturb a single bit"
        );
        assert_eq!(plain.slo_violation_rate, faulty.slo_violation_rate);
        assert_eq!(plain.invalid_actions, faulty.invalid_actions);
    }

    #[test]
    fn max_slots_bounds_runaway_runs() {
        /// Never places anything: jobs starve in the queue forever.
        struct DoNothing;
        impl Provisioner for DoNothing {
            fn name(&self) -> &str {
                "noop"
            }
            fn provision(&mut self, _: &SlotContext<'_>) -> crate::provisioner::ProvisionPlan {
                crate::provisioner::ProvisionPlan::default()
            }
        }
        let mut sim = Simulation::new(
            cluster(),
            small_workload(5, 12),
            SimulationOptions {
                max_slots: 50,
                ..SimulationOptions::default()
            },
        );
        let report = sim.run(&mut DoNothing);
        assert_eq!(report.unfinished, 5);
        assert_eq!(report.slo_violation_rate, 1.0);
        assert!(report.slots_run <= 50 + small_workload(5, 12).last().unwrap().arrival_slot + 2);
    }

    #[test]
    fn stepped_engine_matches_batch_run_exactly() {
        // The SlotEngine pumped by hand must be indistinguishable from the
        // Simulation driver — same report bytes, same placement map. This
        // is the contract the corp-serve daemon builds on.
        let jobs = small_workload(25, 30);
        let opts = SimulationOptions {
            measure_decision_time: false,
            ..SimulationOptions::default()
        };
        let mut sim = Simulation::new(cluster(), jobs.clone(), opts.clone());
        let batch = sim.run(&mut StaticPeakProvisioner);

        let mut engine = SlotEngine::new(cluster(), opts);
        let mut provisioner = StaticPeakProvisioner;
        let mut sorted = jobs;
        sorted.sort_by_key(|j| j.arrival_slot);
        let mut next = 0;
        let mut placements = Vec::new();
        loop {
            while next < sorted.len() && sorted[next].arrival_slot <= engine.slot() {
                engine.submit(sorted[next].clone());
                next += 1;
            }
            let outcome = engine.step(&mut provisioner);
            placements.extend(outcome.placements);
            if next == sorted.len() && engine.active() == 0 {
                break;
            }
        }
        let stepped = engine.report(&provisioner);
        assert_eq!(
            serde::json::to_string(&batch),
            serde::json::to_string(&stepped),
            "stepped and batch drivers must agree byte for byte"
        );
        assert_eq!(placements.len(), batch.completed);
        for j in sim.jobs() {
            if let Some(vm) = j.placed_vm {
                assert!(placements.contains(&(j.id(), vm)));
            }
        }
    }

    #[test]
    fn reclaim_mode_report_is_byte_identical_and_arena_is_bounded() {
        // Two well-separated waves: with reclamation on, the second wave
        // reuses the first wave's arena slots, so the arena never grows to
        // the full job count — while the report stays bit-for-bit equal.
        let mut jobs = small_workload(30, 40);
        for (i, j) in jobs.iter_mut().enumerate() {
            j.arrival_slot = if i < 15 { 0 } else { 500 };
        }
        let opts = SimulationOptions {
            measure_decision_time: false,
            ..SimulationOptions::default()
        };
        let baseline =
            Simulation::new(cluster(), jobs.clone(), opts.clone()).run(&mut StaticPeakProvisioner);
        let mut sim = Simulation::new(
            cluster(),
            jobs,
            SimulationOptions {
                reclaim_completed: true,
                ..opts
            },
        );
        let reclaimed = sim.run(&mut StaticPeakProvisioner);
        assert_eq!(
            serde::json::to_string(&baseline),
            serde::json::to_string(&reclaimed),
            "slot reclamation must not change a single report byte"
        );
        let store = sim.engine.store();
        assert_eq!(store.total_inserted(), 30);
        assert!(
            store.capacity() <= 15,
            "arena must be bounded by concurrently-live jobs, got {}",
            store.capacity()
        );
        assert_eq!(store.live(), 0, "everything completed and was released");
    }

    #[test]
    fn idle_fleet_view_skip_is_byte_identical_to_unskipped_views() {
        // A long fully-idle gap (far beyond VIEW_HISTORY_CAP) between two
        // waves exercises the idle-VM view skip on every VM. An armed
        // fault timeline turns the skip off (`skip_enabled`), so an empty
        // one rebuilds every view every slot while changing nothing else:
        // reports must agree exactly once its zeroed fault block is set
        // aside.
        let mut jobs = small_workload(24, 41);
        for (i, j) in jobs.iter_mut().enumerate() {
            j.arrival_slot = if i < 12 { 0 } else { 400 };
        }
        let opts = SimulationOptions {
            measure_decision_time: false,
            ..SimulationOptions::default()
        };
        let skipped =
            Simulation::new(cluster(), jobs.clone(), opts.clone()).run(&mut StaticPeakProvisioner);
        let mut unskipped = Simulation::new(cluster(), jobs, opts)
            .with_fault_timeline(FaultTimeline::default())
            .run(&mut StaticPeakProvisioner);
        assert_eq!(unskipped.faults.take(), Some(FaultStats::default()));
        assert_eq!(
            serde::json::to_string(&skipped),
            serde::json::to_string(&unskipped),
            "idle-VM view skip must not change what provisioners see"
        );
    }

    #[test]
    fn slot_outcome_reports_rejections_and_completions() {
        let mut engine = SlotEngine::new(cluster(), SimulationOptions::default());
        let mut jobs = small_workload(2, 31);
        jobs[0].requested = [999.0, 999.0, 999.0];
        jobs[0].arrival_slot = 0;
        jobs[1].arrival_slot = 0;
        let survivor = jobs[1].id;
        let mut provisioner = StaticPeakProvisioner;
        engine.submit(jobs[0].clone());
        engine.submit(jobs[1].clone());
        let first = engine.step(&mut provisioner);
        assert_eq!(first.rejected, vec![jobs[0].id]);
        assert_eq!(first.placements, vec![(survivor, 0)]);
        let mut completed = Vec::new();
        while engine.active() > 0 {
            completed.extend(engine.step(&mut provisioner).completed);
        }
        assert_eq!(completed, vec![survivor]);
    }
}
