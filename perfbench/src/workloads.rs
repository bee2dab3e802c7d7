//! The three workloads: set-up and one timed replay each, plain or traced.

use crate::host::CpuTimes;
use crate::inputs::{self, CsvTrace, Size};
use crate::layers::{
    Feed, Probe, TimedBackend, TimedGate, TimedPacker, TimedPredictor, TimedProvisioner,
};
use crate::spans::{Lane, Name, Tracer};
use corp_cluster::{ShardConfig, ShardedProvisioner};
use corp_core::pipeline::{
    AdmissionPolicy, BaselineReclaimGate, CorpReclaimGate, CorpUsagePredictor, DirectBackend,
    FiniteGuard, Packing, ProvisioningPipeline, VmSelector, VmWindowPredictor,
};
use corp_core::{CorpConfig, CorpProvisioner, RccrPredictor, RccrProvisioner};
use corp_serve::{
    BackpressurePolicy, BrownoutConfig, DeadlineConfig, ReplaySpeed, ServeConfig, ServeDaemon,
    ServeReport,
};
use corp_sim::{
    Cluster, EnvironmentProfile, JobId, Provisioner, SimulationOptions, SimulationReport,
    SlotEngine,
};
use corp_trace::{
    GoogleCsvReader, IngestConfig, IntensityClass, JobSource, JobSpec, TraceJobSource,
};
use std::collections::HashMap;
use std::io::Cursor;
use std::sync::Arc;
use std::time::Instant;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Monolithic CORP driven slot by slot through `SlotEngine`.
    CorpPooled,
    /// The same trace behind a 2-shard `ShardedProvisioner`.
    CorpSharded,
    /// The `corp-serve` daemon running RCCR on a CSV feed under storms.
    ServeStorm,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload::CorpPooled,
    Workload::CorpSharded,
    Workload::ServeStorm,
];

impl Workload {
    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CorpPooled => "corp-pooled",
            Workload::CorpSharded => "corp-sharded",
            Workload::ServeStorm => "serve-storm",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }
}

/// Prediction fan-out width of the monolithic pipelines: the host's two
/// cores, pinned so `CORP_THREADS` or the core count cannot change it.
pub const POOL_WIDTH: usize = 2;

/// Shards of `corp-sharded`; each shard's pool is one thread wide, so the
/// two shard workers are the run's two compute threads.
pub const SHARDS: usize = 2;

/// Seed of every pipeline's placement RNG.
const PIPELINE_SEED: u64 = 7;

/// RCCR's confidence level (the paper's default).
const RCCR_CONFIDENCE: f64 = 0.9;

/// RCCR's window, as `RccrProvisioner::new` wires it (6 slots: one minute
/// of 10-second slots).
const RCCR_WINDOW_SLOTS: u64 = 6;

/// Slots simulated after the last arrival before the replay stops. Jobs
/// still running or queued then count as unfinished: the replay measures
/// a sustained stream over a fixed horizon, not its drain.
const DRAIN_SLOTS: u64 = 1;

/// One seed's generated inputs.
#[derive(Debug)]
pub struct Inputs {
    /// Which workload they feed.
    pub workload: Workload,
    /// Generation size.
    pub size: Size,
    /// Arrival-ordered job trace (CORP workloads).
    pub specs: Vec<JobSpec>,
    /// CORP's pretraining corpus (CORP workloads).
    pub history: Vec<Vec<Vec<f64>>>,
    /// The serve workload's CSV feed.
    pub csv: Option<CsvTrace>,
}

impl Inputs {
    /// Generates `workload`'s inputs from `seed`.
    pub fn generate(workload: Workload, seed: u64, size: Size) -> Inputs {
        match workload {
            Workload::CorpPooled | Workload::CorpSharded => Inputs {
                workload,
                size,
                specs: inputs::corp_trace(seed, &size),
                history: inputs::history(seed, &size),
                csv: None,
            },
            Workload::ServeStorm => Inputs {
                workload,
                size,
                specs: Vec::new(),
                history: Vec::new(),
                csv: Some(inputs::encode_csv(
                    inputs::storm_trace(seed, &size),
                    &IngestConfig::default(),
                )),
            },
        }
    }

    /// Jobs offered to the program per replay.
    pub fn offered(&self) -> usize {
        match &self.csv {
            Some(csv) => csv.jobs,
            None => self.specs.len(),
        }
    }
}

/// The program's report of one replay.
#[derive(Debug, Clone)]
pub enum Report {
    /// A batch replay's engine report.
    Sim(SimulationReport),
    /// A daemon replay's report.
    Serve(ServeReport),
}

impl Report {
    /// The engine report.
    pub fn sim(&self) -> &SimulationReport {
        match self {
            Report::Sim(r) => r,
            Report::Serve(r) => &r.sim,
        }
    }

    /// The serve report, for daemon replays.
    pub fn serve(&self) -> Option<&ServeReport> {
        match self {
            Report::Sim(_) => None,
            Report::Serve(r) => Some(r),
        }
    }

    /// The deterministic serialization two runs of one seed must share.
    pub fn to_json(&self) -> String {
        match self {
            Report::Sim(r) => serde::json::to_string(r),
            Report::Serve(r) => serde::json::to_string(r),
        }
    }
}

/// One replay's outcome.
#[derive(Debug)]
pub struct Replay {
    /// The program's report.
    pub report: Report,
    /// Set-up wall time (fleet, provisioner(s), pretraining, workers).
    pub setup_s: f64,
    /// Wall time of the timed replay, set-up excluded.
    pub wall_s: f64,
    /// Share of the busy vCPU time during the timed replay that the
    /// hypervisor stole (see [`crate::host`]).
    pub steal_share: f64,
    /// Hand-off → placing-provision-return latency of every placed job,
    /// in milliseconds, with the slot that placed it.
    pub latencies: Vec<(f64, u64)>,
    /// Jobs the feed decoded (serve workload).
    pub decoded: usize,
    /// The span sink, for traced replays.
    pub tracer: Option<Arc<Tracer>>,
}

/// A Palmetto fleet of `num_pms` physical machines (4 VMs each).
fn fleet(num_pms: usize) -> Cluster {
    Cluster::from_profile(EnvironmentProfile::palmetto_cluster().with_num_pms(num_pms))
}

/// Engine options: no wall-clock decision time in the report (it must
/// repeat byte for byte), arena slot reclaim on, and the fixed horizon.
fn options() -> SimulationOptions {
    SimulationOptions {
        max_slots: DRAIN_SLOTS,
        measure_decision_time: false,
        reclaim_completed: true,
        ..SimulationOptions::default()
    }
}

fn corp_config(size: &Size, seed: u64, width: usize) -> CorpConfig {
    let mut config = if size.fast_dnn {
        CorpConfig::fast()
    } else {
        CorpConfig::default()
    };
    config.seed = seed;
    config.prediction_pool_width = Some(width);
    config
}

/// CORP recomposed from decorated stages, wired exactly as
/// `CorpProvisioner::new` wires the plain ones.
type TimedCorp = ProvisioningPipeline<
    TimedPredictor<CorpUsagePredictor>,
    TimedGate<CorpReclaimGate>,
    TimedPacker<Packing>,
    TimedBackend<DirectBackend>,
>;

fn timed_corp(config: &CorpConfig, lane: &Lane) -> TimedCorp {
    config.validate();
    let packing = if config.use_packing {
        Packing::Complementary
    } else {
        Packing::Passthrough
    };
    let selector = if config.use_volume_placement {
        VmSelector::Volume
    } else {
        VmSelector::Random
    };
    ProvisioningPipeline::compose(
        "CORP",
        config.window_slots as u64,
        config.seed,
        TimedPredictor::new(CorpUsagePredictor::new(config), lane),
        TimedGate::new(
            CorpReclaimGate::new(config.window_slots, config.reclaim_floor),
            lane,
        ),
        TimedPacker::new(packing, lane),
        TimedBackend::new(DirectBackend::new(selector), lane),
        AdmissionPolicy::FullRequest,
    )
}

/// One pretrained CORP pipeline, plain or, given `(setup lane, lane)`,
/// decorated: pretraining is timed on the set-up lane and the pipeline on
/// its own lane (0 for a monolithic pipeline, `k + 1` for shard `k`).
fn corp_pipeline(
    inputs: &Inputs,
    config: &CorpConfig,
    lanes: Option<(&Lane, &Lane)>,
) -> Box<dyn Provisioner + Send> {
    match lanes {
        None => {
            let mut corp = CorpProvisioner::new(config.clone());
            corp.pretrain(&inputs.history);
            Box::new(corp)
        }
        Some((setup, lane)) => {
            let mut corp = timed_corp(config, lane);
            let predictor = &mut corp.stage_predictor_mut().inner;
            setup.time(Name::Pretrain, || predictor.pretrain(&inputs.history));
            if lane.id() == 0 {
                Box::new(TimedProvisioner::coordinator(
                    corp,
                    lane,
                    Name::PipelineProvision,
                ))
            } else {
                Box::new(TimedProvisioner::shard(corp, lane))
            }
        }
    }
}

/// RCCR recomposed from decorated stages, wired exactly as
/// `RccrProvisioner::new` wires the plain ones.
type TimedRccr = ProvisioningPipeline<
    TimedPredictor<VmWindowPredictor<FiniteGuard<RccrPredictor>>>,
    TimedGate<BaselineReclaimGate>,
    TimedPacker<Packing>,
    TimedBackend<DirectBackend>,
>;

fn timed_rccr(lane: &Lane) -> TimedRccr {
    ProvisioningPipeline::compose(
        "RCCR",
        RCCR_WINDOW_SLOTS,
        PIPELINE_SEED,
        TimedPredictor::new(
            VmWindowPredictor::new(FiniteGuard::new(RccrPredictor::new(0.5, RCCR_CONFIDENCE))),
            lane,
        ),
        TimedGate::new(BaselineReclaimGate, lane),
        TimedPacker::new(Packing::Passthrough, lane),
        TimedBackend::new(DirectBackend::new(VmSelector::Random), lane),
        AdmissionPolicy::FullRequest,
    )
}

/// The daemon's overload posture: a shedding admission queue one storm
/// slot deep, per-class placement deadlines, and the brownout ladder keyed
/// to storm-sized arrival bursts and multi-slot placement waits.
fn serve_config(size: &Size) -> ServeConfig {
    // Arrivals per slot outside storms scale with the fleet (≈300 at
    // 1024 PMs); a storm slot carries about four times that.
    let per_slot = (300 * size.serve_pms / 1024).max(4);
    ServeConfig {
        queue_capacity: per_slot * 5 / 2,
        policy: BackpressurePolicy::ShedOldest,
        speed: ReplaySpeed::Infinite,
        deadlines: DeadlineConfig::uniform(30_000_000)
            .with_deadline(IntensityClass::CpuIntensive, 20_000_000)
            .with_deadline(IntensityClass::StorageIntensive, 40_000_000),
        brownout: Some(BrownoutConfig {
            high_depth: per_slot * 2,
            low_depth: per_slot * 3 / 2,
            latency_high_micros: 40_000_000,
            recovery_ticks: 3,
        }),
        ..ServeConfig::default()
    }
}

/// What set-up builds: the provisioner stack and the engine or daemon it
/// runs under.
struct Setup {
    provisioner: Box<dyn Provisioner>,
    engine: Engine,
    main: Option<Lane>,
    tracer: Option<Arc<Tracer>>,
}

enum Engine {
    Batch(SlotEngine),
    Serve(ServeDaemon),
}

/// Program set-up for `inputs`: the fleet, the provisioner(s) with CORP's
/// pretraining and the shard workers, and the engine or daemon. `traced`
/// swaps every layer for its timing decorator.
fn setup(inputs: &Inputs, traced: bool) -> Setup {
    let size = &inputs.size;
    let tracer = traced.then(Tracer::new);
    let main = tracer.as_ref().map(|t| Lane::new(t, 0));
    let (provisioner, engine): (Box<dyn Provisioner>, Engine) = match inputs.workload {
        Workload::CorpPooled => {
            let config = corp_config(size, PIPELINE_SEED, POOL_WIDTH);
            let corp = corp_pipeline(inputs, &config, main.as_ref().map(|m| (m, m)));
            (
                corp,
                Engine::Batch(SlotEngine::new(fleet(size.corp_pms), options())),
            )
        }
        Workload::CorpSharded => {
            let shards = (0..SHARDS)
                .map(|k| {
                    let seed = corp_core::shard_seed(PIPELINE_SEED, k);
                    let config = corp_config(size, seed, 1);
                    let lane = tracer.as_ref().map(|t| Lane::new(t, k as u8 + 1));
                    corp_pipeline(inputs, &config, main.as_ref().zip(lane.as_ref()))
                })
                .collect();
            let sharded = ShardedProvisioner::new("CORP", shards, ShardConfig::default());
            let provisioner: Box<dyn Provisioner> = match &main {
                Some(lane) => Box::new(TimedProvisioner::coordinator(
                    sharded,
                    lane,
                    Name::ClusterProvision,
                )),
                None => Box::new(sharded),
            };
            (
                provisioner,
                Engine::Batch(SlotEngine::new(fleet(size.corp_pms), options())),
            )
        }
        Workload::ServeStorm => {
            let provisioner: Box<dyn Provisioner> = match &main {
                Some(lane) => {
                    let mut rccr = timed_rccr(lane);
                    rccr.stage_predictor_mut()
                        .inner
                        .runtime_mut()
                        .set_width(Some(POOL_WIDTH));
                    Box::new(TimedProvisioner::coordinator(
                        rccr,
                        lane,
                        Name::PipelineProvision,
                    ))
                }
                None => {
                    let mut rccr = RccrProvisioner::new(RCCR_CONFIDENCE, PIPELINE_SEED);
                    rccr.set_prediction_pool_width(Some(POOL_WIDTH));
                    Box::new(rccr)
                }
            };
            let daemon = ServeDaemon::new(fleet(size.serve_pms), options(), serve_config(size));
            (provisioner, Engine::Serve(daemon))
        }
    };
    Setup {
        provisioner,
        engine,
        main,
        tracer,
    }
}

/// Shortest wall time one `setup_s` sample covers: cheap set-ups repeat
/// (each torn down untimed) until their total reaches it, and the sample is
/// their mean, so sub-millisecond set-ups are not timed one clock jitter
/// at a time.
const SETUP_SAMPLE_S: f64 = 0.05;

/// One `setup_s` sample: the mean duration of consecutive plain set-ups
/// of `inputs` spanning at least [`SETUP_SAMPLE_S`].
pub fn sample_setup(inputs: &Inputs) -> f64 {
    let mut total = 0.0;
    let mut count = 0u32;
    while total < SETUP_SAMPLE_S {
        let started = Instant::now();
        let built = setup(inputs, false);
        total += started.elapsed().as_secs_f64();
        count += 1;
        drop(built);
    }
    total / f64::from(count)
}

/// Runs one replay of `inputs`: set-up, then the timed run. Fails only
/// when `/proc/stat` cannot be read.
pub fn replay(inputs: &Inputs, traced: bool) -> Result<Replay, String> {
    let started = Instant::now();
    let Setup {
        mut provisioner,
        engine,
        main,
        tracer,
    } = setup(inputs, traced);
    let setup_s = started.elapsed().as_secs_f64();
    let mut probe = Probe::new(provisioner.as_mut());
    let mut handoff: Vec<(JobId, Instant)> = Vec::with_capacity(inputs.offered());
    let cpu_start = CpuTimes::read()?;
    let run_start = Instant::now();
    let report = match engine {
        Engine::Batch(engine) => Report::Sim(run_batch(
            engine,
            &mut probe,
            &inputs.specs,
            &mut handoff,
            main.as_ref(),
        )),
        Engine::Serve(mut daemon) => {
            let csv = inputs.csv.as_ref().expect("serve inputs carry a CSV trace");
            let source = TraceJobSource::new(
                GoogleCsvReader::new(Cursor::new(&csv.bytes[..])),
                IngestConfig::default(),
            )
            .into_specs();
            let feed = Feed::new(source, &mut handoff, main.as_ref());
            if let Some(lane) = &main {
                lane.tracer()
                    .record(Name::Harness, 0, 0, run_start, Instant::now());
            }
            let outcome = match &main {
                Some(lane) => lane.time(Name::ServeRun, || daemon.run(&mut probe, feed)),
                None => daemon.run(&mut probe, feed),
            };
            Report::Serve(outcome.report)
        }
    };
    let wall_s = run_start.elapsed().as_secs_f64();
    let steal_share = CpuTimes::read()?.steal_share_since(&cpu_start);
    let latencies = latencies(&handoff, &probe.placed);
    drop(probe);
    drop(provisioner);
    Ok(Replay {
        report,
        setup_s,
        wall_s,
        steal_share,
        latencies,
        decoded: if inputs.csv.is_some() {
            handoff.len()
        } else {
            0
        },
        tracer,
    })
}

/// Feeds `specs` slot by slot (each job handed to the engine through
/// `SlotEngine::submit` just before the step of its arrival slot) until
/// the trace drains or the horizon passes. Each job is copied as it is
/// handed over, so the harness holds no second copy of the trace.
fn run_batch(
    mut engine: SlotEngine,
    probe: &mut Probe<'_>,
    specs: &[JobSpec],
    handoff: &mut Vec<(JobId, Instant)>,
    main: Option<&Lane>,
) -> SimulationReport {
    let horizon = specs.last().map_or(0, |s| s.arrival_slot) + DRAIN_SLOTS;
    let mut specs = specs.iter().peekable();
    loop {
        let fed = Instant::now();
        while let Some(spec) = specs.next_if(|s| s.arrival_slot <= engine.slot()) {
            handoff.push((spec.id, fed));
            engine.submit(spec.clone());
        }
        match main {
            Some(lane) => {
                lane.set_slot(engine.slot());
                lane.tracer()
                    .record(Name::Harness, 0, engine.slot(), fed, Instant::now());
                lane.time(Name::EngineStep, || engine.step(probe));
            }
            None => {
                engine.step(probe);
            }
        }
        let arrivals_done = specs.peek().is_none();
        if (arrivals_done && engine.active() == 0) || engine.slot() >= horizon {
            break;
        }
    }
    let fold = Instant::now();
    for spec in specs {
        engine.submit(spec.clone());
    }
    let report = engine.report(probe);
    if let Some(lane) = main {
        lane.tracer()
            .record(Name::Harness, 0, engine.slot(), fold, Instant::now());
    }
    report
}

/// Latency of each job's first placement, in milliseconds, with the
/// placing slot: the instant the placing provision call returned minus the
/// job's hand-off instant.
fn latencies(handoff: &[(JobId, Instant)], placed: &[(JobId, Instant, u64)]) -> Vec<(f64, u64)> {
    let mut handed: HashMap<JobId, Instant> = handoff.iter().copied().collect();
    placed
        .iter()
        .filter_map(|&(job, at, slot)| {
            handed
                .remove(&job)
                .map(|from| (at.saturating_duration_since(from).as_secs_f64() * 1e3, slot))
        })
        .collect()
}
