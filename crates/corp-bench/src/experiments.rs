//! Runners that regenerate every table and figure of the paper's
//! evaluation.
//!
//! Each runner sweeps the same axis the paper sweeps, executes one
//! deterministic simulation per cell (fanning cells out over OS threads),
//! and returns a [`FigureTable`] whose rows mirror the figure's series.
//! Absolute values belong to our simulator, not the authors' testbed; the
//! *shapes* — who wins, what the trend direction is — are the reproduction
//! target, and `tests/experiment_shapes.rs` asserts them.

use crate::env::{
    build_provisioner, build_sharded_provisioner, run_cell, run_cell_averaged, run_cell_faulty,
    run_cell_sharded, Environment, SchemeKind, SchemeParams, ALL_SCHEMES,
};
use crate::table::TextTable;
use corp_core::pipeline::{hardware_parallelism, WorkerPool};
use corp_core::CorpConfig;
use corp_faults::FaultConfig;
use corp_sim::{Cluster, EnvironmentProfile, Simulation, SimulationOptions, SimulationReport};
use corp_trace::{JobSpec, WorkloadConfig, WorkloadGenerator};
use serde::Serialize;

/// A regenerated figure/table plus free-form notes.
#[derive(Debug, Clone, Serialize)]
pub struct FigureTable {
    /// Paper artifact id, e.g. `"fig6"`.
    pub id: String,
    /// The regenerated rows.
    pub table: TextTable,
    /// Observations worth surfacing next to the table.
    pub notes: Vec<String>,
}

impl std::fmt::Display for FigureTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.table)?;
        for n in &self.notes {
            writeln!(f, "  note: {n}")?;
        }
        Ok(())
    }
}

/// Job counts swept by the #jobs figures (paper: "varied the number of jobs
/// from 50 to 300 with step size of 50").
pub const JOB_COUNTS: [usize; 6] = [50, 100, 150, 200, 250, 300];

/// Confidence levels swept by Figs. 9/13 (Table II: 50%-90%).
pub const CONFIDENCE_LEVELS: [f64; 5] = [0.5, 0.6, 0.7, 0.8, 0.9];

/// Workload seeds averaged by the small-count (SLO-rate) figures.
pub const AVERAGING_SEEDS: [u64; 3] = [7, 1007, 2007];

/// Runs `f` over every item in parallel, one pool worker per item,
/// preserving order.
fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut out: Vec<Option<R>> = Vec::new();
    out.resize_with(items.len(), || None);
    WorkerPool::new().run_chunks(
        items,
        &mut out,
        items.len().max(1),
        &|| (),
        &|item, _: &mut ()| Some(f(item)),
        &|_| (),
    );
    out.into_iter()
        .map(|r| r.expect("worker finished"))
        .collect()
}

fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

fn three(x: f64) -> String {
    format!("{x:.3}")
}

/// Table II: parameter settings of the reproduction (values match the
/// paper's Table II where given).
pub fn table2() -> FigureTable {
    let cfg = CorpConfig::default();
    let mut table = TextTable::new(
        "Table II — Parameter settings",
        &["parameter", "value", "paper"],
    );
    let mut row = |p: &str, v: String, paper: &str| {
        table.push_row(vec![p.to_string(), v, paper.to_string()]);
    };
    row(
        "N_p (servers, cluster env)",
        "8 (scaled; see EXPERIMENTS.md)".into(),
        "30-50",
    );
    row("N_v (VMs, cluster env)", "32".into(), "100-400");
    row("N_v (VMs, EC2 env)", "30".into(), "30 nodes");
    row("|J| (jobs)", "50-300 step 50".into(), "50-300");
    row("l (resource types)", "3".into(), "3");
    row("P_th", format!("{}", cfg.prob_threshold), "0.95");
    row("h (DNN layers)", format!("{}", cfg.dnn_layers), "4");
    row("N_n (units/layer)", format!("{}", cfg.dnn_units), "50");
    row("H (HMM states)", "3".into(), "3");
    row(
        "theta (significance)",
        "5%-50% (eta = 50%-95%)".into(),
        "5%-30%",
    );
    row("eta (confidence)", "50%-90%".into(), "50%-90%");
    row(
        "L (prediction window)",
        format!("{} slots (1 min of 10 s slots)", cfg.window_slots),
        "1 min",
    );
    FigureTable {
        id: "table2".into(),
        table,
        notes: vec![],
    }
}

/// Fig. 6: prediction error rate vs number of jobs (cluster).
pub fn fig6(fast: bool) -> FigureTable {
    jobs_sweep_figure(
        "fig6",
        "Fig. 6 — Prediction error rate vs #jobs (cluster)",
        Environment::Cluster,
        fast,
        |r| pct(r.prediction_error_rate),
    )
}

/// Fig. 7: per-resource utilization vs number of jobs (cluster).
pub fn fig7(fast: bool) -> FigureTable {
    utilization_figure("fig7", Environment::Cluster, fast)
}

/// Fig. 11: per-resource utilization vs number of jobs (EC2).
pub fn fig11(fast: bool) -> FigureTable {
    utilization_figure("fig11", Environment::Ec2, fast)
}

fn jobs_sweep_figure(
    id: &str,
    title: &str,
    env: Environment,
    fast: bool,
    metric: impl Fn(&SimulationReport) -> String + Sync,
) -> FigureTable {
    let cells: Vec<(SchemeKind, usize)> = ALL_SCHEMES
        .iter()
        .flat_map(|&s| JOB_COUNTS.iter().map(move |&n| (s, n)))
        .collect();
    let reports = parallel_map(&cells, |&(scheme, n)| {
        let params = SchemeParams {
            fast_dnn: fast,
            ..Default::default()
        };
        run_cell(env, scheme, n, &params, false)
    });
    let mut table = TextTable::new(title, &["#jobs", "CORP", "RCCR", "CloudScale", "DRA"]);
    for (j, &n) in JOB_COUNTS.iter().enumerate() {
        let mut row = vec![n.to_string()];
        for (s, _) in ALL_SCHEMES.iter().enumerate() {
            row.push(metric(&reports[s * JOB_COUNTS.len() + j]));
        }
        table.push_row(row);
    }
    FigureTable {
        id: id.into(),
        table,
        notes: vec![],
    }
}

fn utilization_figure(id: &str, env: Environment, fast: bool) -> FigureTable {
    let cells: Vec<(SchemeKind, usize)> = ALL_SCHEMES
        .iter()
        .flat_map(|&s| JOB_COUNTS.iter().map(move |&n| (s, n)))
        .collect();
    let reports = parallel_map(&cells, |&(scheme, n)| {
        let params = SchemeParams {
            fast_dnn: fast,
            ..Default::default()
        };
        run_cell(env, scheme, n, &params, false)
    });
    let mut table = TextTable::new(
        format!(
            "Fig. {} — Resource utilization vs #jobs ({}); cells: CPU / MEM / STORAGE / overall",
            if id == "fig7" { "7" } else { "11(a-c)" },
            env.name()
        ),
        &["#jobs", "CORP", "RCCR", "CloudScale", "DRA"],
    );
    for (j, &n) in JOB_COUNTS.iter().enumerate() {
        let mut row = vec![n.to_string()];
        for (s, _) in ALL_SCHEMES.iter().enumerate() {
            let r = &reports[s * JOB_COUNTS.len() + j];
            row.push(format!(
                "{:.2}/{:.2}/{:.2}/{:.2}",
                r.utilization[0], r.utilization[1], r.utilization[2], r.overall_utilization
            ));
        }
        table.push_row(row);
    }
    FigureTable {
        id: id.into(),
        table,
        notes: vec![],
    }
}

/// Aggressiveness grid per scheme for the utilization-vs-SLO trade-off of
/// Figs. 8/12 (the paper "varied the probability threshold P_th").
fn aggressiveness_grid(scheme: SchemeKind) -> Vec<SchemeParams> {
    match scheme {
        SchemeKind::Corp => [
            (0.95, 0.99),
            (0.9, 0.95),
            (0.8, 0.9),
            (0.7, 0.8),
            (0.6, 0.6),
            (0.5, 0.4),
        ]
        .iter()
        .map(|&(eta, p_th)| SchemeParams {
            confidence: eta,
            prob_threshold: p_th,
            ..Default::default()
        })
        .collect(),
        SchemeKind::Rccr => [0.95, 0.9, 0.8, 0.7, 0.6, 0.5]
            .iter()
            .map(|&eta| SchemeParams {
                confidence: eta,
                ..Default::default()
            })
            .collect(),
        SchemeKind::CloudScale => [2.0, 1.5, 1.0, 0.6, 0.3, 0.1]
            .iter()
            .map(|&a| SchemeParams {
                aggressiveness: a,
                ..Default::default()
            })
            .collect(),
        SchemeKind::Dra => [1.0, 0.9, 0.8, 0.7, 0.6, 0.5]
            .iter()
            .map(|&a| SchemeParams {
                aggressiveness: a,
                ..Default::default()
            })
            .collect(),
    }
}

/// Fig. 8: overall utilization vs SLO violation rate (cluster).
pub fn fig8(fast: bool) -> FigureTable {
    tradeoff_figure("fig8", Environment::Cluster, fast)
}

/// Fig. 12: overall utilization vs SLO violation rate (EC2).
pub fn fig12(fast: bool) -> FigureTable {
    tradeoff_figure("fig12", Environment::Ec2, fast)
}

fn tradeoff_figure(id: &str, env: Environment, fast: bool) -> FigureTable {
    const JOBS: usize = 300;
    let cells: Vec<(SchemeKind, SchemeParams)> = ALL_SCHEMES
        .iter()
        .flat_map(|&s| {
            aggressiveness_grid(s).into_iter().map(move |mut p| {
                p.fast_dnn = fast;
                (s, p)
            })
        })
        .collect();
    let reports = parallel_map(&cells, |(scheme, params)| {
        run_cell_averaged(env, *scheme, JOBS, params, false, &AVERAGING_SEEDS)
    });
    let mut table = TextTable::new(
        format!(
            "Fig. {} — Overall utilization vs SLO violation rate ({}, 300 jobs)",
            if id == "fig8" { "8" } else { "12" },
            env.name()
        ),
        &["scheme", "knob", "SLO violation", "overall utilization"],
    );
    for ((scheme, params), r) in cells.iter().zip(&reports) {
        let knob = match scheme {
            SchemeKind::Corp => format!(
                "eta={:.2},P_th={:.2}",
                params.confidence, params.prob_threshold
            ),
            SchemeKind::Rccr => format!("eta={:.2}", params.confidence),
            SchemeKind::CloudScale => format!("pad={:.1}", params.aggressiveness),
            SchemeKind::Dra => format!("overcommit={:.1}", params.aggressiveness),
        };
        table.push_row(vec![
            scheme.name().to_string(),
            knob,
            pct(r.slo_violation_rate),
            three(r.overall_utilization),
        ]);
    }
    FigureTable { id: id.into(), table, notes: vec![
        "each scheme's knob trades conservatism for utilization; read per-scheme rows as one curve".into(),
    ] }
}

/// Fig. 9: SLO violation rate vs confidence level (cluster).
pub fn fig9(fast: bool) -> FigureTable {
    confidence_figure("fig9", Environment::Cluster, fast)
}

/// Fig. 13: SLO violation rate vs confidence level (EC2).
pub fn fig13(fast: bool) -> FigureTable {
    confidence_figure("fig13", Environment::Ec2, fast)
}

fn confidence_figure(id: &str, env: Environment, fast: bool) -> FigureTable {
    const JOBS: usize = 300;
    let cells: Vec<(SchemeKind, f64)> = ALL_SCHEMES
        .iter()
        .flat_map(|&s| CONFIDENCE_LEVELS.iter().map(move |&c| (s, c)))
        .collect();
    let reports = parallel_map(&cells, |&(scheme, confidence)| {
        let params = SchemeParams {
            confidence,
            fast_dnn: fast,
            ..Default::default()
        };
        run_cell_averaged(env, scheme, JOBS, &params, false, &AVERAGING_SEEDS)
    });
    let mut table = TextTable::new(
        format!(
            "Fig. {} — SLO violation rate vs confidence level ({}, 300 jobs)",
            if id == "fig9" { "9" } else { "13" },
            env.name()
        ),
        &["confidence", "CORP", "RCCR", "CloudScale", "DRA"],
    );
    for (c, &eta) in CONFIDENCE_LEVELS.iter().enumerate() {
        let mut row = vec![pct(eta)];
        for (s, _) in ALL_SCHEMES.iter().enumerate() {
            row.push(pct(
                reports[s * CONFIDENCE_LEVELS.len() + c].slo_violation_rate
            ));
        }
        table.push_row(row);
    }
    FigureTable {
        id: id.into(),
        table,
        notes: vec![
            "CloudScale and DRA have no confidence machinery; their columns are flat by design (paper Fig. 9 discussion)".into(),
        ],
    }
}

/// Fig. 10: allocation overhead for 300 jobs (cluster).
pub fn fig10(fast: bool) -> FigureTable {
    overhead_figure("fig10", Environment::Cluster, fast)
}

/// Fig. 14: allocation overhead for 300 jobs (EC2).
pub fn fig14(fast: bool) -> FigureTable {
    overhead_figure("fig14", Environment::Ec2, fast)
}

fn overhead_figure(id: &str, env: Environment, fast: bool) -> FigureTable {
    const JOBS: usize = 300;
    let reports = parallel_map(&ALL_SCHEMES, |&scheme| {
        let params = SchemeParams {
            fast_dnn: fast,
            ..Default::default()
        };
        run_cell(env, scheme, JOBS, &params, true)
    });
    let mut table = TextTable::new(
        format!(
            "Fig. {} — Overhead: latency to allocate resources to 300 jobs ({})",
            if id == "fig10" { "10" } else { "14" },
            env.name()
        ),
        &["scheme", "latency (ms)", "decision + comms"],
    );
    for (scheme, r) in ALL_SCHEMES.iter().zip(&reports) {
        table.push_row(vec![
            scheme.name().to_string(),
            format!("{:.1}", r.overhead_ms),
            format!("completed {} / violated {}", r.completed, r.violated),
        ]);
    }
    FigureTable { id: id.into(), table, notes: vec![
        "CORP pays for DNN inference; the EC2 profile adds 12x the per-message communication latency".into(),
    ] }
}

/// Shard counts swept by the control-plane scalability experiment.
pub const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Control-plane scalability: the CORP pipeline behind 1→8 scheduler
/// shards arbitrated on the coordinator's capacity ledger
/// (`corp-cluster`). Cells run sequentially — not fanned out — so each
/// wall-clock throughput measurement owns the machine's cores.
pub fn scalability(fast: bool) -> FigureTable {
    const JOBS: usize = 300;
    let params = SchemeParams {
        fast_dnn: fast,
        ..Default::default()
    };
    let mut table = TextTable::new(
        "Scalability — CORP behind a sharded control plane (cluster, 300 jobs)",
        &[
            "shards",
            "throughput (jobs/s)",
            "conflict rate",
            "retries",
            "latency (ms)",
            "overall utilization",
            "SLO violation",
        ],
    );
    for &shards in &SHARD_COUNTS {
        let (r, wall) = run_cell_sharded(
            Environment::Cluster,
            SchemeKind::Corp,
            JOBS,
            &params,
            shards,
            true,
        );
        let cp = r
            .control_plane
            .as_ref()
            .expect("sharded runs report control-plane stats");
        let throughput = cp.commits as f64 / wall.max(1e-9);
        table.push_row(vec![
            shards.to_string(),
            format!("{throughput:.0}"),
            pct(cp.conflict_rate()),
            cp.retries.to_string(),
            format!("{:.1}", r.overhead_ms),
            three(r.overall_utilization),
            pct(r.slo_violation_rate),
        ]);
    }
    let cores = hardware_parallelism();
    FigureTable {
        id: "scalability".into(),
        table,
        notes: vec![
            "throughput = committed placements / simulation wall-clock; conflict rate = refused / (admitted + refused) claims at the capacity ledger".into(),
            "one shard reproduces the monolithic scheduler's decisions exactly (same seed, same report)".into(),
            format!(
                "host parallelism: {cores} core(s) — shard speedup needs at least as many cores as shards; below that the sweep measures pure coordination overhead"
            ),
        ],
    }
}

/// One timed row of the hot-path performance baseline
/// (`BENCH_hotpath.json`).
#[derive(Debug, Clone, Serialize)]
pub struct PerfArm {
    /// Scheme name (paper spelling).
    pub scheme: String,
    /// Always `"tuned"` (pooled prediction fan-out + fused/batched DNN
    /// kernels, the only path); older baselines also carry `"baseline"`
    /// rows.
    pub arm: String,
    /// Wall-clock seconds to build the provisioner, dominated by DNN
    /// pretraining for CORP (~0 for the baselines).
    pub pretrain_secs: f64,
    /// Wall-clock seconds of the simulation loop.
    pub run_secs: f64,
    /// Simulated slots per wall-clock second.
    pub slots_per_sec: f64,
    /// Completed jobs per wall-clock second.
    pub jobs_per_sec: f64,
    /// Resolved predictions per wall-clock second.
    pub predictions_per_sec: f64,
}

/// File the perf runner writes its machine-readable baseline to (in the
/// invoking directory; `scripts/check.sh perf-smoke` consumes it).
pub const PERF_BASELINE_FILE: &str = "BENCH_hotpath.json";

/// Hot-path performance baseline: every scheme's heaviest #jobs cell
/// (Fig. 6's 300-job cluster column), timed best-of-3. Cells run
/// sequentially — not fanned out — so each wall-clock measurement owns the
/// machine's cores. Writes [`PERF_BASELINE_FILE`] next to the table it
/// returns.
///
/// # Errors
///
/// A one-line verdict when a row has a non-finite metric or a zero
/// throughput, or when the baseline cannot be written, so the smoke gate
/// fails loudly.
pub fn perf(fast: bool) -> Result<FigureTable, String> {
    const JOBS: usize = 300;
    let mut arms: Vec<PerfArm> = Vec::new();
    for &scheme in &ALL_SCHEMES {
        let params = SchemeParams {
            fast_dnn: fast,
            ..Default::default()
        };
        // Best-of-3: each measurement rebuilds the provisioner (the
        // pretrain cost) and replays the identical deterministic sim; the
        // minimum is the least noise-contaminated sample, which matters on
        // small wall-clocks in shared environments.
        let mut pretrain_secs = f64::INFINITY;
        let mut run_secs = f64::INFINITY;
        let mut report = None;
        for _ in 0..3 {
            let building = std::time::Instant::now();
            let mut provisioner = build_provisioner(scheme, Environment::Cluster, &params);
            pretrain_secs = pretrain_secs.min(building.elapsed().as_secs_f64());
            let mut sim = Simulation::new(
                Environment::Cluster.cluster(),
                Environment::Cluster.workload(JOBS, params.seed.wrapping_add(JOBS as u64)),
                SimulationOptions {
                    measure_decision_time: false,
                    ..Default::default()
                },
            );
            let running = std::time::Instant::now();
            let r = sim.run(provisioner.as_mut());
            run_secs = run_secs.min(running.elapsed().as_secs_f64());
            report = Some(r);
        }
        let report = report.expect("three timed runs");
        let wall = run_secs.max(1e-9);
        let row = PerfArm {
            scheme: scheme.name().to_string(),
            arm: "tuned".to_string(),
            pretrain_secs,
            run_secs,
            slots_per_sec: report.slots_run as f64 / wall,
            jobs_per_sec: report.completed as f64 / wall,
            predictions_per_sec: report.predictions_resolved as f64 / wall,
        };
        perf_verdict(&row)?;
        arms.push(row);
    }
    write_baseline(PERF_BASELINE_FILE, &serde::json::to_string(&arms))?;
    let mut table = TextTable::new(
        "Perf — hot-path throughput (pooled prediction + fused DNN kernels); cluster, 300 jobs",
        &[
            "scheme",
            "pretrain (s)",
            "sim wall (s)",
            "slots/s",
            "jobs/s",
            "predictions/s",
        ],
    );
    for a in &arms {
        table.push_row(vec![
            a.scheme.clone(),
            three(a.pretrain_secs),
            three(a.run_secs),
            format!("{:.0}", a.slots_per_sec),
            format!("{:.1}", a.jobs_per_sec),
            format!("{:.0}", a.predictions_per_sec),
        ]);
    }
    let cores = hardware_parallelism();
    Ok(FigureTable {
        id: "perf".into(),
        table,
        notes: vec![
            format!("machine-readable baseline written to {PERF_BASELINE_FILE}"),
            format!(
                "host parallelism: {cores} core(s) — the prediction fan-out needs >1 core to show"
            ),
        ],
    })
}

/// The perf smoke check on one row: `Err` carries the one-line verdict
/// naming the first non-finite metric, or the zero throughput.
fn perf_verdict(row: &PerfArm) -> Result<(), String> {
    for (metric, v) in [
        ("pretrain_secs", row.pretrain_secs),
        ("run_secs", row.run_secs),
        ("slots_per_sec", row.slots_per_sec),
        ("jobs_per_sec", row.jobs_per_sec),
        ("predictions_per_sec", row.predictions_per_sec),
    ] {
        if !v.is_finite() {
            return Err(format!("perf: {}: non-finite {metric}", row.scheme));
        }
    }
    if row.slots_per_sec > 0.0 && row.jobs_per_sec > 0.0 && row.predictions_per_sec > 0.0 {
        Ok(())
    } else {
        Err(format!("perf: {}: zero throughput: {row:?}", row.scheme))
    }
}

/// Writes a machine-readable baseline; `Err` is the one-line verdict.
fn write_baseline(path: &str, json: &str) -> Result<(), String> {
    std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))
}

/// One timed arm of the end-to-end throughput benchmark (`BENCH_e2e.json`
/// row).
#[derive(Debug, Clone, Serialize)]
pub struct E2eArm {
    /// Scheme name (paper spelling).
    pub scheme: String,
    /// `"pooled"` (the monolithic scheduler) or `"sharded-K"` (the same
    /// scheme behind the K-shard sharded control plane). Older
    /// baselines also carry `"scoped"` rows.
    pub arm: String,
    /// Wall-clock seconds to build the provisioner (DNN pretraining for
    /// CORP; ~0 for the baselines).
    pub pretrain_secs: f64,
    /// Wall-clock seconds of the simulation loop.
    pub run_secs: f64,
    /// Simulated slots per wall-clock second.
    pub slots_per_sec: f64,
    /// Completed jobs per wall-clock second.
    pub jobs_per_sec: f64,
    /// Fraction of the capacity ledger's admitted claims that landed on a
    /// VM no other shard had written that slot (fast-path hits). Zero for
    /// monolithic arms, which have no ledger.
    pub fast_path_rate: f64,
    /// Claims whose proposed VM another shard had already written that
    /// slot (zero for monolithic arms).
    pub stripe_conflicts: u64,
}

/// Machine-readable result of the end-to-end benchmark: the committed
/// baseline `scripts/check.sh perf-regression` compares fresh runs
/// against.
#[derive(Debug, Clone, Serialize)]
pub struct E2eBaseline {
    /// Fleet size (VMs) the benchmark drove.
    pub vms: usize,
    /// Jobs in the measured workload.
    pub jobs: usize,
    /// Whether the cheap test DNN was used (`--fast`).
    pub fast: bool,
    /// Every timed arm.
    pub arms: Vec<E2eArm>,
}

/// File the e2e runner writes its machine-readable baseline to (in the
/// invoking directory; `scripts/check.sh perf-regression` consumes it).
pub const E2E_BASELINE_FILE: &str = "BENCH_e2e.json";

/// Env var naming a committed [`E2E_BASELINE_FILE`] to regress against:
/// when set, the runner fails if the fresh CORP pooled slots/sec falls
/// more than [`E2E_REGRESSION_TOLERANCE`] below the baseline's.
pub const E2E_BASELINE_ENV: &str = "CORP_E2E_BASELINE";

/// Allowed fractional slots/sec drop before the baseline compare fails.
pub const E2E_REGRESSION_TOLERANCE: f64 = 0.20;

/// Allowed absolute fast-path-rate drop (fresh vs committed baseline)
/// before the sharded regression compare fails.
pub const E2E_FAST_PATH_TOLERANCE: f64 = 0.05;

/// Shard counts the end-to-end benchmark sweeps when no `--shards`
/// override is given.
pub const E2E_SHARD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Extracts one arm's numeric field from a serialized [`E2eBaseline`]. A
/// string scan, not a parser — the vendored serde has no deserializer, and
/// the file is always written by this module, so the field order
/// (`"scheme"`, `"arm"`, ..., numeric fields) is fixed.
fn baseline_field(json: &str, scheme: &str, arm: &str, field: &str) -> Option<f64> {
    let row = json.find(&format!("\"scheme\":\"{scheme}\",\"arm\":\"{arm}\""))?;
    let rest = &json[row..];
    let key = format!("\"{field}\":");
    let tail = &rest[rest.find(&key)? + key.len()..];
    let end = tail.find([',', '}'])?;
    tail[..end].trim().parse().ok()
}

/// The 1024-VM fleet the end-to-end benchmark drives (the best-fit
/// microbenchmark's fleet size, now end to end): 256 SL230-class PMs at 4
/// VMs each.
fn e2e_fleet() -> Cluster {
    Cluster::from_profile(EnvironmentProfile::palmetto_cluster().with_num_pms(256))
}

/// The end-to-end workload: the figure sweeps' job mix at steady-state
/// saturation. Durations sit in the upper half of the paper's short-job
/// range (2-5 min, still under the 5-minute timeout) so thousands of jobs
/// run concurrently across the 1024 VMs — the regime where every
/// provisioning window carries a full fleet of per-job predictions, which
/// is exactly the traffic the worker-pool runtime amortizes.
fn e2e_workload(jobs: usize, seed: u64) -> Vec<JobSpec> {
    let config = WorkloadConfig {
        num_jobs: jobs,
        mean_interarrival_slots: Environment::ARRIVAL_WINDOW_SLOTS / jobs.max(1) as f64,
        min_duration_secs: 120.0,
        max_duration_secs: 300.0,
        demand_scale: 1.5,
        ..WorkloadConfig::default()
    };
    WorkloadGenerator::new(config, seed).generate()
}

/// End-to-end throughput: every scheme driving the 1024-VM fleet, timed as
/// the monolithic scheduler (`pooled`) and behind the sharded control
/// plane across the [`E2E_SHARD_SWEEP`] shard counts (`sharded-1` …
/// `sharded-8`; `shards = Some(K)`, the CLI's `--shards K`, pins the sweep
/// to one count). Arms run sequentially so each wall-clock measurement
/// owns the machine. The `sharded-1` arm must reproduce the monolithic
/// decisions exactly — every claim is a fast-path hit, and the
/// report's decision metrics are asserted equal to the pooled arm's.
/// Multi-shard arms decorrelate per-shard seeds, so only their throughput
/// is comparable. Monolithic arms are best-of-3; sharded arms are single
/// runs.
///
/// Writes [`E2E_BASELINE_FILE`] next to the table it returns. When
/// [`E2E_BASELINE_ENV`] names a committed baseline, returns a one-line
/// error instead (and writes nothing) if CORP's pooled slots/sec regressed
/// more than [`E2E_REGRESSION_TOLERANCE`] below it, if CORP's `sharded-8`
/// slots/sec fell more than the same tolerance below its own committed
/// number (or, on multi-core hosts, below the fresh pooled arm — at 1 core
/// sharding is pure coordination overhead and that claim is
/// unenforceable), or if its fast-path rate dropped more than
/// [`E2E_FAST_PATH_TOLERANCE`] below the committed baseline's.
pub fn e2e(fast: bool, shards: Option<usize>) -> Result<FigureTable, String> {
    let jobs = if fast { 4000 } else { 8000 };
    let shard_counts: Vec<usize> = match shards {
        Some(k) => vec![k],
        None => E2E_SHARD_SWEEP.to_vec(),
    };
    let vms = e2e_fleet().vms.len();
    let params = SchemeParams {
        fast_dnn: fast,
        ..Default::default()
    };
    let options = || SimulationOptions {
        measure_decision_time: false,
        ..Default::default()
    };
    let mut arms: Vec<E2eArm> = Vec::new();
    for &scheme in &ALL_SCHEMES {
        // Best-of-3: each measurement rebuilds the provisioner and replays
        // the identical deterministic sim; the minimum is the least
        // noise-contaminated sample.
        let mut pretrain_secs = f64::INFINITY;
        let mut run_secs = f64::INFINITY;
        let mut report = None;
        for _ in 0..3 {
            let building = std::time::Instant::now();
            let mut provisioner = build_provisioner(scheme, Environment::Cluster, &params);
            pretrain_secs = pretrain_secs.min(building.elapsed().as_secs_f64());
            let mut sim = Simulation::new(
                e2e_fleet(),
                e2e_workload(jobs, params.seed.wrapping_add(jobs as u64)),
                options(),
            );
            let running = std::time::Instant::now();
            let r = sim.run(provisioner.as_mut());
            run_secs = run_secs.min(running.elapsed().as_secs_f64());
            report = Some(r);
        }
        let mono = report.expect("three timed runs");
        arms.push(e2e_arm(scheme, "pooled", pretrain_secs, run_secs, &mono));
        for &k in &shard_counts {
            let building = std::time::Instant::now();
            let mut provisioner =
                build_sharded_provisioner(scheme, Environment::Cluster, &params, k);
            let pretrain_secs = building.elapsed().as_secs_f64();
            let mut sim = Simulation::new(
                e2e_fleet(),
                e2e_workload(jobs, params.seed.wrapping_add(jobs as u64)),
                options(),
            );
            let running = std::time::Instant::now();
            let report = sim.run(&mut provisioner);
            let run_secs = running.elapsed().as_secs_f64();
            if k == 1 {
                // One shard must reproduce the monolithic scheduler's
                // decisions exactly (the only report fields allowed to
                // differ are the provisioner name and the control-plane
                // block, which monolithic runs don't have).
                assert_eq!(report.utilization, mono.utilization, "{scheme:?}");
                assert_eq!(
                    report.overall_utilization, mono.overall_utilization,
                    "{scheme:?}"
                );
                assert_eq!(
                    report.slo_violation_rate, mono.slo_violation_rate,
                    "{scheme:?}"
                );
                assert_eq!(report.completed, mono.completed, "{scheme:?}");
                assert_eq!(report.violated, mono.violated, "{scheme:?}");
                assert_eq!(report.rejected, mono.rejected, "{scheme:?}");
                assert_eq!(report.slots_run, mono.slots_run, "{scheme:?}");
            }
            arms.push(e2e_arm(
                scheme,
                &format!("sharded-{k}"),
                pretrain_secs,
                run_secs,
                &report,
            ));
        }
    }
    if let Ok(path) = std::env::var(E2E_BASELINE_ENV) {
        let committed = std::fs::read_to_string(&path)
            .map_err(|e| format!("{E2E_BASELINE_ENV}={path}: unreadable baseline: {e}"))?;
        e2e_gate(&committed, &path, &arms)?;
    }
    let baseline = E2eBaseline {
        vms,
        jobs,
        fast,
        arms: arms.clone(),
    };
    write_baseline(E2E_BASELINE_FILE, &serde::json::to_string(&baseline))?;
    let mut table = TextTable::new(
        format!(
            "E2E — end-to-end throughput, monolithic (pooled) vs sharded control-plane sweep \
             ({vms} VMs, {jobs} jobs)"
        ),
        &[
            "scheme",
            "arm",
            "pretrain (s)",
            "sim wall (s)",
            "slots/s",
            "jobs/s",
            "fast-path",
            "stripe conflicts",
        ],
    );
    for a in &arms {
        let sharded = a.arm.starts_with("sharded");
        table.push_row(vec![
            a.scheme.clone(),
            a.arm.clone(),
            three(a.pretrain_secs),
            three(a.run_secs),
            format!("{:.0}", a.slots_per_sec),
            format!("{:.1}", a.jobs_per_sec),
            if sharded {
                pct(a.fast_path_rate)
            } else {
                "-".into()
            },
            if sharded {
                a.stripe_conflicts.to_string()
            } else {
                "-".into()
            },
        ]);
    }
    Ok(FigureTable {
        id: "e2e".into(),
        table,
        notes: vec![
            format!("machine-readable baseline written to {E2E_BASELINE_FILE}"),
            "sharded-1 verified decision-identical to pooled; multi-shard arms decorrelate \
             per-shard seeds, so only their throughput is comparable"
                .into(),
            "fast-path = fraction of admitted claims that landed on a VM no other shard \
             had written that slot; stripe conflicts = claims whose proposed VM another \
             shard had already written"
                .into(),
        ],
    })
}

/// The e2e regression gate against the `committed` baseline (read from
/// `path`): `Err` carries the one-line verdict of the first failed check.
fn e2e_gate(committed: &str, path: &str, arms: &[E2eArm]) -> Result<(), String> {
    let tolerance_pct = E2E_REGRESSION_TOLERANCE * 100.0;
    let committed_slots = baseline_field(committed, "CORP", "pooled", "slots_per_sec")
        .ok_or_else(|| format!("{path}: no CORP pooled slots_per_sec row"))?;
    let fresh = arms
        .iter()
        .find(|a| a.scheme == "CORP" && a.arm == "pooled")
        .expect("CORP ran its pooled arm")
        .slots_per_sec;
    let floor = committed_slots * (1.0 - E2E_REGRESSION_TOLERANCE);
    if fresh < floor {
        return Err(format!(
            "perf regression: CORP pooled {fresh:.0} slots/s is more than {tolerance_pct:.0}% \
             below the committed baseline {committed_slots:.0} (floor {floor:.0})"
        ));
    }
    let Some(sharded8) = arms
        .iter()
        .find(|a| a.scheme == "CORP" && a.arm == "sharded-8")
    else {
        return Ok(());
    };
    let s8 = sharded8.slots_per_sec;
    // Self-regression: sharded-8 must hold its own committed throughput
    // (baselines predating the shard sweep have no such row; skip them).
    if let Some(committed_s8) = baseline_field(committed, "CORP", "sharded-8", "slots_per_sec") {
        let s8_floor = committed_s8 * (1.0 - E2E_REGRESSION_TOLERANCE);
        if s8 < s8_floor {
            return Err(format!(
                "perf regression: CORP sharded-8 {s8:.0} slots/s is more than \
                 {tolerance_pct:.0}% below its committed baseline {committed_s8:.0} \
                 (floor {s8_floor:.0})"
            ));
        }
    }
    // The sharded control plane's headline claim: at 8 shards the control plane
    // keeps up with the monolithic pooled runtime (same noise tolerance as
    // the pooled gate). Only enforceable where shards can actually run in
    // parallel — on a single-core host the sharded arm is pure
    // coordination overhead with nothing to win back (the same 1-core
    // inversion EXPERIMENTS.md documents for the worker pool).
    let cores = hardware_parallelism();
    if cores > 1 {
        let sharded_floor = fresh * (1.0 - E2E_REGRESSION_TOLERANCE);
        if s8 < sharded_floor {
            return Err(format!(
                "perf regression: CORP sharded-8 {s8:.0} slots/s fell below the pooled arm's \
                 {fresh:.0} by more than {tolerance_pct:.0}% (floor {sharded_floor:.0}) on a \
                 {cores}-core host"
            ));
        }
    }
    // Fast-path-rate regression: a contention or protocol change that
    // silently pushes claims off the fast path shows up here even while
    // throughput noise hides it. Baselines predating the fast-path
    // counter have no such row; skip them.
    if let Some(committed_rate) = baseline_field(committed, "CORP", "sharded-8", "fast_path_rate") {
        if sharded8.fast_path_rate < committed_rate - E2E_FAST_PATH_TOLERANCE {
            return Err(format!(
                "fast-path regression: CORP sharded-8 rate {:.3} dropped more than \
                 {E2E_FAST_PATH_TOLERANCE} below the committed baseline {committed_rate:.3}",
                sharded8.fast_path_rate
            ));
        }
    }
    Ok(())
}

/// Builds one [`E2eArm`] row, asserting finite non-zero throughput so the
/// regression gate fails loudly on a broken measurement.
fn e2e_arm(
    scheme: SchemeKind,
    arm: &str,
    pretrain_secs: f64,
    run_secs: f64,
    report: &SimulationReport,
) -> E2eArm {
    let wall = run_secs.max(1e-9);
    let (fast_path_rate, stripe_conflicts) = report
        .control_plane
        .as_ref()
        .map(|cp| {
            (
                cp.fast_path_hits as f64 / cp.reservations.max(1) as f64,
                cp.stripe_conflicts,
            )
        })
        .unwrap_or((0.0, 0));
    let row = E2eArm {
        scheme: scheme.name().to_string(),
        arm: arm.to_string(),
        pretrain_secs,
        run_secs,
        slots_per_sec: report.slots_run as f64 / wall,
        jobs_per_sec: report.completed as f64 / wall,
        fast_path_rate,
        stripe_conflicts,
    };
    assert!(
        row.pretrain_secs.is_finite() && row.run_secs.is_finite(),
        "{} {}: non-finite wall-clock",
        row.scheme,
        row.arm
    );
    assert!(
        row.slots_per_sec > 0.0 && row.jobs_per_sec > 0.0,
        "{} {}: zero throughput: {row:?}",
        row.scheme,
        row.arm
    );
    row
}

/// Fault intensities swept by the availability experiment: multiples of
/// the default scenario's event rates (0.0 = fault-free control row).
pub const FAULT_INTENSITIES: [f64; 4] = [0.0, 0.5, 1.0, 2.0];

/// Seed of the fault schedules (fixed: every scheme at a given intensity
/// faces the identical crash/degrade/poison/kill sequence).
pub const FAULT_SEED: u64 = 0xFA17;

/// Availability under injected faults: every scheme behind a supervised
/// 2-shard control plane, swept over fault intensity. Reports SLO and
/// utilization damage next to the recovery machinery's work (jobs killed
/// by crashes, re-placement latency, worker restarts, inline-scheduled
/// slots).
pub fn availability(fast: bool) -> FigureTable {
    const JOBS: usize = 120;
    const SHARDS: usize = 2;
    let cells: Vec<(SchemeKind, f64)> = ALL_SCHEMES
        .iter()
        .flat_map(|&s| FAULT_INTENSITIES.iter().map(move |&i| (s, i)))
        .collect();
    let reports = parallel_map(&cells, |&(scheme, intensity)| {
        let params = SchemeParams {
            fast_dnn: fast,
            ..Default::default()
        };
        let cfg = FaultConfig::scenario(FAULT_SEED, intensity);
        run_cell_faulty(Environment::Cluster, scheme, JOBS, &params, SHARDS, &cfg)
    });
    let mut table = TextTable::new(
        "Availability — schemes under deterministic fault injection (cluster, 120 jobs, 2 shards)",
        &[
            "scheme",
            "intensity",
            "SLO violation",
            "overall utilization",
            "VM crashes",
            "jobs killed",
            "replaced",
            "replace latency (slots)",
            "restarts",
            "inline slots",
            "dropped msgs",
        ],
    );
    for ((scheme, intensity), r) in cells.iter().zip(&reports) {
        let f = r.faults.clone().unwrap_or_default();
        let cp = r.control_plane.clone().unwrap_or_default();
        table.push_row(vec![
            scheme.name().to_string(),
            format!("{intensity:.1}x"),
            pct(r.slo_violation_rate),
            three(r.overall_utilization),
            f.vm_crashes.to_string(),
            f.jobs_killed.to_string(),
            f.replacements.to_string(),
            format!("{:.1}", f.mean_replacement_latency_slots),
            cp.worker_restarts.to_string(),
            cp.inline_slots.to_string(),
            cp.messages_dropped.to_string(),
        ]);
    }
    FigureTable {
        id: "faults".into(),
        table,
        notes: vec![
            "identical fault schedule per intensity across schemes (same seed); 0.0x is the fault-free control".into(),
            "jobs killed by VM crashes lose all progress and re-enter the queue; replace latency is kill-to-replacement in slots".into(),
            "restarts/inline/dropped count the shard supervisor's recovery work under scheduled worker kills and message chaos".into(),
        ],
    }
}

/// Ablations of CORP's design choices (DESIGN.md §6): each row disables one
/// component and reports the damage.
pub fn ablations(fast: bool) -> FigureTable {
    const JOBS: usize = 200;
    type ConfigTweak = Box<dyn Fn(&mut CorpConfig) + Send + Sync>;
    let variants: Vec<(&'static str, ConfigTweak)> = vec![
        ("full CORP", Box::new(|_| {})),
        (
            "no HMM correction",
            Box::new(|c| c.use_hmm_correction = false),
        ),
        (
            "no confidence interval",
            Box::new(|c| c.use_confidence_interval = false),
        ),
        ("no packing", Box::new(|c| c.use_packing = false)),
        (
            "random placement",
            Box::new(|c| c.use_volume_placement = false),
        ),
    ];
    let reports = parallel_map(&variants, |(_, tweak)| {
        let mut config = if fast {
            CorpConfig::fast()
        } else {
            CorpConfig::default()
        };
        tweak(&mut config);
        let mut corp = corp_core::CorpProvisioner::new(config);
        corp.pretrain(&crate::env::historical_histories(Environment::Cluster, 40));
        let mut sim = Simulation::new(
            Environment::Cluster.cluster(),
            Environment::Cluster.workload(JOBS, 7u64.wrapping_add(JOBS as u64)),
            SimulationOptions {
                measure_decision_time: false,
                ..Default::default()
            },
        );
        sim.run(&mut corp)
    });
    let mut table = TextTable::new(
        "Ablations — CORP components (cluster, 300 jobs)",
        &[
            "variant",
            "overall utilization",
            "SLO violation",
            "prediction error",
        ],
    );
    for ((name, _), r) in variants.iter().zip(&reports) {
        table.push_row(vec![
            name.to_string(),
            three(r.overall_utilization),
            pct(r.slo_violation_rate),
            pct(r.prediction_error_rate),
        ]);
    }
    FigureTable {
        id: "ablations".into(),
        table,
        notes: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_lists_paper_parameters() {
        let t = table2();
        assert!(t.table.len() >= 10);
        let rendered = t.table.to_string();
        assert!(rendered.contains("P_th"));
        assert!(rendered.contains("0.95"));
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map(&(0..32).collect::<Vec<usize>>(), |x| x * 2);
        assert_eq!(out, (0..32).map(|x| x * 2).collect::<Vec<usize>>());
    }

    #[test]
    fn aggressiveness_grids_have_six_points_each() {
        for s in ALL_SCHEMES {
            assert_eq!(aggressiveness_grid(s).len(), 6, "{s:?}");
        }
    }

    #[test]
    fn perf_fails_with_one_line_verdicts() {
        let row = |slots_per_sec: f64, run_secs: f64| PerfArm {
            scheme: "CORP".into(),
            arm: "tuned".into(),
            pretrain_secs: 0.5,
            run_secs,
            slots_per_sec,
            jobs_per_sec: 1.0,
            predictions_per_sec: 1.0,
        };
        assert_eq!(perf_verdict(&row(100.0, 1.0)), Ok(()));
        let nan = perf_verdict(&row(100.0, f64::NAN)).unwrap_err();
        assert_eq!(nan, "perf: CORP: non-finite run_secs");
        let zero = perf_verdict(&row(0.0, 1.0)).unwrap_err();
        assert!(zero.starts_with("perf: CORP: zero throughput"), "{zero}");
        assert!(!zero.contains('\n'), "{zero}");
        let unwritable = write_baseline("no-such-dir/BENCH_hotpath.json", "[]").unwrap_err();
        assert!(
            unwritable.starts_with("write no-such-dir/BENCH_hotpath.json: "),
            "{unwritable}"
        );
        assert!(!unwritable.contains('\n'), "{unwritable}");
    }

    #[test]
    fn e2e_gate_fails_with_one_line_verdicts() {
        let arm = |arm: &str, slots_per_sec: f64, fast_path_rate: f64| E2eArm {
            scheme: "CORP".into(),
            arm: arm.into(),
            pretrain_secs: 0.0,
            run_secs: 1.0,
            slots_per_sec,
            jobs_per_sec: 1.0,
            fast_path_rate,
            stripe_conflicts: 0,
        };
        let committed = serde::json::to_string(&E2eBaseline {
            vms: 1,
            jobs: 1,
            fast: true,
            arms: vec![arm("pooled", 100.0, 0.0), arm("sharded-8", 100.0, 0.5)],
        });
        assert_eq!(
            e2e_gate(&committed, "c", &[arm("pooled", 85.0, 0.0)]),
            Ok(())
        );
        let slow = e2e_gate(&committed, "c", &[arm("pooled", 70.0, 0.0)]).unwrap_err();
        assert!(
            slow.starts_with("perf regression: CORP pooled 70 slots/s"),
            "{slow}"
        );
        assert!(!slow.contains('\n'), "{slow}");
        let rate = e2e_gate(
            &committed,
            "c",
            &[arm("pooled", 100.0, 0.0), arm("sharded-8", 100.0, 0.4)],
        )
        .unwrap_err();
        assert!(rate.starts_with("fast-path regression"), "{rate}");
        let missing = e2e_gate("{}", "c", &[]).unwrap_err();
        assert_eq!(missing, "c: no CORP pooled slots_per_sec row");
    }
}
