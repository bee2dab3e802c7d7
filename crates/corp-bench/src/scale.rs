//! The `corp-exp scale` subcommand: a streaming soak that drives the
//! arena/SoA data model at fleet scale.
//!
//! The figure runners materialize their workloads — hundreds of jobs, so
//! who cares. This runner exists to prove the opposite regime: tens of
//! thousands of VMs and a million-job arrival stream pulled lazily through
//! [`StreamingSimulation`] with
//! [`reclaim_completed`](SimulationOptions::reclaim_completed) on, where
//! engine memory must stay bounded by *concurrently live* jobs no matter
//! how long the trace runs. The run records throughput (slots/s, jobs/s),
//! the arena high-water mark, and the process peak RSS into
//! [`SCALE_BASELINE_FILE`]; `scripts/check.sh scale-smoke` replays a small
//! configuration and asserts the memory-boundedness invariant.

use crate::serve::parse_seed;
use crate::{FigureTable, TextTable};
use corp_cluster::{ShardConfig, ShardedProvisioner};
use corp_sim::{
    Cluster, EnvironmentProfile, Provisioner, SimulationOptions, StaticPeakProvisioner,
    StreamingSimulation,
};
use corp_trace::{JobSource, SyntheticSource, WorkloadConfig};
use serde::Serialize;

/// File the scale runner writes its machine-readable result to (in the
/// invoking directory; `scripts/check.sh scale-smoke` consumes it).
pub const SCALE_BASELINE_FILE: &str = "BENCH_scale.json";

/// Parsed `corp-exp scale` flags.
#[derive(Debug, Clone)]
pub struct ScaleArgs {
    /// Target VM fleet size (`--vms N`; rounded up to whole PMs).
    pub vms: usize,
    /// Jobs to stream through the fleet (`--jobs N`).
    pub jobs: usize,
    /// Workload seed (`--seed S`, non-zero).
    pub seed: u64,
    /// Run the soak behind a `K`-shard sharded control plane instead
    /// of the direct monolithic provisioner (`--shards K`; `None` =
    /// monolithic).
    pub shards: Option<usize>,
    /// Small CI configuration plus invariant assertions (`--smoke`).
    pub smoke: bool,
}

impl Default for ScaleArgs {
    fn default() -> Self {
        ScaleArgs {
            vms: 50_000,
            jobs: 1_000_000,
            seed: 0x5CA1E,
            shards: None,
            smoke: false,
        }
    }
}

impl ScaleArgs {
    /// Parses the flags following `scale` on the command line. Unknown
    /// flags and malformed values produce an error string for the caller
    /// to print (exit 2), never a panic.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut out = ScaleArgs::default();
        let mut i = 0;
        let value = |args: &[String], i: usize, flag: &str| -> Result<String, String> {
            args.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        while i < args.len() {
            match args[i].as_str() {
                "--vms" => {
                    let v = value(args, i, "--vms")?
                        .parse::<usize>()
                        .map_err(|_| "invalid --vms: expected a count".to_string())?;
                    if v == 0 {
                        return Err("invalid --vms: must be at least 1".to_string());
                    }
                    out.vms = v;
                    i += 2;
                }
                "--jobs" => {
                    let j = value(args, i, "--jobs")?
                        .parse::<usize>()
                        .map_err(|_| "invalid --jobs: expected a count".to_string())?;
                    if j == 0 {
                        return Err("invalid --jobs: must be at least 1".to_string());
                    }
                    out.jobs = j;
                    i += 2;
                }
                "--seed" => {
                    out.seed = parse_seed(&value(args, i, "--seed")?)?;
                    i += 2;
                }
                "--shards" => {
                    let k = value(args, i, "--shards")?
                        .parse::<usize>()
                        .map_err(|_| "invalid --shards: expected a count".to_string())?;
                    if k == 0 {
                        return Err("invalid --shards: must be at least 1".to_string());
                    }
                    out.shards = Some(k);
                    i += 2;
                }
                "--smoke" => {
                    // The CI configuration: small enough to finish in
                    // seconds, large enough that an unbounded arena would
                    // be unmistakable against the concurrency level.
                    out.smoke = true;
                    out.vms = 256;
                    out.jobs = 5_000;
                    i += 1;
                }
                // Global corp-exp flags that may trail the subcommand.
                "--fast" | "--json" => {
                    i += 1;
                }
                other => return Err(format!("unknown scale flag `{other}`")),
            }
        }
        Ok(out)
    }
}

/// Machine-readable result of one soak run ([`SCALE_BASELINE_FILE`]).
#[derive(Debug, Clone, Serialize)]
pub struct ScaleResult {
    /// Actual VM fleet size driven.
    pub vms: usize,
    /// Jobs pulled from the stream and submitted.
    pub jobs: usize,
    /// Whether this was the small `--smoke` configuration.
    pub smoke: bool,
    /// Workload seed.
    pub seed: u64,
    /// Scheduler shards the soak ran behind (0 = direct monolithic
    /// provisioner, no control plane).
    pub shards: usize,
    /// Claims that landed on a VM no other shard had written that slot
    /// (0 for monolithic runs).
    pub fast_path_hits: u64,
    /// Claims whose proposed VM another shard had already written that
    /// slot (0 for monolithic runs).
    pub stripe_conflicts: u64,
    /// Wall-clock seconds of the simulation loop.
    pub run_secs: f64,
    /// Slots simulated.
    pub slots_run: u64,
    /// Simulated slots per wall-clock second.
    pub slots_per_sec: f64,
    /// Completed jobs per wall-clock second.
    pub jobs_per_sec: f64,
    /// Completed job count.
    pub completed: usize,
    /// Arrival-time rejections.
    pub rejected: usize,
    /// Jobs unfinished at the slot cap (0 for a drained soak).
    pub unfinished: usize,
    /// Arena high-water mark: job slots ever allocated. With reclaim on,
    /// this is bounded by peak *concurrent* jobs — the memory-boundedness
    /// headline — while `jobs` counts everything that streamed through.
    pub arena_slots: usize,
    /// `arena_slots / jobs`: how far below trace scale the store stayed.
    pub arena_ratio: f64,
    /// Process peak resident set (VmHWM) in MB; 0 where unavailable.
    pub peak_rss_mb: f64,
}

/// Process peak resident set in KB from `/proc/self/status` (`VmHWM`);
/// `None` off Linux or if the field is missing.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The soak fleet: Palmetto-profile PMs (4 VMs each), scaled to cover the
/// requested VM count.
fn scale_fleet(vms: usize) -> Cluster {
    let profile = EnvironmentProfile::palmetto_cluster();
    let vms_per_pm = profile.vms_per_pm.max(1);
    Cluster::from_profile(profile.with_num_pms(vms.div_ceil(vms_per_pm)))
}

/// The soak workload mix: the e2e benchmark's job shape (2–5 min
/// durations, scaled demand) with the arrival rate chosen so steady-state
/// concurrency saturates roughly an eighth of the fleet — enough pressure
/// that the arena is exercised, bounded enough that the soak drains.
fn scale_config(vms: usize, jobs: usize) -> WorkloadConfig {
    let base = WorkloadConfig {
        num_jobs: jobs,
        min_duration_secs: 120.0,
        max_duration_secs: 300.0,
        demand_scale: 1.5,
        ..WorkloadConfig::default()
    };
    let mean_duration_slots =
        (base.min_duration_secs + base.max_duration_secs) / 2.0 / base.slot_seconds;
    let target_concurrency = (vms as f64 / 8.0).max(8.0);
    WorkloadConfig {
        mean_interarrival_slots: mean_duration_slots / target_concurrency,
        ..base
    }
}

/// Runs one soak: streams the workload through the reclaiming engine and
/// measures throughput, the arena high-water mark, and peak RSS. Pure
/// measurement — no files, no assertions — so tests can drive it
/// directly.
pub fn run_scale(args: &ScaleArgs) -> ScaleResult {
    let cluster = scale_fleet(args.vms);
    let vms = cluster.vms.len();
    let source = SyntheticSource::with_total(scale_config(vms, args.jobs), args.seed, args.jobs)
        .into_specs();
    let mut sim = StreamingSimulation::new(
        cluster,
        source,
        SimulationOptions {
            measure_decision_time: false,
            reclaim_completed: true,
            ..Default::default()
        },
    );
    let mut provisioner: Box<dyn Provisioner + Send> = match args.shards {
        Some(k) => {
            let inners: Vec<Box<dyn Provisioner + Send>> = (0..k)
                .map(|_| Box::new(StaticPeakProvisioner) as _)
                .collect();
            Box::new(ShardedProvisioner::new(
                "static-peak",
                inners,
                ShardConfig::default(),
            ))
        }
        None => Box::new(StaticPeakProvisioner),
    };
    let started = std::time::Instant::now();
    let report = sim.run(provisioner.as_mut());
    let run_secs = started.elapsed().as_secs_f64();
    let wall = run_secs.max(1e-9);
    let arena_slots = sim.engine().store().capacity();
    let cp = report.control_plane.as_ref();
    ScaleResult {
        vms,
        jobs: sim.submitted(),
        smoke: args.smoke,
        seed: args.seed,
        shards: args.shards.unwrap_or(0),
        fast_path_hits: cp.map_or(0, |c| c.fast_path_hits),
        stripe_conflicts: cp.map_or(0, |c| c.stripe_conflicts),
        run_secs,
        slots_run: report.slots_run,
        slots_per_sec: report.slots_run as f64 / wall,
        jobs_per_sec: report.completed as f64 / wall,
        completed: report.completed,
        rejected: report.rejected,
        unfinished: report.unfinished,
        arena_slots,
        arena_ratio: arena_slots as f64 / args.jobs.max(1) as f64,
        peak_rss_mb: peak_rss_kb().map_or(0.0, |kb| kb as f64 / 1024.0),
    }
}

/// The `--smoke` invariants: the stream drained, jobs are conserved, the
/// arena stayed far below trace length, and throughput is sane.
fn check_smoke(result: &ScaleResult, args: &ScaleArgs) -> Result<(), String> {
    if result.jobs != args.jobs {
        return Err(format!(
            "scale smoke: stream truncated — submitted {} of {} jobs",
            result.jobs, args.jobs
        ));
    }
    if result.completed + result.rejected + result.unfinished != args.jobs {
        return Err(format!(
            "scale smoke: job conservation violated ({} + {} + {} != {})",
            result.completed, result.rejected, result.unfinished, args.jobs
        ));
    }
    if result.unfinished != 0 {
        return Err(format!(
            "scale smoke: {} jobs unfinished — the soak must drain",
            result.unfinished
        ));
    }
    // The tentpole invariant: the arena's high-water mark tracks peak
    // concurrency, not trace length. A store that kept terminal jobs
    // would sit at exactly `jobs` slots.
    if result.arena_ratio >= 0.25 {
        return Err(format!(
            "scale smoke: arena grew to {} slots for {} streamed jobs \
             (ratio {:.2}) — reclaim is not bounding memory",
            result.arena_slots, args.jobs, result.arena_ratio
        ));
    }
    let positive = |v: f64| v.is_finite() && v > 0.0;
    if !positive(result.slots_per_sec) || !positive(result.jobs_per_sec) {
        return Err(format!(
            "scale smoke: degenerate throughput ({:.1} slots/s, {:.1} jobs/s)",
            result.slots_per_sec, result.jobs_per_sec
        ));
    }
    Ok(())
}

/// Executes `corp-exp scale` end to end: runs the soak, writes
/// [`SCALE_BASELINE_FILE`], applies the `--smoke` assertions, and renders
/// the summary table. Returns an error string (for exit 2) on a failed
/// assertion.
pub fn scale_experiment(args: &ScaleArgs) -> Result<FigureTable, String> {
    let result = run_scale(args);
    std::fs::write(SCALE_BASELINE_FILE, serde::json::to_string(&result))
        .map_err(|e| format!("write {SCALE_BASELINE_FILE}: {e}"))?;
    // Job conservation holds for every configuration, sharded or not: a
    // control plane losing (or double-placing) jobs would show up here
    // before any throughput number means anything.
    if result.completed + result.rejected + result.unfinished != result.jobs {
        return Err(format!(
            "scale: job conservation violated ({} + {} + {} != {})",
            result.completed, result.rejected, result.unfinished, result.jobs
        ));
    }
    if args.smoke {
        check_smoke(&result, args)?;
    }
    let arm = match args.shards {
        Some(k) => format!("{k}-shard control plane"),
        None => "static-peak".to_string(),
    };
    let mut table = TextTable::new(
        format!(
            "Scale — streaming soak, {} VMs, {} jobs, reclaiming arena ({arm})",
            result.vms, result.jobs
        ),
        &["metric", "value"],
    );
    let mut row = |k: &str, v: String| table.push_row(vec![k.to_string(), v]);
    row("sim wall (s)", format!("{:.3}", result.run_secs));
    row("slots simulated", format!("{}", result.slots_run));
    row("slots/s", format!("{:.0}", result.slots_per_sec));
    row("jobs/s", format!("{:.0}", result.jobs_per_sec));
    row(
        "completed / rejected / unfinished",
        format!(
            "{} / {} / {}",
            result.completed, result.rejected, result.unfinished
        ),
    );
    row(
        "arena high-water (job slots)",
        format!("{}", result.arena_slots),
    );
    row("arena / trace ratio", format!("{:.4}", result.arena_ratio));
    row("peak RSS (MB)", format!("{:.1}", result.peak_rss_mb));
    if result.shards > 0 {
        row("shards", format!("{}", result.shards));
        row("fast-path commits", format!("{}", result.fast_path_hits));
        row("stripe conflicts", format!("{}", result.stripe_conflicts));
    }
    Ok(FigureTable {
        id: "scale".into(),
        table,
        notes: vec![
            format!("machine-readable result written to {SCALE_BASELINE_FILE}"),
            "arena high-water counts job slots ever allocated; with reclaim on it is \
             bounded by peak concurrent jobs, independent of trace length"
                .into(),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_smoke_shrinks_the_configuration() {
        let args =
            ScaleArgs::parse(&["--smoke".to_string(), "--seed".to_string(), "7".to_string()])
                .unwrap();
        assert!(args.smoke);
        assert_eq!(args.vms, 256);
        assert_eq!(args.jobs, 5_000);
        assert_eq!(args.seed, 7);
    }

    #[test]
    fn parse_rejects_unknown_flags_and_zero_values() {
        assert!(ScaleArgs::parse(&["--bogus".to_string()]).is_err());
        assert!(ScaleArgs::parse(&["--vms".to_string(), "0".to_string()]).is_err());
        assert!(ScaleArgs::parse(&["--jobs".to_string()]).is_err());
    }

    #[test]
    fn fleet_covers_the_requested_vm_count() {
        assert!(scale_fleet(10).vms.len() >= 10);
        assert_eq!(scale_fleet(256).vms.len(), 256);
    }

    #[test]
    fn parse_shards_selects_the_sharded_control_plane() {
        let args = ScaleArgs::parse(&["--shards".to_string(), "4".to_string()]).unwrap();
        assert_eq!(args.shards, Some(4));
        assert!(ScaleArgs::parse(&["--shards".to_string(), "0".to_string()]).is_err());
    }

    #[test]
    fn tiny_sharded_soak_conserves_jobs_and_uses_the_fast_path() {
        let args = ScaleArgs {
            vms: 32,
            jobs: 400,
            seed: 11,
            shards: Some(2),
            smoke: true,
        };
        let result = run_scale(&args);
        check_smoke(&result, &args).expect("sharded smoke soak must pass the invariants");
        assert_eq!(result.shards, 2);
        assert!(
            result.fast_path_hits > 0,
            "sharded soak never took the fast path: {result:?}"
        );
    }

    #[test]
    fn tiny_soak_drains_and_bounds_the_arena() {
        let args = ScaleArgs {
            vms: 32,
            jobs: 400,
            seed: 11,
            shards: None,
            smoke: true,
        };
        let result = run_scale(&args);
        check_smoke(&result, &args).expect("tiny smoke soak must pass the invariants");
        assert!(
            result.arena_slots < args.jobs / 4,
            "arena {} slots for {} jobs",
            result.arena_slots,
            args.jobs
        );
    }
}
