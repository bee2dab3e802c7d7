//! The CORP workspace's benchmark harness.
//!
//! Drives three workloads through the crates' public entry points (see
//! `README.md`), measures them for a fixed wall budget, checks their
//! outputs, and reports end-to-end metrics — or, in a traced run, the
//! per-layer metrics derived from timing decorators around each layer.

pub mod host;
pub mod inputs;
pub mod layers;
pub mod metrics;
pub mod spans;
pub mod workloads;

use metrics::{median, END_TO_END, PER_LAYER};
use spans::SpanTree;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;
use workloads::{Inputs, Replay, Workload};

/// What one invocation asks for.
#[derive(Debug, Clone)]
pub struct Request {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Wall-clock budget for the replays, in seconds.
    pub seconds: f64,
    /// Per-layer (traced) metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input size.
    pub size: inputs::Size,
}

/// A measured result.
#[derive(Debug)]
pub struct Outcome {
    /// Replays run.
    pub replays: usize,
    /// Jobs offered across every replay.
    pub attempted: u64,
    /// Metrics, in `BENCHMARK.json` order: `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The span file of the last traced replay (CSV), for traced runs.
    pub spans_csv: Option<String>,
}

/// Fewest replays an untraced run makes: enough to check determinism and
/// take a median.
const MIN_REPLAYS: usize = 3;

/// Largest share of a traced replay's wall time its layer spans plus the
/// harness spans may leave unaccounted.
const MAX_UNACCOUNTED: f64 = 0.05;

/// Checks one replay's outputs: every offered job accounted for exactly
/// once, every planned action valid, the feed decoded every job written,
/// and enough slots behind the reported p95.
fn check(inputs: &Inputs, replay: &Replay) -> Result<(), String> {
    let sim = replay.report.sim();
    let offered = inputs.offered();
    let (shed, rejected_at_queue, expired) = replay.report.serve().map_or((0, 0, 0), |s| {
        (s.queue.shed, s.queue.rejected, s.queue.expired)
    });
    let accounted = sim.completed as u64
        + sim.rejected as u64
        + sim.unfinished as u64
        + shed
        + rejected_at_queue
        + expired;
    if accounted != offered as u64 {
        return Err(format!(
            "job conservation broken: completed {} + rejected {} + unfinished {} + shed {} \
             + queue-rejected {} + expired {} = {accounted}, offered {offered}",
            sim.completed, sim.rejected, sim.unfinished, shed, rejected_at_queue, expired
        ));
    }
    if sim.invalid_actions != 0 {
        return Err(format!(
            "{} planned actions failed engine validation",
            sim.invalid_actions
        ));
    }
    if inputs.csv.is_some() && replay.decoded != offered {
        return Err(format!(
            "the CSV feed decoded {} jobs, {offered} were written",
            replay.decoded
        ));
    }
    // Jobs placed in one slot share most of their latency, so the samples
    // behind a percentile are slots: the p95 needs ten beyond it.
    let p95 = metrics::percentile(
        &replay
            .latencies
            .iter()
            .map(|&(ms, _)| ms)
            .collect::<Vec<_>>(),
        0.95,
    );
    let beyond: BTreeSet<u64> = replay
        .latencies
        .iter()
        .filter(|&&(ms, _)| ms >= p95)
        .map(|&(_, slot)| slot)
        .collect();
    if beyond.len() < 10 {
        return Err(format!(
            "only {} slots place jobs at or beyond the p95 latency; it needs 10",
            beyond.len()
        ));
    }
    Ok(())
}

/// Runs the request: replays until the budget is spent (at least
/// [`MIN_REPLAYS`]), checking every replay and that every report repeats
/// byte for byte, then reports medians.
pub fn measure(req: &Request) -> Result<Outcome, String> {
    let inputs = Inputs::generate(req.workload, req.seed, req.size);
    // Peak memory is the first replay's: later replays reuse what earlier
    // ones freed, so only the first shows what one run of the program
    // needs.
    host::reset_peak_rss()?;
    let rss_base = host::status_kib("VmRSS:")?;
    let mut peak_rss_mb = None;
    let started = Instant::now();
    let mut reference: Option<String> = None;
    let mut e2e: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut plain_walls: Vec<f64> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let mut traced: Vec<Replay> = Vec::new();
    let mut replays = 0usize;
    loop {
        // A traced run interleaves plain and traced replays, so the
        // overhead ratio compares neighbours.
        let trace_this = req.trace && replays % 2 == 1;
        if !req.trace {
            setups.push(workloads::sample_setup(&inputs));
        }
        let replay = workloads::replay(&inputs, trace_this)?;
        if peak_rss_mb.is_none() {
            peak_rss_mb = Some((host::status_kib("VmHWM:")? - rss_base) / 1024.0);
        }
        check(&inputs, &replay)?;
        let json = replay.report.to_json();
        match &reference {
            None => reference = Some(json),
            Some(r) if *r != json => {
                return Err(format!(
                    "replay {replays} ({}) produced a different report than replay 0",
                    if trace_this { "traced" } else { "untraced" }
                ))
            }
            Some(_) => {}
        }
        eprintln!(
            "replay {replays}{}: set-up {:.3} s, run {:.3} s, {:.1}% of busy vCPU time stolen",
            if trace_this { " (traced)" } else { "" },
            replay.setup_s,
            replay.wall_s,
            replay.steal_share * 100.0
        );
        replays += 1;
        if trace_this {
            traced.push(replay);
        } else {
            // The first replay runs cold; the overhead ratio compares warm
            // neighbours only.
            if replays > 1 {
                plain_walls.push(replay.wall_s * (1.0 - replay.steal_share));
            }
            for (k, v) in metrics::end_to_end(&replay, inputs.offered()) {
                e2e.entry(k).or_default().push(v);
            }
        }
        let elapsed = started.elapsed().as_secs_f64();
        let per_replay = elapsed / replays as f64;
        if replays >= MIN_REPLAYS
            && (!req.trace || !traced.is_empty())
            && elapsed + per_replay > req.seconds
        {
            break;
        }
    }

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut spans_csv = None;
    if req.trace {
        let csv = inputs.csv.as_ref().map(|c| (c.rows, c.bytes.len()));
        let mut per: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut traced_walls = Vec::new();
        for replay in &traced {
            let (m, accounted) = metrics::per_layer(req.workload, replay, csv);
            let gap = (replay.wall_s - accounted).abs() / replay.wall_s;
            if gap > MAX_UNACCOUNTED {
                return Err(format!(
                    "layer and harness spans account for {accounted:.3} s of a {:.3} s \
                     traced replay ({:.1}% unaccounted)",
                    replay.wall_s,
                    gap * 100.0
                ));
            }
            for (k, v) in m {
                per.entry(k).or_default().push(v);
            }
            traced_walls.push(replay.wall_s * (1.0 - replay.steal_share));
        }
        for (k, v) in per {
            values.insert(k, median(&v));
        }
        values.insert(
            "trace_overhead_ratio",
            median(&traced_walls) / median(&plain_walls),
        );
        if let Some(last) = traced.last() {
            let tracer = last.tracer.as_ref().expect("a traced replay");
            spans_csv = Some(SpanTree::build(tracer.spans()).to_csv());
        }
    } else {
        for (k, v) in &e2e {
            values.insert(k, median(v));
        }
        values.insert("setup_s", median(&setups));
        values.insert("peak_rss_mb", peak_rss_mb.expect("at least one replay ran"));
    }

    let names: &[(&'static str, &'static str)] = if req.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        let value = *values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.0.
        metrics.push((name, value + 0.0, unit));
    }
    Ok(Outcome {
        replays,
        attempted: (replays * inputs.offered()) as u64,
        metrics,
        spans_csv,
    })
}
