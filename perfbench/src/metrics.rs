//! Metric definitions: the end-to-end metrics of an untraced run and the
//! per-layer metrics derived from a traced replay's spans.

use crate::spans::{Counts, Name, SpanTree, Tracer};
use crate::workloads::{Replay, Workload, SHARDS};
use std::collections::BTreeMap;

/// End-to-end metric names and units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("jobs_per_s", "jobs/s"),
    ("placement_ms_p50", "ms"),
    ("placement_ms_p95", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("utilization", "fraction"),
    ("slo_violation_rate", "fraction"),
    ("failed_share", "fraction"),
];

/// Per-layer metric names and units, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("engine.step_s", "s"),
    ("engine.self_s", "s"),
    ("engine.completions_s", "s"),
    ("engine.slots", "count"),
    ("engine.slot_ms_p50", "ms"),
    ("engine.slot_ms_p95", "ms"),
    ("engine.pending_max", "count"),
    ("engine.active_mean", "count"),
    ("pipeline.provision_s", "s"),
    ("predict.ingest_s", "s"),
    ("predict.forecast_s", "s"),
    ("predict.forecast_calls", "count"),
    ("predict.absorb_s", "s"),
    ("gate.reallocate_s", "s"),
    ("gate.adjustments", "count"),
    ("pack.pack_s", "s"),
    ("pack.jobs_in", "count"),
    ("pack.entities_out", "count"),
    ("place.begin_slot_s", "s"),
    ("place.choose_s", "s"),
    ("place.debit_s", "s"),
    ("place.claims", "count"),
    ("place.hit_ratio", "fraction"),
    ("setup.pretrain_s", "s"),
    ("cluster.provision_s", "s"),
    ("cluster.shard_s", "s"),
    ("cluster.shard_critical_s", "s"),
    ("cluster.coord_s", "s"),
    ("cluster.shard_skew", "ratio"),
    ("cluster.reservations", "count"),
    ("cluster.fast_path_rate", "fraction"),
    ("cluster.conflicts", "count"),
    ("cluster.retries", "count"),
    ("cluster.aborts", "count"),
    ("cluster.stripe_conflicts", "count"),
    ("cluster.fallback_rounds", "count"),
    ("cluster.inline_slots", "count"),
    ("cluster.recv_timeouts", "count"),
    ("trace.decode_s", "s"),
    ("trace.rows", "count"),
    ("trace.bytes", "bytes"),
    ("trace.jobs", "count"),
    ("serve.run_s", "s"),
    ("serve.loop_s", "s"),
    ("serve.ticks", "count"),
    ("serve.events", "count"),
    ("serve.queue_high_water", "count"),
    ("serve.shed", "count"),
    ("serve.rejected", "count"),
    ("serve.expired", "count"),
    ("serve.deadline_misses", "count"),
    ("serve.brownout_max_rung", "count"),
    ("serve.brownout_escalations", "count"),
    ("serve.virtual_latency_p50_s", "s"),
    ("serve.virtual_latency_p95_s", "s"),
    ("harness_s", "s"),
    ("trace_overhead_ratio", "ratio"),
];

/// Nearest-rank percentile `q` (0..=1) of `values`; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the middle two for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// One untraced replay's end-to-end values, `setup_s` and `peak_rss_mb`
/// aside (the caller samples those). Wall times are net of hypervisor
/// steal: scaled by the share of busy vCPU time not stolen.
pub fn end_to_end(replay: &Replay, offered: usize) -> BTreeMap<&'static str, f64> {
    let sim = replay.report.sim();
    let unstolen = 1.0 - replay.steal_share;
    let latencies: Vec<f64> = replay.latencies.iter().map(|&(ms, _)| ms).collect();
    BTreeMap::from([
        (
            "jobs_per_s",
            sim.completed as f64 / (replay.wall_s * unstolen),
        ),
        ("placement_ms_p50", percentile(&latencies, 0.50) * unstolen),
        ("placement_ms_p95", percentile(&latencies, 0.95) * unstolen),
        ("utilization", sim.overall_utilization),
        ("slo_violation_rate", sim.slo_violation_rate),
        (
            "failed_share",
            offered.saturating_sub(sim.completed) as f64 / offered.max(1) as f64,
        ),
    ])
}

/// Summed duration of spans named `name` on the coordinator lane.
fn lane0_total(tree: &SpanTree, name: Name) -> f64 {
    tree.spans
        .iter()
        .filter(|s| s.lane == 0 && s.name == name)
        .map(|s| s.secs())
        .sum()
}

/// Per-layer values of one traced replay, plus `accounted_s`: the layer
/// roots and harness spans whose sum must match the replay's wall time.
pub fn per_layer(
    workload: Workload,
    replay: &Replay,
    csv: Option<(usize, usize)>,
) -> (BTreeMap<&'static str, f64>, f64) {
    let tracer: &Tracer = replay.tracer.as_ref().expect("a traced replay");
    let tree = SpanTree::build(tracer.spans());
    let samples = tracer.samples();
    let counts = &tracer.counts;
    let sim = replay.report.sim();
    // Layers a workload does not exercise report zero. The overhead ratio
    // compares traced with untraced replays; the caller adds it.
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER
        .iter()
        .filter(|(n, _)| *n != "trace_overhead_ratio")
        .map(|(n, _)| (*n, 0.0))
        .collect();

    // Engine: batch replays time `SlotEngine::step`; the daemon owns its
    // loop, so its slot time is the wall interval between provision calls.
    let slot_ms: Vec<f64> = if workload == Workload::ServeStorm {
        let ends: Vec<u64> = tree
            .spans
            .iter()
            .filter(|s| s.lane == 0 && s.name == Name::PipelineProvision)
            .map(|s| s.end_ns)
            .collect();
        ends.windows(2)
            .map(|w| (w[1] - w[0]) as f64 * 1e-6)
            .collect()
    } else {
        tree.spans
            .iter()
            .filter(|s| s.name == Name::EngineStep)
            .map(|s| s.secs() * 1e3)
            .collect()
    };
    m.insert("engine.step_s", tree.total(Name::EngineStep));
    m.insert("engine.self_s", tree.self_time(Name::EngineStep));
    m.insert("engine.completions_s", tree.total(Name::EngineCompletions));
    m.insert("engine.slots", samples.len() as f64);
    m.insert("engine.slot_ms_p50", percentile(&slot_ms, 0.50));
    m.insert("engine.slot_ms_p95", percentile(&slot_ms, 0.95));
    m.insert(
        "engine.pending_max",
        samples.iter().map(|s| s.pending).max().unwrap_or(0) as f64,
    );
    m.insert(
        "engine.active_mean",
        samples.iter().map(|s| s.active as f64).sum::<f64>() / samples.len().max(1) as f64,
    );

    // Pipeline stages, summed over every pipeline instance (one, or one
    // per shard).
    m.insert(
        "pipeline.provision_s",
        tree.total(Name::PipelineProvision) + tree.total(Name::ShardProvision),
    );
    m.insert("predict.ingest_s", tree.total(Name::PredictIngest));
    m.insert("predict.forecast_s", tree.total(Name::PredictForecast));
    m.insert(
        "predict.forecast_calls",
        Counts::get(&counts.forecast_calls) as f64,
    );
    m.insert("predict.absorb_s", tree.total(Name::PredictAbsorb));
    m.insert("gate.reallocate_s", tree.total(Name::GateReallocate));
    m.insert("gate.adjustments", Counts::get(&counts.adjustments) as f64);
    m.insert("pack.pack_s", tree.total(Name::Pack));
    m.insert("pack.jobs_in", Counts::get(&counts.jobs_in) as f64);
    m.insert(
        "pack.entities_out",
        Counts::get(&counts.entities_out) as f64,
    );
    m.insert("place.begin_slot_s", tree.total(Name::PlaceBeginSlot));
    m.insert("place.choose_s", tree.total(Name::PlaceChoose));
    m.insert("place.debit_s", tree.total(Name::PlaceDebit));
    let claims = Counts::get(&counts.claims);
    m.insert("place.claims", claims as f64);
    m.insert(
        "place.hit_ratio",
        Counts::get(&counts.hits) as f64 / claims.max(1) as f64,
    );
    m.insert("setup.pretrain_s", tree.total(Name::Pretrain));

    // Sharded control plane: the coordinator's wall time versus the
    // slowest shard of each slot.
    if workload == Workload::CorpSharded {
        let provision = tree.total(Name::ClusterProvision);
        let shard = tree.total(Name::ShardProvision);
        let mut slowest: BTreeMap<u64, f64> = BTreeMap::new();
        for s in tree.spans.iter().filter(|s| s.name == Name::ShardProvision) {
            let e = slowest.entry(s.slot).or_insert(0.0);
            *e = e.max(s.secs());
        }
        let critical: f64 = slowest.values().sum();
        m.insert("cluster.provision_s", provision);
        m.insert("cluster.shard_s", shard);
        m.insert("cluster.shard_critical_s", critical);
        m.insert("cluster.coord_s", provision - critical);
        m.insert(
            "cluster.shard_skew",
            if shard > 0.0 {
                critical / (shard / SHARDS as f64)
            } else {
                0.0
            },
        );
        if let Some(cp) = &sim.control_plane {
            m.insert("cluster.reservations", cp.reservations as f64);
            m.insert(
                "cluster.fast_path_rate",
                cp.fast_path_hits as f64 / cp.reservations.max(1) as f64,
            );
            m.insert("cluster.conflicts", cp.conflicts as f64);
            m.insert("cluster.retries", cp.retries as f64);
            m.insert("cluster.aborts", cp.aborts as f64);
            m.insert("cluster.stripe_conflicts", cp.stripe_conflicts as f64);
            m.insert("cluster.fallback_rounds", cp.fallback_rounds as f64);
            m.insert("cluster.inline_slots", cp.inline_slots as f64);
            m.insert("cluster.recv_timeouts", cp.recv_timeouts as f64);
        }
    }

    // Trace decoding and the daemon.
    if let (Some(serve), Some((rows, bytes))) = (replay.report.serve(), csv) {
        let decode = tree.total(Name::TraceDecode);
        let run = tree.total(Name::ServeRun);
        m.insert("trace.decode_s", decode);
        m.insert("trace.rows", rows as f64);
        m.insert("trace.bytes", bytes as f64);
        m.insert("trace.jobs", replay.decoded as f64);
        m.insert("serve.run_s", run);
        m.insert(
            "serve.loop_s",
            run - lane0_total(&tree, Name::PipelineProvision)
                - decode
                - tree.total(Name::EngineCompletions),
        );
        m.insert("serve.ticks", serve.ticks as f64);
        m.insert("serve.events", serve.events_processed as f64);
        m.insert("serve.queue_high_water", serve.queue.high_water as f64);
        m.insert("serve.shed", serve.queue.shed as f64);
        m.insert("serve.rejected", serve.queue.rejected as f64);
        m.insert("serve.expired", serve.queue.expired as f64);
        m.insert("serve.deadline_misses", serve.slo.deadline_misses as f64);
        m.insert(
            "serve.brownout_max_rung",
            f64::from(serve.brownout.max_rung),
        );
        m.insert(
            "serve.brownout_escalations",
            serve.brownout.escalations as f64,
        );
        m.insert(
            "serve.virtual_latency_p50_s",
            serve.placement_latency.p50_micros * 1e-6,
        );
        m.insert(
            "serve.virtual_latency_p95_s",
            serve.placement_latency.p95_micros * 1e-6,
        );
    }

    let harness = tree.total(Name::Harness);
    m.insert("harness_s", harness);
    let accounted = lane0_total(&tree, Name::EngineStep) + tree.total(Name::ServeRun) + harness;
    (m, accounted)
}
