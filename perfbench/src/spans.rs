//! In-memory span recorder for the traced run.
//!
//! Every timing decorator in [`crate::layers`] records one closed span per
//! call into a layer: its name, the lane (thread of control) it ran on,
//! the slot it served, and its start and end on one monotonic clock.
//! Spans stay in memory until the run ends; [`SpanTree::build`] then
//! derives each span's parent — the innermost enclosing span on the same
//! lane, or, for a shard lane's outermost spans, the coordinator's span of
//! the same slot — and per-layer self times follow from the tree.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The layer boundary a span measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Name {
    /// `SlotEngine::step` (batch workloads).
    EngineStep,
    /// `Provisioner::on_jobs_completed` as the engine calls it.
    EngineCompletions,
    /// `Provisioner::provision` of a monolithic pipeline.
    PipelineProvision,
    /// `Provisioner::provision` of the sharded coordinator.
    ClusterProvision,
    /// `Provisioner::provision` of one shard's pipeline (on its worker).
    ShardProvision,
    /// `UsagePredictor::ingest`.
    PredictIngest,
    /// `UsagePredictor::forecast`.
    PredictForecast,
    /// `UsagePredictor::absorb_completion`.
    PredictAbsorb,
    /// `ReallocationGate::reallocate`.
    GateReallocate,
    /// `JobPacker::pack`.
    Pack,
    /// `PlacementBackend::begin_slot`.
    PlaceBeginSlot,
    /// `PlacementBackend::choose`.
    PlaceChoose,
    /// `PlacementBackend::debit`.
    PlaceDebit,
    /// CORP's offline DNN/HMM pretraining (set-up).
    Pretrain,
    /// `ServeDaemon::run`.
    ServeRun,
    /// One `next` call on the daemon's arrival feed (CSV decode).
    TraceDecode,
    /// The harness's own work inside the timed region.
    Harness,
}

impl Name {
    /// Stable span name, as written to the span file.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::EngineStep => "engine.step",
            Name::EngineCompletions => "engine.completions",
            Name::PipelineProvision => "pipeline.provision",
            Name::ClusterProvision => "cluster.provision",
            Name::ShardProvision => "cluster.shard",
            Name::PredictIngest => "predict.ingest",
            Name::PredictForecast => "predict.forecast",
            Name::PredictAbsorb => "predict.absorb",
            Name::GateReallocate => "gate.reallocate",
            Name::Pack => "pack.pack",
            Name::PlaceBeginSlot => "place.begin_slot",
            Name::PlaceChoose => "place.choose",
            Name::PlaceDebit => "place.debit",
            Name::Pretrain => "setup.pretrain",
            Name::ServeRun => "serve.run",
            Name::TraceDecode => "trace.decode",
            Name::Harness => "harness",
        }
    }

    /// Static nesting depth: breaks ties between spans with identical
    /// start and end readings, so a parent always sorts before its child.
    fn depth(self) -> u8 {
        match self {
            Name::EngineStep | Name::ServeRun | Name::Harness | Name::Pretrain => 0,
            Name::EngineCompletions
            | Name::PipelineProvision
            | Name::ClusterProvision
            | Name::ShardProvision
            | Name::TraceDecode => 1,
            _ => 2,
        }
    }
}

/// One closed span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer boundary.
    pub name: Name,
    /// Lane: 0 is the harness/coordinator thread, `k + 1` is shard `k`.
    pub lane: u8,
    /// Slot the call served (the shared identifier across lanes).
    pub slot: u64,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Work counts recorded at the same boundaries as the spans.
#[derive(Debug, Default)]
pub struct Counts {
    /// `forecast` calls.
    pub forecast_calls: AtomicU64,
    /// Allocation adjustments the gate added to plans.
    pub adjustments: AtomicU64,
    /// Pending jobs handed to the packer.
    pub jobs_in: AtomicU64,
    /// Placement entities the packer returned.
    pub entities_out: AtomicU64,
    /// `choose` calls.
    pub claims: AtomicU64,
    /// `choose` calls that found a VM.
    pub hits: AtomicU64,
}

impl Counts {
    /// Adds `n` to one counter. The counters publish no other data, so
    /// relaxed ordering suffices; they are read after every worker joined.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Reads one counter.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

/// Per-slot queue sample taken at the outermost provision call.
#[derive(Clone, Copy, Debug)]
pub struct SlotSample {
    /// Jobs awaiting placement.
    pub pending: usize,
    /// Jobs running plus jobs pending.
    pub active: usize,
}

/// The span and count sink shared by every decorator of one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    samples: Mutex<Vec<SlotSample>>,
    /// Work counts.
    pub counts: Counts,
}

impl Tracer {
    /// A fresh tracer whose clock starts now.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            samples: Mutex::new(Vec::new()),
            counts: Counts::default(),
        })
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records one closed span.
    pub fn record(&self, name: Name, lane: u8, slot: u64, start: Instant, end: Instant) {
        let span = Span {
            name,
            lane,
            slot,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans
            .lock()
            .expect("a tracing thread panicked while recording")
            .push(span);
    }

    /// Records one per-slot queue sample.
    pub fn sample(&self, sample: SlotSample) {
        self.samples
            .lock()
            .expect("a tracing thread panicked while sampling")
            .push(sample);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a tracing thread panicked while recording")
            .clone()
    }

    /// Every slot sample recorded so far.
    pub fn samples(&self) -> Vec<SlotSample> {
        self.samples
            .lock()
            .expect("a tracing thread panicked while sampling")
            .clone()
    }
}

/// One thread of control's handle on the tracer: its lane id and the slot
/// it is currently serving. The lane's outermost provision decorator sets
/// the slot; stage decorators, whose trait methods carry no slot, read it.
#[derive(Clone, Debug)]
pub struct Lane {
    tracer: Arc<Tracer>,
    id: u8,
    slot: Arc<AtomicU64>,
}

impl Lane {
    /// Lane `id` on `tracer`.
    pub fn new(tracer: &Arc<Tracer>, id: u8) -> Lane {
        Lane {
            tracer: Arc::clone(tracer),
            id,
            slot: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The lane id.
    pub fn id(&self) -> u8 {
        self.id
    }

    /// The shared tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Marks the slot this lane now serves.
    pub fn set_slot(&self, slot: u64) {
        self.slot.store(slot, Ordering::Relaxed);
    }

    /// Runs `f` inside a span named `name` on this lane.
    pub fn time<R>(&self, name: Name, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.tracer.record(
            name,
            self.id,
            self.slot.load(Ordering::Relaxed),
            start,
            Instant::now(),
        );
        out
    }
}

/// Spans with derived parents.
#[derive(Debug)]
pub struct SpanTree {
    /// Spans, sorted by lane, then start.
    pub spans: Vec<Span>,
    /// Index of each span's parent, if any.
    pub parent: Vec<Option<usize>>,
    /// Summed duration of each span's same-lane children, in seconds.
    child_secs: Vec<f64>,
}

impl SpanTree {
    /// Derives parents: spans on one lane nest (they come from one
    /// thread), so each span's parent is the innermost earlier span on its
    /// lane that encloses it. A shard lane's outermost spans hang off the
    /// coordinator lane's span of the same slot: `cluster.shard` off
    /// `cluster.provision`, anything else off `engine.completions`.
    pub fn build(mut spans: Vec<Span>) -> SpanTree {
        spans.sort_by_key(|s| {
            (
                s.lane,
                s.start_ns,
                std::cmp::Reverse(s.end_ns),
                s.name.depth(),
            )
        });
        let mut parent = vec![None; spans.len()];
        let mut child_secs = vec![0.0; spans.len()];
        let mut stack: Vec<usize> = Vec::new();
        let mut lane = u8::MAX;
        for i in 0..spans.len() {
            if spans[i].lane != lane {
                lane = spans[i].lane;
                stack.clear();
            }
            while let Some(&top) = stack.last() {
                if spans[top].end_ns >= spans[i].end_ns {
                    break;
                }
                stack.pop();
            }
            if let Some(&top) = stack.last() {
                parent[i] = Some(top);
                child_secs[top] += spans[i].secs();
            }
            stack.push(i);
        }
        let coordinator: HashMap<(Name, u64), usize> = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.lane == 0)
            .map(|(i, s)| ((s.name, s.slot), i))
            .collect();
        for i in 0..spans.len() {
            if spans[i].lane == 0 || parent[i].is_some() {
                continue;
            }
            let anchor = if spans[i].name == Name::ShardProvision {
                Name::ClusterProvision
            } else {
                Name::EngineCompletions
            };
            parent[i] = coordinator.get(&(anchor, spans[i].slot)).copied();
        }
        SpanTree {
            spans,
            parent,
            child_secs,
        }
    }

    /// Total duration of every span named `name`, in seconds.
    pub fn total(&self, name: Name) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Total self time (duration minus same-lane children) of every span
    /// named `name`, in seconds.
    pub fn self_time(&self, name: Name) -> f64 {
        self.spans
            .iter()
            .zip(&self.child_secs)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.secs() - c)
            .sum()
    }

    /// Renders the spans as CSV: `name,lane,slot,start_ns,end_ns,parent`
    /// (parent is a row index, or `-` for roots).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("name,lane,slot,start_ns,end_ns,parent\n");
        for (s, p) in self.spans.iter().zip(&self.parent) {
            let p = p.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{},{},{},{},{},{}",
                s.name.as_str(),
                s.lane,
                s.slot,
                s.start_ns,
                s.end_ns,
                p
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: Name, lane: u8, slot: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            lane,
            slot,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nesting_and_cross_lane_parents() {
        let tree = SpanTree::build(vec![
            span(Name::PlaceChoose, 0, 3, 20, 30),
            span(Name::EngineStep, 0, 3, 0, 100),
            span(Name::ClusterProvision, 0, 3, 10, 60),
            span(Name::ShardProvision, 1, 3, 12, 50),
            span(Name::PredictIngest, 1, 3, 12, 20),
        ]);
        let idx = |n: Name| tree.spans.iter().position(|s| s.name == n).unwrap();
        assert_eq!(
            tree.parent[idx(Name::ClusterProvision)],
            Some(idx(Name::EngineStep))
        );
        assert_eq!(
            tree.parent[idx(Name::PlaceChoose)],
            Some(idx(Name::ClusterProvision))
        );
        assert_eq!(
            tree.parent[idx(Name::ShardProvision)],
            Some(idx(Name::ClusterProvision))
        );
        assert_eq!(
            tree.parent[idx(Name::PredictIngest)],
            Some(idx(Name::ShardProvision))
        );
        // Cross-lane children do not reduce the coordinator's self time.
        assert!((tree.self_time(Name::ClusterProvision) - 40e-9).abs() < 1e-15);
        assert!((tree.self_time(Name::EngineStep) - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn identical_readings_nest_by_depth() {
        let tree = SpanTree::build(vec![
            span(Name::Pack, 0, 0, 5, 5),
            span(Name::PipelineProvision, 0, 0, 5, 5),
        ]);
        assert_eq!(tree.spans[0].name, Name::PipelineProvision);
        assert_eq!(tree.parent[1], Some(0));
    }
}
