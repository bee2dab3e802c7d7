//! The prediction runtime: one [`PredictRuntime`] per predictor stage,
//! owning a lazily-spawned [`WorkerPool`] and the per-worker scratch that
//! persists across provisioning windows.
//!
//! Each window's tasks are dispatched to long-lived `corp-predict-{i}`
//! threads over crossbeam channels. Worker scratch (DNN activation
//! buffers, HMM decode buffers, series buffers) is created once per worker
//! and reset-not-reallocated per use. When the effective width is 1 —
//! small fleets below [`SERIAL_FANOUT_CUTOFF`], a single-core host, or a
//! stage pinned to width 1 — tasks run inline on the caller thread through
//! a runtime-owned persistent scratch: no channel round-trip, no parking,
//! and still zero per-window allocation. The inline path is the serial
//! reference every wider fan-out must reproduce.
//!
//! ## Determinism argument
//!
//! Tasks are chunked into `ceil(n / width)` contiguous runs, chunk `i`
//! executes on worker `i`, and results are written by task index;
//! predictor states only carry buffers that are fully overwritten before
//! they are read plus order-independent counters (u64 adds) extracted per
//! window by `finish`. Reports are therefore byte-identical across widths
//! and hosts — pinned by the golden-report suites in `corp-bench`.

pub use corp_pool::{WorkerPool, WorkerScratch};
use corp_sim::{ResourceVector, VmView};
use std::any::Any;
use std::sync::OnceLock;

/// Below this many tasks every fan-out runs inline: a prediction task is
/// tens of microseconds of work, so for small fleets the per-window
/// dispatch overhead exceeds the win. This is the fix for the
/// `BENCH_hotpath.json` tuned-slower-than-baseline inversion on small
/// workloads (DESIGN.md §9); inline and pooled results are bit-identical,
/// so the cutoff never changes a report.
pub const SERIAL_FANOUT_CUTOFF: usize = 64;

/// Hardware parallelism, queried once per process (the old code re-asked
/// `std::thread::available_parallelism` every provisioning window).
pub fn hardware_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// The per-stage prediction runtime: fan-out width policy, the
/// lazily-spawned worker pool, and the caller-thread scratch used by the
/// width-1 inline path.
#[derive(Default)]
pub struct PredictRuntime {
    width_override: Option<usize>,
    pool: Option<WorkerPool>,
    local: WorkerScratch,
}

impl std::fmt::Debug for PredictRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PredictRuntime")
            .field("width_override", &self.width_override)
            .field("pool_width", &self.pool.as_ref().map(WorkerPool::width))
            .finish()
    }
}

impl PredictRuntime {
    /// A runtime at the default width ([`hardware_parallelism`]).
    pub fn new() -> Self {
        PredictRuntime::default()
    }

    /// Pins the fan-out width instead of the [`hardware_parallelism`]
    /// default. `None` restores the default. The width only shapes the
    /// chunking — results are byte-identical at any width.
    ///
    /// # Panics
    ///
    /// Panics on `Some(0)`.
    pub fn set_width(&mut self, width: Option<usize>) {
        assert!(width != Some(0), "pool width must be at least 1");
        self.width_override = width;
    }

    /// The effective fan-out width for a window of `tasks` tasks.
    pub fn effective_width(&self, tasks: usize) -> usize {
        match self.width_override {
            // An explicit width skips the serial cutoff: equivalence tests
            // pin widths {1, 2, N} and must actually exercise them.
            Some(w) if tasks >= 2 => w.min(tasks),
            _ if tasks < SERIAL_FANOUT_CUTOFF => 1,
            _ => hardware_parallelism().min(tasks),
        }
    }

    /// Fans `f` over `tasks`.
    ///
    /// Results land by task index in a vector pre-filled with `fill`; each
    /// worker threads its calls through a state of type `S` (`init` on the
    /// worker's first use) and `finish` extracts the window's side-product
    /// from each state after its chunk completes (e.g. `mem::take` of
    /// fallback counters). The extractions are returned in chunk order.
    pub fn fan_out<I, T, S, D>(
        &mut self,
        tasks: &[I],
        fill: T,
        init: impl Fn() -> S + Sync,
        f: impl Fn(&I, &mut S) -> T + Sync,
        finish: impl Fn(&mut S) -> D + Sync,
    ) -> (Vec<T>, Vec<D>)
    where
        I: Sync,
        T: Send + Clone,
        S: Any + Send,
        D: Send,
    {
        let width = self.effective_width(tasks.len());
        let mut results = vec![fill; tasks.len()];
        if width <= 1 {
            // Inline on the caller thread through the persistent local
            // scratch: the zero-overhead path small windows and
            // single-core hosts always take.
            let state = self.local.get_or_insert_with(init);
            for (task, slot) in tasks.iter().zip(results.iter_mut()) {
                *slot = f(task, state);
            }
            let delta = finish(state);
            return (results, vec![delta]);
        }
        let pool = self.pool.get_or_insert_with(WorkerPool::new);
        let deltas = pool.run_chunks(tasks, &mut results, width, &init, &f, &finish);
        (results, deltas)
    }

    /// Fans the per-VM predictions of one window, returning one slot per
    /// VM position (`None` for VMs with no jobs or no forecast). When
    /// every VM has jobs — the common case under load — the fleet slice
    /// itself is the task list, skipping the intermediate index vector and
    /// the scatter copy.
    pub fn fan_out_vms(
        &mut self,
        vms: &[VmView],
        predict: impl Fn(&VmView) -> Option<ResourceVector> + Sync,
    ) -> Vec<Option<ResourceVector>> {
        if vms.iter().all(|v| !v.jobs.is_empty()) {
            let (results, _) = self.fan_out(vms, None, || (), |vm, _: &mut ()| predict(vm), |_| ());
            return results;
        }
        let tasks: Vec<usize> = vms
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.jobs.is_empty())
            .map(|(i, _)| i)
            .collect();
        let (results, _) = self.fan_out(
            &tasks,
            None,
            || (),
            |&i, _: &mut ()| predict(&vms[i]),
            |_| (),
        );
        let mut out: Vec<Option<ResourceVector>> = vec![None; vms.len()];
        for (&i, r) in tasks.iter().zip(results) {
            out[i] = r;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pinned(width: usize) -> PredictRuntime {
        let mut rt = PredictRuntime::new();
        rt.set_width(Some(width));
        rt
    }

    #[test]
    fn wide_results_match_inline_results() {
        let tasks: Vec<u64> = (0..200).collect();
        let run = |rt: &mut PredictRuntime| {
            rt.fan_out(
                &tasks,
                0u64,
                || 0u64,
                |&t, acc: &mut u64| {
                    *acc += 1;
                    t * t
                },
                std::mem::take,
            )
        };
        let (inline, inline_deltas) = run(&mut pinned(1));
        assert_eq!(inline_deltas, vec![200], "one inline state saw every task");
        for width in [2, 5] {
            let (wide, deltas) = run(&mut pinned(width));
            assert_eq!(wide, inline, "width {width}");
            assert_eq!(
                deltas.iter().sum::<u64>(),
                200,
                "every task processed exactly once at width {width}"
            );
        }
    }

    #[test]
    fn width_one_runs_inline_with_persistent_scratch() {
        let mut rt = pinned(1);
        let tasks = [(); 5];
        for round in 1u64..=3 {
            let (_, deltas) = rt.fan_out(
                &tasks,
                0u64,
                || 0u64,
                |_, acc: &mut u64| {
                    *acc += 1;
                    *acc
                },
                |acc| *acc,
            );
            assert_eq!(deltas, vec![round * 5], "scratch persists across windows");
        }
    }

    #[test]
    fn serial_cutoff_applies_without_an_override() {
        let rt = PredictRuntime::new();
        assert_eq!(rt.effective_width(1), 1);
        assert_eq!(
            rt.effective_width(SERIAL_FANOUT_CUTOFF - 1),
            1,
            "below the cutoff the fan-out is serial"
        );
        let pinned = pinned(3);
        assert_eq!(pinned.effective_width(8), 3, "explicit width wins");
        assert_eq!(pinned.effective_width(2), 2, "but never exceeds tasks");
        assert_eq!(pinned.effective_width(1), 1);
    }

    #[test]
    fn serial_runtime_never_fans_out() {
        let mut rt = pinned(1);
        assert_eq!(rt.effective_width(10_000), 1);
        let tasks: Vec<u64> = (0..100).collect();
        let (out, deltas) = rt.fan_out(&tasks, 0u64, || 0u64, |&t, _: &mut u64| t, |_| ());
        assert_eq!(out, tasks);
        assert_eq!(deltas.len(), 1, "one inline state");
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_width_override_rejected() {
        PredictRuntime::new().set_width(Some(0));
    }
}
