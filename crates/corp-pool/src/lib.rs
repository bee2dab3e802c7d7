//! Persistent worker pool for CORP's prediction fan-out.
//!
//! `corp-core::pipeline` used to spawn fresh scoped OS threads every
//! provisioning window and rebuild each worker's predictor scratch from
//! nothing. This crate amortizes both costs across the whole simulation,
//! and is the workspace's only data-parallel runtime:
//!
//! * [`WorkerPool`] owns long-lived named threads (`corp-predict-{i}`),
//!   each parked on a blocking channel receive while idle;
//! * every worker owns a [`WorkerScratch`] — a type-keyed map of reusable
//!   predictor states (DNN activation buffers, HMM decode buffers, …) that
//!   persists across dispatches behind a reset-not-reallocate discipline;
//! * [`WorkerPool::run_chunks`] preserves the deterministic
//!   contiguous-chunk task→worker mapping: chunk `i` always runs on
//!   worker `i`, results land by task index, so everything
//!   downstream is byte-identical to a serial execution.
//!
//! ## Why this crate exists (and the one `unsafe` in the workspace)
//!
//! A persistent pool executing *borrowed* closures cannot be written in
//! safe Rust: the worker threads are `'static`, the per-window tasks
//! borrow the caller's stack (fleet views, result slots), and the only way
//! to hand one to the other is to erase the lifetime — the same move
//! `rayon` and `scoped_threadpool` make internally. Every other crate in
//! the workspace keeps `#![forbid(unsafe_code)]`; this crate isolates the
//! single erasure behind a safe blocking API whose soundness argument is
//! spelled out at the `unsafe` block, and nothing else.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use crossbeam::channel::{bounded, unbounded, Sender};
use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;

/// A lifetime-erased unit of work executed on a pool worker.
type PoolTask = Box<dyn FnOnce(&mut WorkerScratch) + Send + 'static>;

/// A panic payload carried back from a worker.
type Payload = Box<dyn Any + Send + 'static>;

/// Per-worker bag of reusable predictor states, keyed by type.
///
/// Workers own one scratch each for the lifetime of the pool; callers
/// fetch their state type with [`get_or_insert_with`](Self::get_or_insert_with)
/// and reset-not-reallocate inside it. States must be self-resetting per
/// use (every buffer fully overwritten before read), which is what makes
/// reuse invisible in the results.
#[derive(Default)]
pub struct WorkerScratch {
    slots: HashMap<TypeId, Box<dyn Any + Send>>,
}

impl std::fmt::Debug for WorkerScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerScratch")
            .field("states", &self.slots.len())
            .finish()
    }
}

impl WorkerScratch {
    /// An empty scratch.
    pub fn new() -> Self {
        WorkerScratch::default()
    }

    /// The persistent state of type `S`, created with `init` on first use.
    pub fn get_or_insert_with<S: Any + Send>(&mut self, init: impl FnOnce() -> S) -> &mut S {
        self.slots
            .entry(TypeId::of::<S>())
            .or_insert_with(|| Box::new(init()))
            .downcast_mut::<S>()
            .expect("scratch slot keyed by its own TypeId")
    }

    /// Number of distinct state types held.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no state has been created yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

struct PoolWorker {
    /// `None` once the pool is shutting down (sender dropped to unpark the
    /// worker loop into its exit path).
    tasks: Option<Sender<PoolTask>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// Long-lived prediction workers, parked on a blocking channel receive
/// while idle. Workers are spawned lazily by [`ensure`](Self::ensure) and
/// joined on drop.
#[derive(Default)]
pub struct WorkerPool {
    workers: Vec<PoolWorker>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("width", &self.workers.len())
            .finish()
    }
}

impl WorkerPool {
    /// An empty pool; workers spawn on first [`ensure`](Self::ensure).
    pub fn new() -> Self {
        WorkerPool::default()
    }

    /// Current number of live workers.
    pub fn width(&self) -> usize {
        self.workers.len()
    }

    /// Grows the pool to at least `width` workers (never shrinks — scratch
    /// in existing workers stays warm).
    pub fn ensure(&mut self, width: usize) {
        while self.workers.len() < width {
            let i = self.workers.len();
            let (tx, rx) = unbounded::<PoolTask>();
            let handle = std::thread::Builder::new()
                .name(format!("corp-predict-{i}"))
                .spawn(move || {
                    let mut scratch = WorkerScratch::new();
                    // Parked (condvar wait inside `recv`) while idle; exits
                    // when the pool drops its sender.
                    while let Ok(task) = rx.recv() {
                        task(&mut scratch);
                    }
                })
                .expect("failed to spawn prediction worker");
            self.workers.push(PoolWorker {
                tasks: Some(tx),
                handle: Some(handle),
            });
        }
    }

    /// Fans `f` over `tasks` across the pool: contiguous chunks of
    /// `ceil(tasks / width)` tasks, chunk `i` dispatched to worker `i`,
    /// results written by task index into `results` (which must be at
    /// least `tasks.len()` long). Each worker threads its calls through
    /// its persistent state of type `S` (created by `init` on the worker's
    /// first dispatch) and finally reduces the state with `finish`; the
    /// per-chunk reductions are returned in chunk order.
    ///
    /// Blocks until every dispatched chunk completes — the property the
    /// borrowed-data erasure below rests on.
    ///
    /// # Panics
    ///
    /// Re-raises the first worker panic after all chunks have settled, and
    /// panics if `results` is shorter than `tasks` or a worker died without
    /// reporting.
    pub fn run_chunks<I, T, S, D>(
        &mut self,
        tasks: &[I],
        results: &mut [T],
        width: usize,
        init: &(impl Fn() -> S + Sync),
        f: &(impl Fn(&I, &mut S) -> T + Sync),
        finish: &(impl Fn(&mut S) -> D + Sync),
    ) -> Vec<D>
    where
        I: Sync,
        T: Send,
        S: Any + Send,
        D: Send,
    {
        assert!(
            results.len() >= tasks.len(),
            "result buffer shorter than task list"
        );
        assert!(width >= 1, "need at least one worker");
        if tasks.is_empty() {
            return Vec::new();
        }
        self.ensure(width);
        let chunk_len = tasks.len().div_ceil(width);
        let n_chunks = tasks.len().div_ceil(chunk_len);
        let (done_tx, done_rx) = bounded::<(usize, Result<D, Payload>)>(n_chunks);

        let mut sent = 0usize;
        for (idx, (chunk, slots)) in tasks
            .chunks(chunk_len)
            .zip(results.chunks_mut(chunk_len))
            .enumerate()
        {
            let tx = done_tx.clone();
            let task: Box<dyn FnOnce(&mut WorkerScratch) + Send + '_> =
                Box::new(move |scratch: &mut WorkerScratch| {
                    // Catch inside the task so the done message is sent on
                    // every path — the caller's blocking collect below must
                    // never deadlock on a panicking chunk.
                    let out = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        let state = scratch.get_or_insert_with(init);
                        for (task, slot) in chunk.iter().zip(slots.iter_mut()) {
                            *slot = f(task, state);
                        }
                        finish(state)
                    }));
                    let _ = tx.send((idx, out));
                });
            // SAFETY: the boxed closure borrows `tasks`, `results`, `init`,
            // `f`, `finish` and the local `done_tx` clones, none of which
            // are `'static`. Erasing the lifetime is sound because this
            // function does not return until every closure that was
            // successfully sent has finished running:
            //
            // * each closure moves a `done_tx` clone and sends on it as its
            //   final action (the send is unconditionally reached — the
            //   body is wrapped in `catch_unwind`, and dropping the closure
            //   unexecuted also drops the sender);
            // * the collect loop below blocks until it has received `sent`
            //   messages or the done channel disconnects, and the channel
            //   can only disconnect after every outstanding clone of
            //   `done_tx` is dropped — i.e. after every dispatched closure
            //   has either run to completion or been destroyed;
            // * closure destruction cannot touch the borrowed data either:
            //   the captures are shared references and the sender, whose
            //   drops never dereference the borrows.
            //
            // Hence no worker can observe the borrowed stack frame after
            // `run_chunks` returns, which is exactly the guarantee a
            // scoped thread provides by joining.
            let task: PoolTask = unsafe {
                std::mem::transmute::<
                    Box<dyn FnOnce(&mut WorkerScratch) + Send + '_>,
                    Box<dyn FnOnce(&mut WorkerScratch) + Send + 'static>,
                >(task)
            };
            if self.workers[idx]
                .tasks
                .as_ref()
                .is_some_and(|t| t.send(task).is_ok())
            {
                sent += 1;
            }
        }
        drop(done_tx);

        let mut deltas: Vec<Option<D>> = std::iter::repeat_with(|| None).take(n_chunks).collect();
        let mut panic_payload: Option<Payload> = None;
        let mut received = 0usize;
        while received < sent {
            match done_rx.recv() {
                Ok((idx, Ok(d))) => {
                    deltas[idx] = Some(d);
                    received += 1;
                }
                Ok((_, Err(p))) => {
                    panic_payload.get_or_insert(p);
                    received += 1;
                }
                // Disconnected: every remaining sender clone was dropped,
                // so no closure still borrows our frame. Fall through to
                // the death diagnostics below.
                Err(_) => break,
            }
        }
        if let Some(p) = panic_payload {
            std::panic::resume_unwind(p);
        }
        assert!(
            sent == n_chunks && received == sent,
            "prediction worker died mid-dispatch"
        );
        deltas
            .into_iter()
            .map(|d| d.expect("every chunk reported a reduction"))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the task senders unparks every worker loop into its exit
        // path; join afterwards so no thread outlives the pool.
        for w in &mut self.workers {
            w.tasks.take();
        }
        for w in &mut self.workers {
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_land_by_task_index() {
        let mut pool = WorkerPool::new();
        let tasks: Vec<usize> = (0..100).collect();
        let mut results = vec![0usize; tasks.len()];
        for width in [1, 2, 3, 7] {
            let deltas = pool.run_chunks(
                &tasks,
                &mut results,
                width,
                &|| (),
                &|&t, _: &mut ()| t * 10,
                &|_| (),
            );
            assert_eq!(
                deltas.len(),
                tasks.len().div_ceil(tasks.len().div_ceil(width))
            );
            for (i, &r) in results.iter().enumerate() {
                assert_eq!(r, i * 10, "width {width}");
            }
        }
    }

    #[test]
    fn scratch_persists_across_dispatches() {
        let mut pool = WorkerPool::new();
        let tasks = [0usize; 8];
        let mut results = [0usize; 8];
        // Each dispatch increments the worker-persistent counter once per
        // processed task; the second dispatch must see the first's count.
        let totals: Vec<usize> = (0..2)
            .flat_map(|_| {
                pool.run_chunks(
                    &tasks,
                    &mut results,
                    2,
                    &|| 0usize,
                    &|_, seen: &mut usize| {
                        *seen += 1;
                        *seen
                    },
                    &|seen| *seen,
                )
            })
            .collect();
        // 2 workers × 4 tasks per dispatch: counts 4,4 then 8,8.
        assert_eq!(totals, vec![4, 4, 8, 8]);
    }

    #[test]
    fn chunk_mapping_is_contiguous_and_deterministic() {
        let mut pool = WorkerPool::new();
        let tasks: Vec<usize> = (0..10).collect();
        let mut results = vec![String::new(); tasks.len()];
        // Workers tag results with their thread name: chunk i must run on
        // corp-predict-i, tasks in ascending contiguous runs.
        pool.run_chunks(
            &tasks,
            &mut results,
            3,
            &|| (),
            &|_, _: &mut ()| std::thread::current().name().unwrap_or("?").to_string(),
            &|_| (),
        );
        // ceil(10/3) = 4 -> chunks [0..4), [4..8), [8..10).
        for (i, r) in results.iter().enumerate() {
            let expect = format!("corp-predict-{}", i / 4);
            assert_eq!(*r, expect, "task {i}");
        }
    }

    #[test]
    fn finish_reductions_come_back_in_chunk_order() {
        let mut pool = WorkerPool::new();
        let tasks: Vec<usize> = (0..9).collect();
        let mut results = vec![0usize; tasks.len()];
        let deltas = pool.run_chunks(
            &tasks,
            &mut results,
            3,
            &|| Vec::<usize>::new(),
            &|&t, acc: &mut Vec<usize>| {
                acc.push(t);
                t
            },
            &|acc| std::mem::take(acc).first().copied().unwrap_or(usize::MAX),
        );
        assert_eq!(deltas, vec![0, 3, 6], "first task of each chunk, in order");
    }

    #[test]
    fn worker_panic_propagates_after_all_chunks_settle() {
        let mut pool = WorkerPool::new();
        let tasks: Vec<usize> = (0..8).collect();
        let survived = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut results = vec![0usize; tasks.len()];
            pool.run_chunks(
                &tasks,
                &mut results,
                4,
                &|| (),
                &|&t, _: &mut ()| {
                    if t == 2 {
                        panic!("boom on task {t}");
                    }
                    survived.fetch_add(1, Ordering::SeqCst);
                    t
                },
                &|_| (),
            );
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
        // The pool survives the panic and keeps serving.
        let mut results = vec![0usize; 4];
        pool.run_chunks(
            &tasks[..4],
            &mut results,
            2,
            &|| (),
            &|&t, _: &mut ()| t + 1,
            &|_| (),
        );
        assert_eq!(results, vec![1, 2, 3, 4]);
    }

    #[test]
    fn empty_task_list_is_a_no_op() {
        let mut pool = WorkerPool::new();
        let mut results: Vec<usize> = Vec::new();
        let deltas = pool.run_chunks(
            &Vec::<usize>::new(),
            &mut results,
            4,
            &|| (),
            &|&t, _: &mut ()| t,
            &|_| (),
        );
        assert!(deltas.is_empty());
        assert_eq!(pool.width(), 0, "no workers spawned for nothing");
    }

    #[test]
    fn pool_never_shrinks_but_grows_on_demand() {
        let mut pool = WorkerPool::new();
        pool.ensure(2);
        assert_eq!(pool.width(), 2);
        pool.ensure(1);
        assert_eq!(pool.width(), 2, "warm scratch is kept");
        pool.ensure(5);
        assert_eq!(pool.width(), 5);
    }

    #[test]
    fn typed_scratch_slots_are_independent() {
        let mut s = WorkerScratch::new();
        *s.get_or_insert_with(|| 0u64) += 7;
        s.get_or_insert_with(Vec::<f64>::new).push(1.5);
        assert_eq!(*s.get_or_insert_with(|| 0u64), 7);
        assert_eq!(s.get_or_insert_with(Vec::<f64>::new).len(), 1);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }
}
