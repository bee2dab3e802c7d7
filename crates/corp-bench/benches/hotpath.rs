//! Hot-path microbenchmarks backing DESIGN.md §9's numbers:
//!
//! * DNN pretraining through the fused per-sample kernels. The epoch
//!   count is pinned (patience can never trigger), so every run does the
//!   same number of dataset passes.
//! * Best-fit placement over a large fleet — the incremental
//!   [`VolumeIndex`] against the linear Eq. 22 scan it replaces, under
//!   per-slot churn (each iteration updates one VM's pool, then answers
//!   one placement query, exactly the scheduler's steady-state rhythm).
//! * Claims on the sharded coordinator's capacity ledger.
//! * One provisioning window of CORP inference on the paper's network:
//!   the batched DNN pass, HMM correction and Eq. 19 margin for 1024 jobs
//!   × 3 resources.

use corp_bench::env::{historical_histories, Environment};
use corp_cluster::PlacementStore;
use corp_core::{most_matched_vm, CorpConfig, CorpJobPredictor, PredictionScratch, VolumeIndex};
use corp_dnn::{Activation, Network, TrainConfig, Trainer};
use corp_sim::{ResourceVector, VmView};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// Synthetic unused-resource sliding windows: smooth bounded oscillation,
/// the shape the window predictor actually trains on.
fn pretrain_dataset(n: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let mut inputs = Vec::with_capacity(n);
    let mut targets = Vec::with_capacity(n);
    for i in 0..n {
        let x: Vec<f64> = (0..12)
            .map(|k| 0.5 + 0.4 * (((i * 13 + k * 7) as f64) * 0.37).sin())
            .collect();
        let y = x.iter().sum::<f64>() / 12.0;
        inputs.push(x);
        targets.push(vec![y]);
    }
    (inputs, targets)
}

/// Fixed-epoch training config (patience exceeds the epoch cap, so every
/// run does exactly `max_epochs` passes).
fn pinned_epochs() -> TrainConfig {
    TrainConfig {
        max_epochs: 8,
        patience: 9,
        ..TrainConfig::default()
    }
}

fn bench_dnn_pretrain(c: &mut Criterion) {
    let (inputs, targets) = pretrain_dataset(256);
    // The paper's predictor architecture: 12-sample window in, 4 hidden
    // layers of 50 units, scalar prediction out.
    let net = || {
        Network::new(
            &[12, 50, 50, 50, 50, 1],
            Activation::Sigmoid,
            Activation::Identity,
            7,
        )
    };
    let mut group = c.benchmark_group("dnn_pretrain");
    group.sample_size(20);
    group.bench_function("per_sample_fused", |b| {
        b.iter(|| {
            let mut n = net();
            Trainer::new(pinned_epochs())
                .train(&mut n, black_box(&inputs), &targets)
                .final_validation_mse
        })
    });
    group.finish();
}

/// Deterministic churn value for VM `vm` at slot `step`, shaped like a
/// loaded fleet (CORP's target regime): 7 of 8 VMs are nearly full
/// (headroom components below 1), one in 8 has real room. Components are
/// quantized so exact volume ties — the index's tie-break case — occur.
fn churn_value(vm: usize, step: usize) -> ResourceVector {
    let q = |m: usize| ((vm * 37 + step * 53 + m) % 8) as f64 / 8.0;
    if vm % 8 == 0 {
        ResourceVector::new([1.0 + 7.0 * q(0), 1.0 + 7.0 * q(11), 1.0 + 7.0 * q(29)])
    } else {
        ResourceVector::new([q(0), q(11), q(29)])
    }
}

fn bench_best_fit(c: &mut Criterion) {
    const VMS: usize = 1024;
    let reference = ResourceVector::splat(8.0);
    let demand = ResourceVector::splat(1.0);
    let pools: Vec<ResourceVector> = (0..VMS).map(|vm| churn_value(vm, 0)).collect();
    let mut group = c.benchmark_group("best_fit_1024vms");
    group.bench_function("linear_scan", |b| {
        let mut pools = pools.clone();
        let mut step = 0usize;
        b.iter(|| {
            step = step.wrapping_add(1);
            let vm = step % VMS;
            pools[vm] = churn_value(vm, step);
            most_matched_vm(black_box(&pools), &demand, &reference)
        })
    });
    group.bench_function("volume_index", |b| {
        let mut pools = pools.clone();
        let mut idx = VolumeIndex::new(&pools, &reference);
        let mut step = 0usize;
        b.iter(|| {
            step = step.wrapping_add(1);
            let vm = step % VMS;
            pools[vm] = churn_value(vm, step);
            idx.update(vm, &pools[vm], &reference);
            idx.best_fit(black_box(&pools), &demand, &reference)
        })
    });
    group.finish();
}

/// The sigmoid cost floor: one pretrain run evaluates ~410k activations,
/// time no change to the matrix kernels can remove.
fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    let xs: Vec<f64> = (0..410_000)
        .map(|i| (i as f64 * 0.001).sin() * 4.0)
        .collect();
    group.sample_size(10);
    group.bench_function("sigmoid_410k", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &x in black_box(&xs) {
                acc += 1.0 / (1.0 + (-x).exp());
            }
            acc
        })
    });
    group.finish();
}

/// Capacity-ledger microbench backing DESIGN.md §15: one coordinator
/// slot's worth of claims (a `begin_slot` rebase then `OPS` round-robin
/// claims from one shard) on the coordinator's ledger. Capacities are
/// huge so every claim lands on its proposed VM: the arm measures the
/// per-claim bookkeeping, not conflict handling.
fn bench_store_contention(c: &mut Criterion) {
    const VMS: usize = 1024;
    const OPS: usize = 256;
    let capacity = ResourceVector::splat(1e9);
    let vms: Vec<VmView> = (0..VMS)
        .map(|id| VmView {
            id,
            capacity,
            committed: ResourceVector::ZERO,
            free: capacity,
            jobs: Vec::new(),
            unused_history: Vec::new(),
        })
        .collect();
    let demand = ResourceVector::splat(1.0);
    let mut store = PlacementStore::new();
    let mut group = c.benchmark_group("store_1024vms");
    group.bench_function("claim_per_op", |b| {
        b.iter(|| {
            store.begin_slot(&vms);
            for op in 0..OPS {
                let claim = store.claim(0, black_box(op * 37 % VMS), demand, &capacity);
                assert!(claim.vm.is_some(), "uncontended claim");
            }
        })
    });
    group.finish();
}

/// One window of CORP's per-job forecast on the paper's 4x50 networks,
/// pretrained on the experiments' historical workload: 1024 jobs with
/// three recent-unused series each, through the batched
/// `predict_jobs_in` path a pool worker runs. Series lengths cycle
/// through 1..=12 samples, so short series (left-padded to the 6-slot
/// input window) and full ones both occur, as in a live fleet.
fn bench_dnn_infer(c: &mut Criterion) {
    const JOBS: usize = 1024;
    let mut predictor = CorpJobPredictor::new(&CorpConfig::default());
    predictor.pretrain(&historical_histories(Environment::Cluster, 40));
    let recent: Vec<Vec<Vec<f64>>> = (0..JOBS)
        .map(|j| {
            (0..3)
                .map(|k| {
                    (0..1 + j % 12)
                        .map(|t| 1.0 + 0.8 * (((j * 7 + k * 3 + t) as f64) * 0.61).sin())
                        .collect()
                })
                .collect()
        })
        .collect();
    let requested = vec![ResourceVector::splat(2.0); JOBS];
    let mut out = vec![ResourceVector::ZERO; JOBS];
    let mut scratch = PredictionScratch::new();
    let mut group = c.benchmark_group("dnn_infer");
    group.sample_size(20);
    group.bench_function("window_1024jobs_paper_net", |b| {
        b.iter(|| {
            predictor.predict_jobs_in(black_box(&recent), &requested, &mut scratch, &mut out);
            out[JOBS - 1]
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_dnn_pretrain,
    bench_best_fit,
    bench_kernels,
    bench_store_contention,
    bench_dnn_infer
);
criterion_main!(benches);
