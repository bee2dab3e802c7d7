//! Property tests for the coordinator's capacity ledger (`PlacementStore`)
//! and the sharded coordinator around it.
//!
//! The safety contract: under *arbitrary* sequences of claims, allocation
//! adjustments and slot rebases — crashes to zero capacity and recoveries
//! included — commitments plus this slot's claims never exceed any VM's
//! capacity, and every claim lands exactly where a linear Eq. 22 reference
//! says it should.

use corp_cluster::{PlacementStore, ProvisionerFactory, ShardConfig, ShardedProvisioner};
use corp_core::most_matched_vm;
use corp_faults::{ControlFaultPlan, SlotShard};
use corp_sim::{
    PendingJobView, Provisioner, ResourceVector, SlotContext, StaticPeakProvisioner, VmView,
};
use proptest::prelude::*;
use std::collections::HashMap;

const VMS: usize = 4;
const CAPACITY: f64 = 4.0;
const EPS: f64 = 1e-9;

fn nominal() -> ResourceVector {
    ResourceVector::splat(CAPACITY)
}

fn vm_view(capacity: ResourceVector, committed: ResourceVector) -> VmView {
    VmView {
        id: 0,
        capacity,
        committed,
        free: capacity.saturating_sub(&committed),
        jobs: vec![],
        unused_history: vec![],
    }
}

/// A ledger over `VMS` nominal, uncommitted VMs.
fn store() -> PlacementStore {
    let mut store = PlacementStore::new();
    store.begin_slot(&vec![vm_view(nominal(), ResourceVector::ZERO); VMS]);
    store
}

/// Quantized amounts make equal headrooms (and best-fit ties) common.
fn amount(q: u8) -> ResourceVector {
    ResourceVector::new([q as f64 * 0.5, (q % 3) as f64, q as f64 * 0.5])
}

/// Every VM's headroom, VM-id ordered.
fn frees(store: &PlacementStore) -> Vec<ResourceVector> {
    (0..store.num_vms())
        .map(|vm| store.free(vm).expect("vm in range"))
        .collect()
}

/// The engine's view after a slot: every claim so far becomes a
/// commitment, `crashed` VMs drop to zero capacity and `recovered` ones
/// rejoin at nominal capacity, empty.
fn rebase(
    store: &mut PlacementStore,
    capacities: &mut [ResourceVector],
    crashed: Option<usize>,
    recovered: Option<usize>,
) {
    let free = frees(store);
    let views: Vec<VmView> = (0..VMS)
        .map(|vm| {
            if crashed == Some(vm) {
                capacities[vm] = ResourceVector::ZERO;
            } else if recovered == Some(vm) {
                capacities[vm] = nominal();
            } else {
                let committed = capacities[vm].saturating_sub(&free[vm]);
                return vm_view(capacities[vm], committed);
            }
            vm_view(capacities[vm], ResourceVector::ZERO)
        })
        .collect();
    store.begin_slot(&views);
}

/// Applies one encoded op: 0-2 claim (VM `VMS` is unknown), 3 adjust, 4
/// whole-fleet rebase, 5 crash rebase, 6 recovery rebase.
fn apply(
    store: &mut PlacementStore,
    capacities: &mut [ResourceVector],
    op: (usize, usize, usize, u8),
) {
    let (kind, shard, vm, q) = op;
    match kind {
        0..=2 => {
            store.claim(shard, vm, amount(q), &nominal());
        }
        3 => {
            store.adjust(vm, ResourceVector::ZERO, amount(q));
        }
        4 => rebase(store, capacities, None, None),
        5 => rebase(store, capacities, Some(vm % VMS), None),
        _ => rebase(store, capacities, None, Some(vm % VMS)),
    }
}

fn ops(kinds: usize) -> impl Strategy<Value = Vec<(usize, usize, usize, u8)>> {
    prop::collection::vec((0..kinds, 0usize..3, 0..=VMS, 0u8..=6), 1..150)
}

proptest! {
    #[test]
    fn arbitrary_sequential_interleavings_never_overcommit(ops in ops(5)) {
        let mut store = store();
        let mut capacities = vec![nominal(); VMS];
        for &op in &ops {
            apply(&mut store, &mut capacities, op);
            prop_assert!(store.holds_invariants(EPS), "overcommit after op {:?}", op);
        }
    }

    #[test]
    fn crash_recovery_interleavings_preserve_invariants(ops in ops(7)) {
        // Crash rebases drop a VM to zero capacity (its jobs died with it);
        // recovery rebases bring it back empty at nominal capacity.
        // Neither may ever leave a VM overcommitted, and a crashed VM
        // admits nothing until it recovers.
        let mut store = store();
        let mut capacities = vec![nominal(); VMS];
        for &op in &ops {
            apply(&mut store, &mut capacities, op);
            prop_assert!(store.holds_invariants(EPS), "overcommit after op {:?}", op);
            for (vm, cap) in capacities.iter().enumerate() {
                if *cap == ResourceVector::ZERO {
                    prop_assert_eq!(store.free(vm), Some(ResourceVector::ZERO));
                }
            }
        }
    }

    #[test]
    fn refused_reservations_change_nothing(
        fill in 0.0f64..4.0,
        excess in 0.1f64..4.0,
        shard in 0usize..2,
    ) {
        // One VM: a claim beyond its remaining headroom, with no other VM
        // to retry on, must be refused and must not perturb the ledger.
        let mut store = PlacementStore::new();
        store.begin_slot(&[vm_view(nominal(), ResourceVector::ZERO)]);
        prop_assert!(store.claim(0, 0, ResourceVector::splat(fill), &nominal()).vm.is_some());
        let before = store.free(0).expect("vm 0 exists");
        let request = ResourceVector::splat(CAPACITY - fill + excess);
        let claim = store.claim(shard, 0, request, &nominal());
        prop_assert_eq!(claim.vm, None);
        prop_assert_eq!(store.free(0).expect("vm 0 exists"), before);
        let c = store.counters();
        prop_assert_eq!((c.commits, c.conflicts), (1, 1));
    }

    #[test]
    fn indexed_best_fit_matches_linear_scan_across_interleavings(
        ops in ops(7),
        demand in (0u8..=6).prop_map(amount),
    ) {
        // The ledger's incremental volume index must answer exactly what a
        // linear smallest-volume scan over the headrooms answers, ties
        // toward the lower VM id included, after any sequence of claims,
        // adjustments and rebases (each rebase drops the index; the next
        // query rebuilds it, later mutations update it in place).
        let mut store = store();
        let mut capacities = vec![nominal(); VMS];
        for &op in &ops {
            apply(&mut store, &mut capacities, op);
            let linear = most_matched_vm(&frees(&store), &demand, &nominal());
            prop_assert_eq!(
                store.best_fit(&demand, &nominal()),
                linear,
                "index diverged from linear scan after op {:?}", op
            );
        }
    }

    #[test]
    fn claims_match_the_linear_reference(ops in ops(7)) {
        // Every claim lands on its proposed VM if that VM fits, else on
        // the linear Eq. 22 best fit, else nowhere (an unknown VM aborts
        // without a conflict). It sees at most one conflict and one retry,
        // and every admitted claim is a commit.
        let mut store = store();
        let mut capacities = vec![nominal(); VMS];
        let mut admitted = 0u64;
        for &(kind, shard, vm, q) in &ops {
            if kind > 2 {
                apply(&mut store, &mut capacities, (kind, shard, vm, q));
                continue;
            }
            let demand = amount(q);
            let free = frees(&store);
            let fits = free.get(vm).map(|f| demand.fits_within(f));
            let expected = match fits {
                None => None,
                Some(true) => Some(vm),
                Some(false) => most_matched_vm(&free, &demand, &nominal()),
            };
            let claim = store.claim(shard, vm, demand, &nominal());
            prop_assert_eq!(claim.vm, expected, "claim ({}, {}, {})", shard, vm, q);
            prop_assert_eq!(claim.conflicts, u64::from(fits == Some(false)));
            prop_assert_eq!(
                claim.retries,
                u64::from(fits == Some(false) && expected.is_some())
            );
            prop_assert!(claim.conflicts <= 1 && claim.retries <= 1);
            admitted += u64::from(claim.vm.is_some());
            if claim.vm.is_none() {
                prop_assert_eq!(frees(&store), free, "refused claim changed the ledger");
            }
            prop_assert!(store.holds_invariants(EPS));
        }
        prop_assert_eq!(store.counters().commits, admitted);
    }

    #[test]
    fn fast_path_fallback_preserves_no_overcommit_under_forced_conflicts(
        ops in prop::collection::vec((0usize..2, 0usize..VMS, 1u8..=4), 1..120),
        rebase_every in 3usize..10,
    ) {
        // Two shards hammer the same VMs. A claim on a VM the other shard
        // already wrote this slot is forced off the fast path and counted
        // as a stripe conflict; periodic rebases reset the writer marks.
        // Whatever the pattern: no overcommit, and every claim is either a
        // fast-path hit or (for the slot) a fallback.
        let mut store = store();
        let mut writers: Vec<Vec<usize>> = vec![Vec::new(); VMS];
        let mut forced = 0u64;
        let mut slots_with_fallback = 0u64;
        let mut fell_back = false;
        for (i, &(shard, vm, q)) in ops.iter().enumerate() {
            if i % rebase_every == 0 {
                store.begin_slot(&vec![vm_view(nominal(), ResourceVector::ZERO); VMS]);
                writers.iter_mut().for_each(Vec::clear);
                fell_back = false;
            }
            let foreign = writers[vm].iter().any(|&w| w != shard);
            let fits = ResourceVector::splat(q as f64 * 0.5)
                .fits_within(&store.free(vm).expect("vm in range"));
            forced += u64::from(foreign);
            let hits = store.counters().fast_path_hits;
            let claim = store.claim(shard, vm, ResourceVector::splat(q as f64 * 0.5), &nominal());
            let hit = store.counters().fast_path_hits > hits;
            prop_assert_eq!(hit, !foreign && fits);
            if !hit && !fell_back {
                fell_back = true;
                slots_with_fallback += 1;
            }
            if let Some(target) = claim.vm {
                writers[target].push(shard);
            }
            prop_assert!(store.holds_invariants(EPS), "overcommit after op {}", i);
        }
        let c = store.counters();
        prop_assert_eq!(c.stripe_conflicts, forced, "every foreign-writer claim counted");
        prop_assert_eq!(c.fallback_rounds, slots_with_fallback);
    }

    #[test]
    fn shard_kills_never_lose_or_duplicate_pending_jobs(
        kills in prop::collection::vec((0u64..6, 0usize..3), 0..10),
        num_jobs in 1usize..10,
    ) {
        // Killing a shard worker mid-run must not lose a pending job (its
        // slot falls back to inline scheduling, or the job stays pending
        // for the restarted worker) and must never place one twice.
        const SHARDS: usize = 3;
        const FLEET: usize = 4;
        let cap = ResourceVector::splat(100.0);
        let plan = ControlFaultPlan::new(
            kills
                .iter()
                .map(|&(slot, shard)| SlotShard { slot, shard })
                .collect(),
            vec![],
            vec![],
        );
        let factories: Vec<ProvisionerFactory> = (0..SHARDS)
            .map(|_| {
                Box::new(|| Box::new(StaticPeakProvisioner) as Box<dyn Provisioner + Send>) as _
            })
            .collect();
        let mut p = ShardedProvisioner::with_factories(
            "static-peak",
            factories,
            ShardConfig {
                fault_plan: Some(plan),
            },
        );
        let mut committed = [ResourceVector::ZERO; FLEET];
        let mut pending: Vec<u64> = (0..num_jobs as u64).collect();
        let mut placed: HashMap<u64, usize> = HashMap::new();
        for slot in 0..8u64 {
            let vms: Vec<VmView> = committed
                .iter()
                .enumerate()
                .map(|(id, &c)| VmView {
                    id,
                    capacity: cap,
                    committed: c,
                    free: cap.saturating_sub(&c),
                    jobs: vec![],
                    unused_history: vec![],
                })
                .collect();
            let views: Vec<PendingJobView> = pending
                .iter()
                .map(|&id| PendingJobView {
                    id,
                    requested: ResourceVector::splat(1.0),
                    arrival_slot: 0,
                    slo_slots: 10,
                    handle: corp_sim::JobHandle::DETACHED,
                })
                .collect();
            let committed_col: Vec<ResourceVector> = committed.to_vec();
            let ctx = SlotContext {
                slot,
                vms: &vms,
                pending: &views,
                committed: &committed_col,
                max_vm_capacity: cap,
            };
            let slot_plan = p.provision(&ctx);
            for pl in &slot_plan.placements {
                *placed.entry(pl.job).or_insert(0) += 1;
                prop_assert!(
                    pending.contains(&pl.job),
                    "placed job {} that was not pending", pl.job
                );
                pending.retain(|&j| j != pl.job);
                committed[pl.vm] += pl.allocation;
                prop_assert!(
                    committed[pl.vm].fits_within(&cap),
                    "placement overcommitted vm {}", pl.vm
                );
            }
            prop_assert!(p.store().holds_invariants(EPS));
        }
        let cp = p.control_plane_stats().expect("sharded stats");
        prop_assert_eq!(cp.reservations, cp.commits);
        prop_assert_eq!(cp.aborts, 0);
        prop_assert!(pending.is_empty(), "jobs lost under shard kills: {:?}", pending);
        for (&job, &count) in &placed {
            prop_assert_eq!(count, 1, "job {} placed {} times", job, count);
        }
    }
}
