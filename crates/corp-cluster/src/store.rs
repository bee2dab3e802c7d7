//! The striped two-phase-commit placement store.
//!
//! Scheduler shards race to place jobs onto a shared VM fleet. The store is
//! the single arbiter of capacity: a shard first **reserves** the resources
//! a placement needs (phase 1 — the store admits the reservation only if
//! committed + reserved + amount still fits the VM), then either
//! **confirms** it (phase 2 — the hold becomes a durable commitment) or
//! **aborts** it (the hold is released). Because admission is checked under
//! a lock against the sum of durable commitments *and* outstanding holds,
//! no interleaving of racing shards can ever over-commit a VM — the
//! invariant the property tests drive with real thread interleavings.
//!
//! ## Striping
//!
//! Commitment state is partitioned into `S` **stripes** behind independent
//! locks, keyed by VM id (`stripe = vm % S`, so consecutive VM ids — which
//! best-fit tends to walk — spread across locks). Single-VM operations
//! (reserve/confirm/abort/adjust/`set_capacity`) touch exactly one stripe,
//! so rounds over disjoint stripes commit fully in parallel. Operations
//! spanning stripes (`begin_slot`, [`PlacementStore::best_fit`], batch
//! rounds, counter/invariant snapshots) acquire stripe locks in **canonical
//! ascending stripe order**, one at a time, which keeps the store
//! deadlock-free by construction. Reservation ids encode their stripe
//! (`id = local_seq * S + stripe`), so phase 2 routes to the owning stripe
//! without any shared map.
//!
//! ## Optimistic fast path
//!
//! Every ledger carries a per-VM **epoch** (bumped on every mutation) and a
//! per-slot **writer mark** (which shard, if any, has touched the VM since
//! [`PlacementStore::begin_slot`]). [`PlacementStore::try_fast_commit`]
//! uses them to validate-and-commit an *uncontended* claim — no foreign
//! writer this slot, capacity still fits — with a **single stripe
//! acquisition**, fusing both 2PC phases. On a foreign writer mark it
//! refuses ([`FastPathMiss::Contended`], counted as an epoch conflict) and
//! the caller falls back to full ordered 2PC (reserve → best-fit retry →
//! confirm). The fast path is an optimization, never a correctness
//! shortcut: admission is still checked under the stripe lock, so a missed
//! contention mark can only cost a fallback, never an overcommit. Crash
//! rebase ([`PlacementStore::set_capacity`], `begin_slot_full`) clears the
//! writer marks it invalidates, so a post-crash fast commit revalidates
//! against the wiped ledger like any other claim.
//!
//! ## Batched confirms
//!
//! [`PlacementStore::confirm_batch`] submits a whole per-slot set of
//! phase-2 confirms in one round: ids are grouped by owning stripe and
//! each stripe lock is acquired **once per round** instead of once per
//! claim. Within a stripe, confirms apply in submission order; across
//! stripes they are independent, so a batch round is observationally
//! identical to issuing the same [`PlacementStore::confirm`] calls one by
//! one.
//!
//! The store tracks capacity only; job identity, retry policy, and commit
//! ordering belong to the coordinator
//! ([`ShardedProvisioner`](crate::ShardedProvisioner)). Allocation
//! *adjustments* to running jobs go through [`PlacementStore::adjust`],
//! which applies the engine's own rebase arithmetic so a store-approved
//! adjustment is engine-valid by construction.

use std::collections::HashMap;

use corp_core::VolumeIndex;
use corp_sim::ResourceVector;
use parking_lot::Mutex;

/// Default stripe count for [`PlacementStore::new`] (clamped to the fleet
/// size). Sixteen stripes keep lock collision probability low for the 8-16
/// shard configurations the coordinator runs while costing nothing at one
/// shard.
pub const DEFAULT_STRIPES: usize = 16;

/// Handle to an open (reserved but not yet confirmed/aborted) reservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReservationId(u64);

/// Why a reservation was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReserveError {
    /// Admitting the reservation would over-commit the VM.
    Conflict,
    /// The VM id does not exist.
    UnknownVm,
}

/// Why a confirm/abort failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnError {
    /// The reservation id is not open (already confirmed, aborted, or never
    /// issued).
    UnknownReservation,
}

/// Why an optimistic fast commit did not commit. Every miss is recoverable
/// by falling back to full 2PC (`reserve` → `confirm`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastPathMiss {
    /// Another shard wrote this VM since the slot began: the epoch check
    /// demands full ordered 2PC.
    Contended,
    /// The claim no longer fits the VM's headroom.
    Conflict,
    /// The VM id does not exist.
    UnknownVm,
}

/// Monotone counters over the store's whole lifetime (slots accumulate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Reservations admitted (phase 1 successes). Fast commits count here
    /// too (a fused reserve+confirm), so `commits + aborts ==
    /// reservations` holds across both paths.
    pub reservations: u64,
    /// Reservations confirmed (phase 2 commits), including fast commits.
    pub commits: u64,
    /// Reservation attempts refused (would-be overcommits), including
    /// denied growing adjustments.
    pub conflicts: u64,
    /// Reservations rolled back.
    pub aborts: u64,
    /// Claims committed via the single-acquisition optimistic fast path.
    pub fast_commits: u64,
    /// Fast-path attempts refused by the per-VM epoch/writer check
    /// (another shard wrote the VM this slot), forcing full 2PC.
    pub epoch_conflicts: u64,
}

impl StoreCounters {
    fn add(&mut self, other: &StoreCounters) {
        self.reservations += other.reservations;
        self.commits += other.commits;
        self.conflicts += other.conflicts;
        self.aborts += other.aborts;
        self.fast_commits += other.fast_commits;
        self.epoch_conflicts += other.epoch_conflicts;
    }
}

/// Which shard(s) have mutated a VM's ledger since the slot began — the
/// evidence the optimistic fast path keys on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotWriter {
    /// Untouched this slot: any shard may fast-commit.
    Idle,
    /// Exactly one shard wrote; that shard may still fast-commit (its own
    /// writes are ordered by the arbitration sequence).
    One(usize),
    /// Two or more distinct shards wrote: every fast commit defers to full
    /// 2PC for the rest of the slot.
    Contended,
}

impl SlotWriter {
    fn note(&mut self, shard: usize) {
        *self = match *self {
            SlotWriter::Idle => SlotWriter::One(shard),
            SlotWriter::One(s) if s == shard => SlotWriter::One(s),
            _ => SlotWriter::Contended,
        };
    }

    fn is_foreign_to(&self, shard: usize) -> bool {
        match *self {
            SlotWriter::Idle => false,
            SlotWriter::One(s) => s != shard,
            SlotWriter::Contended => true,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Reservation {
    /// Local (within-stripe) VM index.
    local_vm: usize,
    amount: ResourceVector,
    /// Shard that opened the reservation (diagnostics).
    #[allow(dead_code)]
    shard: usize,
}

struct VmLedger {
    capacity: ResourceVector,
    /// Durable commitments (confirmed allocations), mirroring the engine's
    /// per-VM committed vector.
    committed: ResourceVector,
    /// Sum of open reservations.
    reserved: ResourceVector,
    /// Monotone mutation counter: bumped on every change to capacity,
    /// committed, or reserved. Never reset.
    epoch: u64,
    /// Writer mark since the last slot rebase (or crash rebase).
    writer: SlotWriter,
}

impl VmLedger {
    fn headroom(&self) -> ResourceVector {
        self.capacity
            .saturating_sub(&(self.committed + self.reserved))
    }

    fn touch(&mut self, shard: usize) {
        self.epoch += 1;
        self.writer.note(shard);
    }
}

/// One lock's worth of the fleet: every VM with `id % stripe_count ==
/// stripe_index`, at local index `id / stripe_count`.
struct Stripe {
    vms: Vec<VmLedger>,
    /// Open reservations keyed by the stripe-local sequence number (the
    /// public id is `seq * stripe_count + stripe_index`).
    open: HashMap<u64, Reservation>,
    next_seq: u64,
    counters: StoreCounters,
    /// Lazily built Eq. 22 headroom index over this stripe's VMs (local
    /// indices): the reference capacity it was built against plus a sorted
    /// volume index. Whole-fleet rebases drop it (rebuilt on the next
    /// [`PlacementStore::best_fit`]); single-VM mutations reposition just
    /// that VM's entry in O(log V).
    index: Option<(ResourceVector, VolumeIndex)>,
}

impl Stripe {
    /// Repositions `local_vm`'s index entry after any mutation that changed
    /// its headroom (reserve/confirm/abort/adjust/set_capacity).
    fn touch_index(&mut self, local_vm: usize) {
        if let Some((reference, index)) = self.index.as_mut() {
            index.update(local_vm, &self.vms[local_vm].headroom(), reference);
        }
    }
}

/// Thread-safe capacity arbiter for a VM fleet (see module docs).
pub struct PlacementStore {
    stripes: Vec<Mutex<Stripe>>,
    /// `stripes.len()`, kept outside the locks for id routing.
    stripe_count: usize,
    /// Total fleet size, immutable after construction.
    num_vms: usize,
}

impl PlacementStore {
    /// Builds a store over VMs with the given capacities, all uncommitted,
    /// with [`DEFAULT_STRIPES`] stripes (clamped to the fleet size).
    pub fn new(capacities: Vec<ResourceVector>) -> Self {
        let stripes = DEFAULT_STRIPES.min(capacities.len()).max(1);
        Self::with_stripes(capacities, stripes)
    }

    /// [`new`](Self::new) with an explicit stripe count (clamped to
    /// `1..=max(1, num_vms)`). One stripe reproduces the single-lock store
    /// exactly; the property tests pin that equivalence for every count.
    pub fn with_stripes(capacities: Vec<ResourceVector>, stripes: usize) -> Self {
        let num_vms = capacities.len();
        let stripe_count = stripes.clamp(1, num_vms.max(1));
        let mut per_stripe: Vec<Vec<VmLedger>> = (0..stripe_count).map(|_| Vec::new()).collect();
        for (vm, capacity) in capacities.into_iter().enumerate() {
            per_stripe[vm % stripe_count].push(VmLedger {
                capacity,
                committed: ResourceVector::ZERO,
                reserved: ResourceVector::ZERO,
                epoch: 0,
                writer: SlotWriter::Idle,
            });
        }
        PlacementStore {
            stripes: per_stripe
                .into_iter()
                .map(|vms| {
                    Mutex::new(Stripe {
                        vms,
                        open: HashMap::new(),
                        next_seq: 0,
                        counters: StoreCounters::default(),
                        index: None,
                    })
                })
                .collect(),
            stripe_count,
            num_vms,
        }
    }

    /// Number of stripes (independent locks) the fleet is partitioned into.
    pub fn stripe_count(&self) -> usize {
        self.stripe_count
    }

    #[inline]
    fn stripe_of(&self, vm: usize) -> usize {
        vm % self.stripe_count
    }

    #[inline]
    fn local_of(&self, vm: usize) -> usize {
        vm / self.stripe_count
    }

    #[inline]
    fn global_of(&self, stripe: usize, local: usize) -> usize {
        local * self.stripe_count + stripe
    }

    /// Re-bases the durable commitments from an authoritative snapshot (the
    /// engine's per-VM committed vectors at the start of a slot) and drops
    /// any reservation left open from the previous slot (counted as
    /// aborts). Per-slot writer marks reset — the new slot starts
    /// uncontended everywhere. Counters persist across slots.
    ///
    /// # Panics
    ///
    /// If `committed` has a different length than the fleet.
    pub fn begin_slot(&self, committed: &[ResourceVector]) {
        self.rebase(None, committed);
    }

    /// [`begin_slot`](Self::begin_slot) that also re-bases per-VM
    /// capacities — required under fault injection, where a crashed VM's
    /// view capacity drops to zero and rejoins at nominal on recovery.
    /// With unchanged capacities this is exactly `begin_slot`.
    ///
    /// # Panics
    ///
    /// If `capacities` or `committed` has a different length than the
    /// fleet.
    pub fn begin_slot_full(&self, capacities: &[ResourceVector], committed: &[ResourceVector]) {
        assert_eq!(self.num_vms, capacities.len(), "fleet size changed mid-run");
        self.rebase(Some(capacities), committed);
    }

    /// Stripe-ordered whole-fleet rebase (one lock acquisition per stripe).
    fn rebase(&self, capacities: Option<&[ResourceVector]>, committed: &[ResourceVector]) {
        assert_eq!(self.num_vms, committed.len(), "fleet size changed mid-run");
        for (s, stripe) in self.stripes.iter().enumerate() {
            let mut stripe = stripe.lock();
            stripe.counters.aborts += stripe.open.len() as u64;
            stripe.open.clear();
            for local in 0..stripe.vms.len() {
                let global = self.global_of(s, local);
                let ledger = &mut stripe.vms[local];
                if let Some(caps) = capacities {
                    ledger.capacity = caps[global];
                }
                ledger.committed = committed[global];
                ledger.reserved = ResourceVector::ZERO;
                ledger.epoch += 1;
                ledger.writer = SlotWriter::Idle;
            }
            // Every headroom changed at once; per-entry repositioning would
            // be wasted work, so drop the index and rebuild lazily.
            stripe.index = None;
        }
    }

    /// Sets one VM's capacity mid-slot — the crash/recovery primitive. If
    /// the new capacity no longer covers the VM's commitments and open
    /// holds (a crash), the durable commitments are wiped (they died with
    /// the VM) and every open hold on it is aborted, so the no-overcommit
    /// invariant holds by construction. The VM's writer mark resets either
    /// way: whatever a shard knew about this VM predates the rebase, so a
    /// later fast commit must revalidate rather than trust a stale mark.
    /// Returns `false` for an unknown VM.
    pub fn set_capacity(&self, vm: usize, capacity: ResourceVector) -> bool {
        if vm >= self.num_vms {
            return false;
        }
        let local = self.local_of(vm);
        let mut stripe = self.stripes[self.stripe_of(vm)].lock();
        stripe.vms[local].capacity = capacity;
        stripe.vms[local].epoch += 1;
        stripe.vms[local].writer = SlotWriter::Idle;
        let ledger = &stripe.vms[local];
        if (ledger.committed + ledger.reserved).fits_within(&capacity) {
            stripe.touch_index(local);
            return true;
        }
        stripe.vms[local].committed = ResourceVector::ZERO;
        stripe.vms[local].reserved = ResourceVector::ZERO;
        let stale: Vec<u64> = stripe
            .open
            .iter()
            .filter(|(_, r)| r.local_vm == local)
            .map(|(&id, _)| id)
            .collect();
        stripe.counters.aborts += stale.len() as u64;
        for id in stale {
            stripe.open.remove(&id);
        }
        stripe.touch_index(local);
        true
    }

    /// Phase 1: holds `amount` on `vm` for `shard`. Admitted only if the
    /// VM's durable commitments plus all open holds still leave room.
    pub fn reserve(
        &self,
        shard: usize,
        vm: usize,
        amount: ResourceVector,
    ) -> Result<ReservationId, ReserveError> {
        if vm >= self.num_vms {
            return Err(ReserveError::UnknownVm);
        }
        let s = self.stripe_of(vm);
        let mut stripe = self.stripes[s].lock();
        self.reserve_locked(&mut stripe, s, shard, vm, amount)
    }

    /// [`reserve`](Self::reserve) under an already-held stripe lock — the
    /// shared body of the single and batched paths.
    fn reserve_locked(
        &self,
        stripe: &mut Stripe,
        stripe_idx: usize,
        shard: usize,
        vm: usize,
        amount: ResourceVector,
    ) -> Result<ReservationId, ReserveError> {
        let amount = amount.clamp_nonnegative();
        let local = self.local_of(vm);
        if !amount.fits_within(&stripe.vms[local].headroom()) {
            stripe.counters.conflicts += 1;
            return Err(ReserveError::Conflict);
        }
        let seq = stripe.next_seq;
        stripe.next_seq += 1;
        let ledger = &mut stripe.vms[local];
        ledger.reserved += amount;
        ledger.touch(shard);
        stripe.open.insert(
            seq,
            Reservation {
                local_vm: local,
                amount,
                shard,
            },
        );
        stripe.counters.reservations += 1;
        stripe.touch_index(local);
        Ok(ReservationId(
            seq * self.stripe_count as u64 + stripe_idx as u64,
        ))
    }

    /// Phase 2 commit: the hold becomes a durable commitment.
    pub fn confirm(&self, id: ReservationId) -> Result<(), TxnError> {
        let stripe_idx = (id.0 % self.stripe_count as u64) as usize;
        let mut stripe = self.stripes[stripe_idx].lock();
        Self::confirm_locked(&mut stripe, id.0 / self.stripe_count as u64)
    }

    fn confirm_locked(stripe: &mut Stripe, seq: u64) -> Result<(), TxnError> {
        let Some(r) = stripe.open.remove(&seq) else {
            return Err(TxnError::UnknownReservation);
        };
        let ledger = &mut stripe.vms[r.local_vm];
        ledger.reserved = (ledger.reserved - r.amount).clamp_nonnegative();
        ledger.committed += r.amount;
        ledger.epoch += 1;
        stripe.counters.commits += 1;
        stripe.touch_index(r.local_vm);
        Ok(())
    }

    /// Phase 2 rollback: the hold is released.
    pub fn abort(&self, id: ReservationId) -> Result<(), TxnError> {
        let stripe_idx = (id.0 % self.stripe_count as u64) as usize;
        let mut stripe = self.stripes[stripe_idx].lock();
        let seq = id.0 / self.stripe_count as u64;
        let Some(r) = stripe.open.remove(&seq) else {
            return Err(TxnError::UnknownReservation);
        };
        let ledger = &mut stripe.vms[r.local_vm];
        ledger.reserved = (ledger.reserved - r.amount).clamp_nonnegative();
        ledger.epoch += 1;
        stripe.counters.aborts += 1;
        stripe.touch_index(r.local_vm);
        Ok(())
    }

    /// Optimistic single-acquisition claim: if no *other* shard has written
    /// `vm` since the slot began and `amount` still fits its headroom, both
    /// 2PC phases are fused into one durable commit under one stripe lock.
    /// Any miss leaves the store untouched and reports why, so the caller
    /// can fall back to full ordered 2PC ([`reserve`](Self::reserve) →
    /// best-fit retry → [`confirm`](Self::confirm)):
    ///
    /// * [`FastPathMiss::Contended`] — foreign writer mark (counted as an
    ///   epoch conflict);
    /// * [`FastPathMiss::Conflict`] — the claim no longer fits (not
    ///   counted: the fallback's own reserve will count the refusal);
    /// * [`FastPathMiss::UnknownVm`] — no such VM.
    pub fn try_fast_commit(
        &self,
        shard: usize,
        vm: usize,
        amount: ResourceVector,
    ) -> Result<(), FastPathMiss> {
        if vm >= self.num_vms {
            return Err(FastPathMiss::UnknownVm);
        }
        let mut stripe = self.stripes[self.stripe_of(vm)].lock();
        self.fast_commit_locked(&mut stripe, shard, vm, amount)
    }

    fn fast_commit_locked(
        &self,
        stripe: &mut Stripe,
        shard: usize,
        vm: usize,
        amount: ResourceVector,
    ) -> Result<(), FastPathMiss> {
        let local = self.local_of(vm);
        if stripe.vms[local].writer.is_foreign_to(shard) {
            stripe.counters.epoch_conflicts += 1;
            return Err(FastPathMiss::Contended);
        }
        let amount = amount.clamp_nonnegative();
        if !amount.fits_within(&stripe.vms[local].headroom()) {
            return Err(FastPathMiss::Conflict);
        }
        let ledger = &mut stripe.vms[local];
        ledger.committed += amount;
        ledger.touch(shard);
        stripe.counters.reservations += 1;
        stripe.counters.commits += 1;
        stripe.counters.fast_commits += 1;
        stripe.touch_index(local);
        Ok(())
    }

    /// One batched phase-2 round over `ids`: grouped by owning stripe, one
    /// lock acquisition per stripe in canonical order, confirms applied in
    /// submission order within a stripe.
    pub fn confirm_batch(&self, ids: &[ReservationId]) -> Vec<Result<(), TxnError>> {
        let mut results = vec![Err(TxnError::UnknownReservation); ids.len()];
        let mut by_stripe: Vec<Vec<usize>> = vec![Vec::new(); self.stripe_count];
        for (i, id) in ids.iter().enumerate() {
            by_stripe[(id.0 % self.stripe_count as u64) as usize].push(i);
        }
        for (s, group) in by_stripe.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let mut stripe = self.stripes[s].lock();
            for &i in group {
                results[i] = Self::confirm_locked(&mut stripe, ids[i].0 / self.stripe_count as u64);
            }
        }
        results
    }

    /// Re-bases a running job's allocation on `vm` from `old` to `new`,
    /// using the engine's own validation arithmetic (`committed - old +
    /// new`, clamped, must fit capacity net of open holds). Returns whether
    /// the adjustment was applied; a refusal counts as a conflict.
    ///
    /// Adjustments are coordinator-ordered *before* the placement rounds,
    /// so they bump the VM's epoch but leave its writer mark alone — an
    /// adjusted VM is still fast-committable (admission under the stripe
    /// lock keeps that safe regardless).
    pub fn adjust(&self, vm: usize, old: ResourceVector, new: ResourceVector) -> bool {
        if vm >= self.num_vms {
            let mut stripe = self.stripes[self.stripe_of(vm)].lock();
            stripe.counters.conflicts += 1;
            return false;
        }
        let local = self.local_of(vm);
        let mut stripe = self.stripes[self.stripe_of(vm)].lock();
        if !new.is_nonnegative() {
            stripe.counters.conflicts += 1;
            return false;
        }
        let ledger = &stripe.vms[local];
        let candidate = (ledger.committed - old + new).clamp_nonnegative();
        if (candidate + ledger.reserved).fits_within(&ledger.capacity) {
            stripe.vms[local].committed = candidate;
            stripe.vms[local].epoch += 1;
            stripe.touch_index(local);
            true
        } else {
            stripe.counters.conflicts += 1;
            false
        }
    }

    /// Eq. 22 best-fit over the store's current headrooms: the VM fitting
    /// `demand` with the smallest unused volume relative to `reference`,
    /// ties toward the lower VM id — exactly the choice a linear scan over
    /// [`free_all`](Self::free_all) would make. Each stripe serves its
    /// candidate from an incrementally maintained sorted index (rebuilt
    /// lazily after whole-fleet rebases or when `reference` changes), and
    /// the per-stripe winners are compared by `(volume, vm id)` — within a
    /// stripe, local order is global order, so the lexicographic minimum
    /// across stripes is the fleet-wide best fit. Stripe locks are taken
    /// one at a time in canonical order.
    pub fn best_fit(&self, demand: &ResourceVector, reference: &ResourceVector) -> Option<usize> {
        let floor = demand.volume(reference).to_bits();
        let mut best: Option<(f64, usize)> = None;
        for (s, stripe) in self.stripes.iter().enumerate() {
            let mut stripe = stripe.lock();
            let stale = match &stripe.index {
                Some((built_against, _)) => built_against != reference,
                None => true,
            };
            if stale {
                let headrooms: Vec<ResourceVector> =
                    stripe.vms.iter().map(VmLedger::headroom).collect();
                stripe.index = Some((*reference, VolumeIndex::new(&headrooms, reference)));
            }
            let Stripe { vms, index, .. } = &*stripe;
            let (_, idx) = index.as_ref().expect("index built above");
            // A fitting headroom dominates the demand componentwise, so its
            // volume is at least the demand's: seek straight to that floor.
            let candidate = idx.first_fit_from(floor, |i| demand.fits_within(&vms[i].headroom()));
            if let Some(local) = candidate {
                let volume = vms[local].headroom().volume(reference);
                let global = self.global_of(s, local);
                let better = match best {
                    None => true,
                    Some((bv, bg)) => volume < bv || (volume == bv && global < bg),
                };
                if better {
                    best = Some((volume, global));
                }
            }
        }
        best.map(|(_, g)| g)
    }

    /// Capacity net of durable commitments and open holds on one VM.
    pub fn free(&self, vm: usize) -> Option<ResourceVector> {
        if vm >= self.num_vms {
            return None;
        }
        let stripe = self.stripes[self.stripe_of(vm)].lock();
        Some(stripe.vms[self.local_of(vm)].headroom())
    }

    /// [`free`](Self::free) for the whole fleet, VM-id ordered.
    pub fn free_all(&self) -> Vec<ResourceVector> {
        let mut all = vec![ResourceVector::ZERO; self.num_vms];
        for (s, stripe) in self.stripes.iter().enumerate() {
            let stripe = stripe.lock();
            for (local, ledger) in stripe.vms.iter().enumerate() {
                all[self.global_of(s, local)] = ledger.headroom();
            }
        }
        all
    }

    /// The per-VM mutation epoch (monotone over the store's lifetime), or
    /// `None` for an unknown VM. Exposed for tests and benches asserting
    /// fast-path behavior.
    pub fn vm_epoch(&self, vm: usize) -> Option<u64> {
        if vm >= self.num_vms {
            return None;
        }
        let stripe = self.stripes[self.stripe_of(vm)].lock();
        Some(stripe.vms[self.local_of(vm)].epoch)
    }

    /// Number of VMs under arbitration.
    pub fn num_vms(&self) -> usize {
        self.num_vms
    }

    /// Number of open (neither confirmed nor aborted) reservations.
    pub fn outstanding(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().open.len()).sum()
    }

    /// Snapshot of the lifetime counters (summed across stripes, canonical
    /// stripe order).
    pub fn counters(&self) -> StoreCounters {
        let mut total = StoreCounters::default();
        for stripe in &self.stripes {
            total.add(&stripe.lock().counters);
        }
        total
    }

    /// Checks the no-overcommit invariant on every VM: durable commitments
    /// plus open holds never exceed capacity (within `eps` of float
    /// accumulation slack per resource).
    pub fn holds_invariants(&self, eps: f64) -> bool {
        self.stripes.iter().all(|stripe| {
            stripe.lock().vms.iter().all(|ledger| {
                let total = ledger.committed + ledger.reserved;
                (0..total.as_array().len()).all(|k| total[k] <= ledger.capacity[k] + eps)
                    && ledger.committed.is_nonnegative()
                    && ledger.reserved.is_nonnegative()
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rv(a: f64, b: f64, c: f64) -> ResourceVector {
        ResourceVector::new([a, b, c])
    }

    fn store_one_vm() -> PlacementStore {
        PlacementStore::new(vec![rv(4.0, 16.0, 180.0)])
    }

    #[test]
    fn reserve_confirm_commits_capacity() {
        let store = store_one_vm();
        let id = store.reserve(0, 0, rv(2.0, 8.0, 90.0)).unwrap();
        assert_eq!(store.outstanding(), 1);
        store.confirm(id).unwrap();
        assert_eq!(store.outstanding(), 0);
        assert_eq!(store.free(0).unwrap(), rv(2.0, 8.0, 90.0));
        let c = store.counters();
        assert_eq!(
            (c.reservations, c.commits, c.conflicts, c.aborts),
            (1, 1, 0, 0)
        );
    }

    #[test]
    fn reserve_abort_releases_hold() {
        let store = store_one_vm();
        let id = store.reserve(0, 0, rv(4.0, 16.0, 180.0)).unwrap();
        store.abort(id).unwrap();
        assert_eq!(store.free(0).unwrap(), rv(4.0, 16.0, 180.0));
        let c = store.counters();
        assert_eq!((c.reservations, c.commits, c.aborts), (1, 0, 1));
    }

    #[test]
    fn open_holds_block_conflicting_reservations() {
        let store = store_one_vm();
        let _held = store.reserve(0, 0, rv(3.0, 1.0, 1.0)).unwrap();
        // A second reservation exceeding the remaining CPU must conflict
        // even though nothing is durably committed yet.
        assert_eq!(
            store.reserve(1, 0, rv(2.0, 1.0, 1.0)),
            Err(ReserveError::Conflict)
        );
        assert_eq!(store.counters().conflicts, 1);
        assert!(store.holds_invariants(1e-9));
    }

    #[test]
    fn double_confirm_and_unknown_ids_are_rejected() {
        let store = store_one_vm();
        let id = store.reserve(0, 0, rv(1.0, 1.0, 1.0)).unwrap();
        store.confirm(id).unwrap();
        assert_eq!(store.confirm(id), Err(TxnError::UnknownReservation));
        assert_eq!(store.abort(id), Err(TxnError::UnknownReservation));
        assert_eq!(
            store.reserve(0, 9, rv(1.0, 1.0, 1.0)),
            Err(ReserveError::UnknownVm)
        );
    }

    #[test]
    fn begin_slot_rebases_and_aborts_stale_holds() {
        let store = store_one_vm();
        let _stale = store.reserve(0, 0, rv(1.0, 1.0, 1.0)).unwrap();
        store.begin_slot(&[rv(1.0, 4.0, 45.0)]);
        assert_eq!(store.outstanding(), 0);
        assert_eq!(store.counters().aborts, 1);
        assert_eq!(store.free(0).unwrap(), rv(3.0, 12.0, 135.0));
    }

    #[test]
    fn adjust_applies_engine_arithmetic() {
        let store = store_one_vm();
        let id = store.reserve(0, 0, rv(2.0, 2.0, 2.0)).unwrap();
        store.confirm(id).unwrap();
        // Shrink 2 -> 1 CPU.
        assert!(store.adjust(0, rv(2.0, 2.0, 2.0), rv(1.0, 2.0, 2.0)));
        assert_eq!(store.free(0).unwrap(), rv(3.0, 14.0, 178.0));
        // Growing past capacity is refused and counted.
        assert!(!store.adjust(0, rv(1.0, 2.0, 2.0), rv(9.0, 2.0, 2.0)));
        assert_eq!(store.counters().conflicts, 1);
        assert!(store.holds_invariants(1e-9));
    }

    #[test]
    fn begin_slot_full_rebases_capacities() {
        let store = store_one_vm();
        // The VM crashed: zero capacity, nothing committed.
        store.begin_slot_full(&[ResourceVector::ZERO], &[ResourceVector::ZERO]);
        assert_eq!(
            store.reserve(0, 0, rv(1.0, 1.0, 1.0)),
            Err(ReserveError::Conflict)
        );
        // Recovery restores nominal capacity.
        store.begin_slot_full(&[rv(4.0, 16.0, 180.0)], &[ResourceVector::ZERO]);
        assert!(store.reserve(0, 0, rv(1.0, 1.0, 1.0)).is_ok());
        assert!(store.holds_invariants(1e-9));
    }

    #[test]
    fn set_capacity_crash_wipes_commitments_and_aborts_holds() {
        let store = store_one_vm();
        let committed = store.reserve(0, 0, rv(2.0, 2.0, 2.0)).unwrap();
        store.confirm(committed).unwrap();
        let open = store.reserve(0, 0, rv(1.0, 1.0, 1.0)).unwrap();
        // Crash: zero capacity can no longer cover the ledger.
        assert!(store.set_capacity(0, ResourceVector::ZERO));
        assert!(store.holds_invariants(1e-9));
        assert_eq!(store.outstanding(), 0, "open hold died with the VM");
        assert_eq!(store.confirm(open), Err(TxnError::UnknownReservation));
        // Recovery on an emptied ledger changes nothing but capacity.
        assert!(store.set_capacity(0, rv(4.0, 16.0, 180.0)));
        assert_eq!(store.free(0).unwrap(), rv(4.0, 16.0, 180.0));
        assert!(!store.set_capacity(7, ResourceVector::ZERO), "unknown VM");
    }

    #[test]
    fn racing_reservations_never_overcommit() {
        use std::sync::Arc;
        // 8 threads fight for one VM that fits exactly 4 unit reservations;
        // every interleaving must commit at most 4.
        let store = Arc::new(PlacementStore::new(vec![rv(4.0, 4.0, 4.0)]));
        std::thread::scope(|s| {
            for shard in 0..8 {
                let store = Arc::clone(&store);
                s.spawn(move || {
                    if let Ok(id) = store.reserve(shard, 0, rv(1.0, 1.0, 1.0)) {
                        store.confirm(id).unwrap();
                    }
                });
            }
        });
        let c = store.counters();
        assert_eq!(c.commits, 4, "{c:?}");
        assert_eq!(c.conflicts, 4, "{c:?}");
        assert!(store.holds_invariants(1e-9));
        assert_eq!(store.free(0).unwrap(), rv(0.0, 0.0, 0.0));
    }

    // ---- striping, batching, and fast-path semantics ----

    fn striped_fleet(vms: usize, stripes: usize) -> PlacementStore {
        PlacementStore::with_stripes(vec![rv(4.0, 4.0, 4.0); vms], stripes)
    }

    #[test]
    fn stripe_count_is_clamped_to_the_fleet() {
        assert_eq!(striped_fleet(3, 8).stripe_count(), 3);
        assert_eq!(striped_fleet(32, 4).stripe_count(), 4);
        assert_eq!(
            PlacementStore::with_stripes(Vec::new(), 7).stripe_count(),
            1
        );
        assert_eq!(store_one_vm().stripe_count(), 1);
    }

    #[test]
    fn cross_stripe_operations_route_by_vm_id() {
        let store = striped_fleet(10, 4);
        // VMs 2 and 6 share stripe 2; VM 3 lives on stripe 3.
        let a = store.reserve(0, 2, rv(1.0, 1.0, 1.0)).unwrap();
        let b = store.reserve(1, 6, rv(2.0, 2.0, 2.0)).unwrap();
        let c = store.reserve(2, 3, rv(3.0, 3.0, 3.0)).unwrap();
        assert_eq!(store.outstanding(), 3);
        store.confirm(a).unwrap();
        store.abort(b).unwrap();
        store.confirm(c).unwrap();
        assert_eq!(store.free(2).unwrap(), rv(3.0, 3.0, 3.0));
        assert_eq!(store.free(6).unwrap(), rv(4.0, 4.0, 4.0));
        assert_eq!(store.free(3).unwrap(), rv(1.0, 1.0, 1.0));
        assert!(store.holds_invariants(1e-9));
    }

    #[test]
    fn fast_commit_hits_on_uncontended_vms() {
        let store = striped_fleet(8, 4);
        store.try_fast_commit(0, 5, rv(1.0, 1.0, 1.0)).unwrap();
        // Same shard again: still uncontended from shard 0's perspective.
        store.try_fast_commit(0, 5, rv(1.0, 1.0, 1.0)).unwrap();
        assert_eq!(store.free(5).unwrap(), rv(2.0, 2.0, 2.0));
        let c = store.counters();
        assert_eq!((c.fast_commits, c.commits, c.reservations), (2, 2, 2));
        assert_eq!(c.epoch_conflicts, 0);
        assert!(store.holds_invariants(1e-9));
    }

    #[test]
    fn foreign_writer_forces_fallback_to_full_2pc() {
        let store = striped_fleet(4, 2);
        store.try_fast_commit(0, 1, rv(1.0, 1.0, 1.0)).unwrap();
        assert_eq!(
            store.try_fast_commit(3, 1, rv(1.0, 1.0, 1.0)),
            Err(FastPathMiss::Contended)
        );
        assert_eq!(store.counters().epoch_conflicts, 1);
        // The fallback 2PC path still admits the claim — contention marks
        // are a routing decision, not a capacity one.
        let id = store.reserve(3, 1, rv(1.0, 1.0, 1.0)).unwrap();
        store.confirm(id).unwrap();
        assert_eq!(store.free(1).unwrap(), rv(2.0, 2.0, 2.0));
        // A slot rebase clears writer marks: fast path works again.
        store.begin_slot(&[ResourceVector::ZERO; 4]);
        store.try_fast_commit(3, 1, rv(1.0, 1.0, 1.0)).unwrap();
        assert!(store.holds_invariants(1e-9));
    }

    #[test]
    fn fast_commit_misses_cleanly_on_capacity_and_unknown_vms() {
        let store = striped_fleet(2, 2);
        assert_eq!(
            store.try_fast_commit(0, 0, rv(9.0, 1.0, 1.0)),
            Err(FastPathMiss::Conflict)
        );
        assert_eq!(
            store.try_fast_commit(0, 7, rv(1.0, 1.0, 1.0)),
            Err(FastPathMiss::UnknownVm)
        );
        let c = store.counters();
        assert_eq!((c.fast_commits, c.commits, c.conflicts), (0, 0, 0));
        assert_eq!(store.free(0).unwrap(), rv(4.0, 4.0, 4.0), "miss is a no-op");
    }

    #[test]
    fn crash_rebase_resets_writer_marks_but_fast_path_revalidates() {
        let store = striped_fleet(2, 2);
        store.try_fast_commit(0, 0, rv(3.0, 3.0, 3.0)).unwrap();
        // Crash wipes the ledger and the writer mark...
        assert!(store.set_capacity(0, ResourceVector::ZERO));
        // ...so a foreign shard may try the fast path, but admission still
        // validates against the wiped capacity.
        assert_eq!(
            store.try_fast_commit(1, 0, rv(1.0, 1.0, 1.0)),
            Err(FastPathMiss::Conflict)
        );
        assert!(store.set_capacity(0, rv(4.0, 4.0, 4.0)));
        store.try_fast_commit(1, 0, rv(1.0, 1.0, 1.0)).unwrap();
        assert!(store.holds_invariants(1e-9));
    }

    #[test]
    fn epochs_advance_on_every_mutation() {
        let store = striped_fleet(2, 2);
        let e0 = store.vm_epoch(0).unwrap();
        let id = store.reserve(0, 0, rv(1.0, 1.0, 1.0)).unwrap();
        let e1 = store.vm_epoch(0).unwrap();
        assert!(e1 > e0);
        store.confirm(id).unwrap();
        assert!(store.vm_epoch(0).unwrap() > e1);
        assert_eq!(store.vm_epoch(9), None);
    }

    #[test]
    fn batched_rounds_match_sequential_semantics() {
        let store = striped_fleet(6, 3);
        let unit = rv(1.0, 1.0, 1.0);
        let results: Vec<_> = [
            (0, unit),
            (3, unit),
            (1, rv(9.0, 1.0, 1.0)),
            (9, unit),
            (0, unit),
        ]
        .into_iter()
        .map(|(vm, amount)| store.reserve(0, vm, amount))
        .collect();
        assert!(results[0].is_ok());
        assert!(results[1].is_ok());
        assert_eq!(results[2], Err(ReserveError::Conflict));
        assert_eq!(results[3], Err(ReserveError::UnknownVm));
        assert!(results[4].is_ok(), "same-VM requests apply in order");
        assert_eq!(store.outstanding(), 3);
        let ids: Vec<ReservationId> = results.into_iter().flatten().collect();
        let confirmed = store.confirm_batch(&ids);
        assert!(confirmed.iter().all(Result::is_ok));
        assert_eq!(
            store.confirm_batch(&ids)[0],
            Err(TxnError::UnknownReservation),
            "double confirm rejected batch-wise too"
        );
        assert_eq!(store.free(0).unwrap(), rv(2.0, 2.0, 2.0));
        let c = store.counters();
        assert_eq!((c.reservations, c.commits, c.conflicts), (3, 3, 1));
        assert!(store.holds_invariants(1e-9));
    }

    #[test]
    fn racing_fast_commits_never_overcommit() {
        use std::sync::Arc;
        // 8 shards race fast commits across 4 VMs on 2 stripes; whatever
        // interleaving of hits/misses occurs, capacity is never exceeded.
        let store = Arc::new(striped_fleet(4, 2));
        std::thread::scope(|s| {
            for shard in 0..8 {
                let store = Arc::clone(&store);
                s.spawn(move || {
                    for vm in 0..4 {
                        if store.try_fast_commit(shard, vm, rv(1.0, 1.0, 1.0)).is_err() {
                            if let Ok(id) = store.reserve(shard, vm, rv(1.0, 1.0, 1.0)) {
                                store.confirm(id).unwrap();
                            }
                        }
                    }
                });
            }
        });
        assert!(store.holds_invariants(1e-9));
        let c = store.counters();
        assert_eq!(c.commits + c.aborts, c.reservations, "{c:?}");
        assert_eq!(c.commits, 16, "4 VMs x 4 unit claims each: {c:?}");
    }

    #[test]
    fn striped_best_fit_prefers_smallest_volume_then_lowest_id() {
        let reference = rv(4.0, 4.0, 4.0);
        let store = PlacementStore::with_stripes(
            vec![
                rv(4.0, 4.0, 4.0), // vm 0, stripe 0
                rv(2.0, 2.0, 2.0), // vm 1, stripe 1 — tightest fit
                rv(3.0, 3.0, 3.0), // vm 2, stripe 2
                rv(2.0, 2.0, 2.0), // vm 3, stripe 0 — ties with vm 1
            ],
            3,
        );
        let demand = rv(1.0, 1.0, 1.0);
        assert_eq!(
            store.best_fit(&demand, &reference),
            Some(1),
            "volume tie between vm 1 and vm 3 resolves to the lower id"
        );
        // Commit vm 1 full: the tie-partner on another stripe wins next.
        store.try_fast_commit(0, 1, rv(2.0, 2.0, 2.0)).unwrap();
        assert_eq!(store.best_fit(&demand, &reference), Some(3));
    }
}
