//! The coordinator's capacity ledger.
//!
//! Scheduler shards *propose* placements in parallel, but only the
//! coordinator applies them, one claim at a time in a fixed order. The
//! [`PlacementStore`] is that coordinator's ledger: it is owned by the
//! [`ShardedProvisioner`](crate::ShardedProvisioner) and mutated through
//! `&mut self`, so exclusivity is enforced by the borrow checker instead
//! of locks, and no claim can ever observe another half-applied.
//!
//! Every slot starts with [`PlacementStore::begin_slot`], which rebases
//! per-VM capacities and commitments from the engine's fleet view (a
//! crashed VM arrives with zero capacity and rejoins at nominal on
//! recovery). A [`claim`](PlacementStore::claim) then lands on the VM its
//! shard proposed if that VM still fits, else on the Eq. 22 smallest-volume
//! best fit over the ledger's headrooms, else aborts: the job stays
//! pending and its shard re-proposes it next slot. Because admission is
//! always checked against the live headroom, a store-approved plan never
//! overcommits a VM and never trips the engine's validators.
//!
//! A per-VM writer mark records which shard(s) claimed on the VM this slot.
//! It decides only accounting, never outcomes: a claim on a VM no other
//! shard has written, that fits, is a *fast-path hit*; every other claim
//! counts toward `stripe_conflicts` (when another shard wrote the VM) and
//! marks the slot as a fallback round.
//!
//! Allocation adjustments to running jobs go through
//! [`PlacementStore::adjust`], which applies the engine's own rebase
//! arithmetic so a store-approved adjustment is engine-valid by
//! construction.

use corp_core::pipeline::Claim;
use corp_core::VolumeIndex;
use corp_sim::{ResourceVector, VmView};

/// Monotone counters over the store's whole lifetime (slots accumulate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Claims admitted, each one committed in the same step.
    pub commits: u64,
    /// Admission refusals: claims whose proposed VM no longer fit, and
    /// denied adjustments.
    pub conflicts: u64,
    /// Claims that landed on their proposed VM while no other shard had
    /// written it this slot.
    pub fast_path_hits: u64,
    /// Claims whose proposed VM another shard had already written this
    /// slot.
    pub stripe_conflicts: u64,
    /// Slots in which at least one claim was not a fast-path hit.
    pub fallback_rounds: u64,
}

/// Which shard(s) have claimed on a VM since the slot began.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotWriter {
    Idle,
    One(usize),
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

    fn is_foreign_to(self, shard: usize) -> bool {
        match self {
            SlotWriter::Idle => false,
            SlotWriter::One(s) => s != shard,
            SlotWriter::Contended => true,
        }
    }
}

/// Single-owner capacity ledger for a VM fleet (see module docs).
#[derive(Debug, Default)]
pub struct PlacementStore {
    capacity: Vec<ResourceVector>,
    /// Engine commitments at slot start plus this slot's fast-path claims.
    committed: Vec<ResourceVector>,
    /// This slot's other claims. Kept apart from `committed` so headroom
    /// is `capacity - (committed + held)`, the same float sums in the same
    /// order as the two-phase store the golden reports were pinned with
    /// (commitments plus open holds). Under CORP at 2 shards nearly half
    /// of all claims take this route; folding them into `committed` would
    /// reassociate those sums, and a headroom that rounds differently in
    /// its last bit can flip a fit or a best-fit tie.
    held: Vec<ResourceVector>,
    writer: Vec<SlotWriter>,
    /// Eq. 22 index over headrooms and the reference it was built against;
    /// dropped at every rebase and rebuilt on the slot's first retry.
    index: Option<(ResourceVector, VolumeIndex)>,
    fell_back: bool,
    counters: StoreCounters,
}

impl PlacementStore {
    /// An empty ledger; [`begin_slot`](Self::begin_slot) sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebases every VM's capacity and commitments from the engine's fleet
    /// view (VM `i` is `vms[i]`), clearing this slot's claims and writer
    /// marks. Counters persist across slots.
    pub fn begin_slot(&mut self, vms: &[VmView]) {
        self.capacity.clear();
        self.capacity.extend(vms.iter().map(|vm| vm.capacity));
        self.committed.clear();
        self.committed.extend(vms.iter().map(|vm| vm.committed));
        self.held.clear();
        self.held.resize(vms.len(), ResourceVector::ZERO);
        self.writer.clear();
        self.writer.resize(vms.len(), SlotWriter::Idle);
        self.index = None;
        self.fell_back = false;
    }

    /// Places `amount` for `shard`: on `vm` if it fits, else on the Eq. 22
    /// best fit relative to `reference` (one retry), else nowhere. An
    /// unknown `vm` aborts without a conflict. A refused claim changes no
    /// capacity.
    pub fn claim(
        &mut self,
        shard: usize,
        vm: usize,
        amount: ResourceVector,
        reference: &ResourceVector,
    ) -> Claim {
        let mut claim = Claim::direct(None);
        let amount = amount.clamp_nonnegative();
        let Some(&writer) = self.writer.get(vm) else {
            self.note_fallback();
            return claim;
        };
        let foreign = writer.is_foreign_to(shard);
        let fits = amount.fits_within(&self.headroom(vm));
        if !foreign && fits {
            self.committed[vm] += amount;
            self.counters.fast_path_hits += 1;
            claim.vm = Some(self.admit(shard, vm));
            return claim;
        }
        self.note_fallback();
        if foreign {
            self.counters.stripe_conflicts += 1;
        }
        let target = if fits {
            Some(vm)
        } else {
            self.counters.conflicts += 1;
            claim.conflicts = 1;
            let best = self.best_fit(&amount, reference);
            claim.retries = u64::from(best.is_some());
            best
        };
        if let Some(target) = target {
            self.held[target] += amount;
            claim.vm = Some(self.admit(shard, target));
        }
        claim
    }

    fn note_fallback(&mut self) {
        if !self.fell_back {
            self.fell_back = true;
            self.counters.fallback_rounds += 1;
        }
    }

    /// Bookkeeping shared by both claim routes, after the amount landed.
    fn admit(&mut self, shard: usize, vm: usize) -> usize {
        self.writer[vm].note(shard);
        self.counters.commits += 1;
        self.touch_index(vm);
        vm
    }

    /// Rebases a running job's allocation on `vm` from `old` to `new`
    /// with the engine's arithmetic (`committed - old + new`, clamped,
    /// must fit capacity net of this slot's claims). Returns whether it
    /// applied; a refusal counts as a conflict.
    pub fn adjust(&mut self, vm: usize, old: ResourceVector, new: ResourceVector) -> bool {
        if vm >= self.capacity.len() || !new.is_nonnegative() {
            self.counters.conflicts += 1;
            return false;
        }
        let candidate = (self.committed[vm] - old + new).clamp_nonnegative();
        if !(candidate + self.held[vm]).fits_within(&self.capacity[vm]) {
            self.counters.conflicts += 1;
            return false;
        }
        self.committed[vm] = candidate;
        self.touch_index(vm);
        true
    }

    fn headroom(&self, vm: usize) -> ResourceVector {
        self.capacity[vm].saturating_sub(&(self.committed[vm] + self.held[vm]))
    }

    fn touch_index(&mut self, vm: usize) {
        let headroom = self.headroom(vm);
        if let Some((reference, index)) = self.index.as_mut() {
            index.update(vm, &headroom, reference);
        }
    }

    /// Eq. 22 best fit over the current headrooms: the VM fitting `demand`
    /// with the smallest unused volume relative to `reference`, ties
    /// toward the lower VM id.
    pub fn best_fit(
        &mut self,
        demand: &ResourceVector,
        reference: &ResourceVector,
    ) -> Option<usize> {
        if self.index.as_ref().map(|(built, _)| built) != Some(reference) {
            let headrooms: Vec<ResourceVector> = (0..self.capacity.len())
                .map(|vm| self.headroom(vm))
                .collect();
            self.index = Some((*reference, VolumeIndex::new(&headrooms, reference)));
        }
        let (_, index) = self.index.as_ref()?;
        // A fitting headroom dominates the demand componentwise, so its
        // volume is at least the demand's: seek straight to that floor.
        index.first_fit_from(demand.volume(reference).to_bits(), |vm| {
            demand.fits_within(&self.headroom(vm))
        })
    }

    /// Capacity net of commitments and this slot's claims on one VM.
    pub fn free(&self, vm: usize) -> Option<ResourceVector> {
        (vm < self.capacity.len()).then(|| self.headroom(vm))
    }

    /// Number of VMs in the ledger.
    pub fn num_vms(&self) -> usize {
        self.capacity.len()
    }

    /// Snapshot of the lifetime counters.
    pub fn counters(&self) -> StoreCounters {
        self.counters
    }

    /// Checks the no-overcommit invariant on every VM: commitments plus
    /// this slot's claims never exceed capacity (within `eps` of float
    /// accumulation slack per resource).
    pub fn holds_invariants(&self, eps: f64) -> bool {
        (0..self.capacity.len()).all(|vm| {
            let total = self.committed[vm] + self.held[vm];
            (0..total.as_array().len()).all(|k| total[k] <= self.capacity[vm][k] + eps)
                && self.committed[vm].is_nonnegative()
                && self.held[vm].is_nonnegative()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rv(a: f64, b: f64, c: f64) -> ResourceVector {
        ResourceVector::new([a, b, c])
    }

    /// Nominal VM capacity, also the Eq. 22 reference.
    fn big() -> ResourceVector {
        rv(4.0, 16.0, 180.0)
    }

    fn view(capacity: ResourceVector, committed: ResourceVector) -> VmView {
        VmView {
            id: 0,
            capacity,
            committed,
            free: capacity.saturating_sub(&committed),
            jobs: Vec::new(),
            unused_history: Vec::new(),
        }
    }

    /// A ledger over VMs with the given capacities, all uncommitted.
    fn ledger(capacities: &[ResourceVector]) -> PlacementStore {
        let mut store = PlacementStore::new();
        let vms: Vec<VmView> = capacities
            .iter()
            .map(|&c| view(c, ResourceVector::ZERO))
            .collect();
        store.begin_slot(&vms);
        store
    }

    #[test]
    fn reserve_confirm_commits_capacity() {
        // A claim reserves and confirms in one step: the capacity is
        // committed as soon as it returns.
        let mut store = ledger(&[big()]);
        let claim = store.claim(0, 0, rv(2.0, 8.0, 90.0), &big());
        assert_eq!((claim.vm, claim.conflicts, claim.retries), (Some(0), 0, 0));
        assert_eq!(store.free(0).unwrap(), rv(2.0, 8.0, 90.0));
        let c = store.counters();
        assert_eq!((c.commits, c.conflicts, c.fast_path_hits), (1, 0, 1));
        assert!(store.holds_invariants(1e-9));
    }

    #[test]
    fn fast_commit_hits_on_uncontended_vms() {
        let mut store = ledger(&[big(), big()]);
        let claim = store.claim(0, 1, rv(2.0, 8.0, 90.0), &big());
        assert_eq!((claim.vm, claim.conflicts, claim.retries), (Some(1), 0, 0));
        // Same shard again: still uncontended from shard 0's perspective.
        assert_eq!(store.claim(0, 1, rv(1.0, 1.0, 1.0), &big()).vm, Some(1));
        assert_eq!(store.free(1).unwrap(), rv(1.0, 7.0, 89.0));
        let c = store.counters();
        assert_eq!((c.commits, c.fast_path_hits), (2, 2));
        assert_eq!((c.stripe_conflicts, c.fallback_rounds), (0, 0));
        assert!(store.holds_invariants(1e-9));
    }

    #[test]
    fn foreign_writer_forces_the_fallback_route() {
        let mut store = ledger(&[big()]);
        store.claim(0, 0, rv(1.0, 1.0, 1.0), &big());
        // Shard 1 still lands on the VM (it fits), but off the fast path:
        // the writer mark routes accounting, never outcomes.
        let claim = store.claim(1, 0, rv(1.0, 1.0, 1.0), &big());
        assert_eq!((claim.vm, claim.conflicts, claim.retries), (Some(0), 0, 0));
        store.claim(1, 0, rv(1.0, 1.0, 1.0), &big());
        let c = store.counters();
        assert_eq!((c.commits, c.fast_path_hits), (3, 1));
        assert_eq!((c.stripe_conflicts, c.fallback_rounds), (2, 1));
        assert_eq!(store.free(0).unwrap(), rv(1.0, 13.0, 177.0));
        // A slot rebase clears writer marks: the fast path works again.
        store.begin_slot(&[view(big(), ResourceVector::ZERO)]);
        store.claim(1, 0, rv(1.0, 1.0, 1.0), &big());
        assert_eq!(store.counters().fast_path_hits, 2);
    }

    #[test]
    fn open_holds_block_conflicting_reservations() {
        let mut store = ledger(&[big(), big()]);
        store.claim(0, 0, rv(1.0, 1.0, 1.0), &big());
        // Shard 1's claim lands in the held column...
        store.claim(1, 0, rv(2.0, 1.0, 1.0), &big());
        // ...and blocks headroom exactly like a commitment: one more CPU
        // than is left moves the next claim onto VM 1.
        let claim = store.claim(0, 0, rv(2.0, 1.0, 1.0), &big());
        assert_eq!((claim.vm, claim.conflicts, claim.retries), (Some(1), 1, 1));
        assert_eq!(store.counters().conflicts, 1);
        assert!(store.holds_invariants(1e-9));
    }

    #[test]
    fn misfit_retries_once_onto_the_best_fit() {
        let mut store = ledger(&[rv(1.0, 16.0, 180.0), big(), rv(2.0, 16.0, 180.0)]);
        let claim = store.claim(0, 0, rv(2.0, 1.0, 1.0), &big());
        assert_eq!(
            (claim.vm, claim.conflicts, claim.retries),
            (Some(2), 1, 1),
            "tightest fitting VM wins"
        );
        let c = store.counters();
        assert_eq!((c.commits, c.conflicts, c.fallback_rounds), (1, 1, 1));
        assert!(store.holds_invariants(1e-9));
    }

    #[test]
    fn fast_commit_misses_cleanly_on_capacity_and_unknown_vms() {
        let mut store = ledger(&[rv(1.0, 1.0, 1.0)]);
        let refused = store.claim(0, 0, rv(2.0, 1.0, 1.0), &big());
        assert_eq!(
            (refused.vm, refused.conflicts, refused.retries),
            (None, 1, 0)
        );
        let unknown = store.claim(0, 9, rv(1.0, 1.0, 1.0), &big());
        assert_eq!((unknown.vm, unknown.conflicts), (None, 0));
        assert_eq!(store.free(0).unwrap(), rv(1.0, 1.0, 1.0), "miss is a no-op");
        assert_eq!(store.free(9), None);
        let c = store.counters();
        assert_eq!((c.commits, c.fast_path_hits, c.conflicts), (0, 0, 1));
    }

    #[test]
    fn begin_slot_rebases_and_drops_held_claims() {
        let mut store = ledger(&[big()]);
        store.claim(0, 0, rv(1.0, 1.0, 1.0), &big());
        store.claim(1, 0, rv(1.0, 1.0, 1.0), &big());
        store.begin_slot(&[view(big(), rv(1.0, 4.0, 45.0))]);
        assert_eq!(store.free(0).unwrap(), rv(3.0, 12.0, 135.0));
        assert_eq!(store.counters().commits, 2, "counters persist");
    }

    #[test]
    fn begin_slot_full_rebases_capacities() {
        let mut store = ledger(&[big()]);
        // The VM crashed: zero capacity, nothing committed.
        store.begin_slot(&[view(ResourceVector::ZERO, ResourceVector::ZERO)]);
        assert_eq!(store.free(0).unwrap(), ResourceVector::ZERO);
        let refused = store.claim(0, 0, rv(1.0, 1.0, 1.0), &big());
        assert_eq!((refused.vm, refused.conflicts), (None, 1));
        // Recovery restores nominal capacity.
        store.begin_slot(&[view(big(), ResourceVector::ZERO)]);
        assert_eq!(store.free(0).unwrap(), big());
        assert_eq!(store.claim(0, 0, rv(1.0, 1.0, 1.0), &big()).vm, Some(0));
        assert!(store.holds_invariants(1e-9));
    }

    #[test]
    fn set_capacity_crash_wipes_commitments_and_aborts_holds() {
        let mut store = ledger(&[big()]);
        // One committed (fast-path) claim and one held (foreign-shard) claim.
        store.claim(0, 0, rv(2.0, 2.0, 2.0), &big());
        store.claim(1, 0, rv(1.0, 1.0, 1.0), &big());
        assert_eq!(store.free(0).unwrap(), rv(1.0, 13.0, 177.0));
        // Crash: the rebase zeroes capacity and the ledger follows it.
        store.begin_slot(&[view(ResourceVector::ZERO, ResourceVector::ZERO)]);
        assert!(store.holds_invariants(1e-9));
        assert_eq!(store.free(0).unwrap(), ResourceVector::ZERO);
        // Recovery on an emptied ledger: neither the commitment nor the
        // held claim survived the crash.
        store.begin_slot(&[view(big(), ResourceVector::ZERO)]);
        assert_eq!(store.free(0).unwrap(), big());
        assert_eq!(store.free(7), None, "unknown VM");
    }

    #[test]
    fn crash_rebase_resets_writer_marks_but_fast_path_revalidates() {
        let mut store = ledger(&[big()]);
        store.claim(0, 0, rv(3.0, 3.0, 3.0), &big());
        // The VM crashed: zero capacity, nothing committed, no writer.
        store.begin_slot(&[view(ResourceVector::ZERO, ResourceVector::ZERO)]);
        // A foreign shard is off the hook for the mark, but admission still
        // validates against the wiped capacity.
        assert_eq!(store.claim(1, 0, rv(1.0, 1.0, 1.0), &big()).vm, None);
        // Recovery restores nominal capacity.
        store.begin_slot(&[view(big(), ResourceVector::ZERO)]);
        assert_eq!(store.claim(1, 0, rv(1.0, 1.0, 1.0), &big()).vm, Some(0));
        assert_eq!(store.counters().fast_path_hits, 2);
        assert!(store.holds_invariants(1e-9));
    }

    #[test]
    fn adjust_applies_engine_arithmetic() {
        let mut store = ledger(&[big()]);
        store.claim(0, 0, rv(2.0, 2.0, 2.0), &big());
        // Shrink 2 -> 1 CPU.
        assert!(store.adjust(0, rv(2.0, 2.0, 2.0), rv(1.0, 2.0, 2.0)));
        assert_eq!(store.free(0).unwrap(), rv(3.0, 14.0, 178.0));
        // Growing past capacity, a negative target and an unknown VM are
        // refused and counted.
        assert!(!store.adjust(0, rv(1.0, 2.0, 2.0), rv(9.0, 2.0, 2.0)));
        assert!(!store.adjust(0, rv(1.0, 2.0, 2.0), rv(-1.0, 2.0, 2.0)));
        assert!(!store.adjust(5, ResourceVector::ZERO, ResourceVector::ZERO));
        assert_eq!(store.counters().conflicts, 3);
        assert!(store.holds_invariants(1e-9));
    }

    #[test]
    fn best_fit_prefers_smallest_volume_then_lowest_id() {
        let reference = rv(4.0, 4.0, 4.0);
        let mut store = ledger(&[
            rv(4.0, 4.0, 4.0),
            rv(2.0, 2.0, 2.0), // tightest fit
            rv(3.0, 3.0, 3.0),
            rv(2.0, 2.0, 2.0), // ties with vm 1
        ]);
        let demand = rv(1.0, 1.0, 1.0);
        assert_eq!(
            store.best_fit(&demand, &reference),
            Some(1),
            "volume tie between vm 1 and vm 3 resolves to the lower id"
        );
        // Fill vm 1: its tie partner wins next, read from the live index.
        store.claim(0, 1, rv(2.0, 2.0, 2.0), &reference);
        assert_eq!(store.best_fit(&demand, &reference), Some(3));
    }
}
