"""Array-state Misra-Gries tracker: the batched-path hot-row tracker.

Same Figure-3 semantics and Invariant-1 guarantee as the reference
:class:`repro.track.misra_gries.MisraGriesTracker`, reorganized for the
controller's batched ``on_activation`` path:

* Counters live in stable *slots* (parallel ``_rows``/``_counts``
  arrays) instead of dict churn — an eviction reuses the victim's slot,
  so slot identity is as stable as a hardware CAM entry.
* ``observe_block`` applies a run of guaranteed-noop activations as
  bulk counter additions: each touched slot moves buckets once per
  block instead of once per activation.
* ``noop_horizon`` computes how many *future* activations are provably
  unable to land any counter on a threshold multiple — the credit the
  controller uses to defer scalar mitigation calls (DESIGN.md §9).

Tie-break policy: the reference tracker evicts an arbitrary member of
the minimum-count bucket (CPython set iteration order); this tracker
evicts the *lowest slot index*, a defined rule that is reproducible
from any implementation. Invariant 1 holds for any tie-break, and the
property tests treat tie-break differences as allowed (as they already
do for the CAT tracker). Invariant-1 sizing bounds the undercount, not
the number of distinct rows a window touches, so a full table still
spills and evicts: at epoch scale 32 and T_RH 4800 (seed 0) the RRS
trackers of the Figure-6 sweep evict 0 times on hmmer, 83,618 times on
bzip2 and 19,731 times on comm5. Only eviction-free streams are
bit-identical to the reference tracker; the rest follow the lowest-slot
rule, which the victim queue (``_pop_victim``) serves without scanning
the minimum bucket on every eviction.
"""

from __future__ import annotations

from heapq import heapify, heappop
from typing import Dict, List, Optional, Set


# repro-oracle: tracker-misra-gries -- kernel
class ArrayMisraGries:
    """Misra-Gries tracker with slot storage and block-apply support."""

    __slots__ = ("entries", "spill", "_rows", "_counts", "_slot_of",
                 "_buckets", "_min_count", "_victims", "_victims_count",
                 "_residue_t", "_residue_hist", "_residue_max")

    def __init__(self, entries: int) -> None:
        if entries <= 0:
            raise ValueError("tracker needs at least one entry")
        self.entries = entries
        self.spill = 0
        self._rows: List[int] = []  # slot -> row id
        self._counts: List[int] = []  # slot -> estimate
        self._slot_of: Dict[int, int] = {}  # row -> slot
        # Count buckets are consulted only by the full-tracker decisions
        # (spill gate, eviction tie-break), so they are built lazily on
        # the first structural event after the table fills. Until then
        # — the entire run, for Invariant-1 sized trackers over
        # workloads whose per-window row footprint fits the table —
        # installs and bumps skip all bucket/set maintenance, which
        # profiling shows dominates tracker cost on the hot path.
        self._buckets: Optional[Dict[int, Set[int]]] = None  # count -> slots
        self._min_count = 0
        # Victim queue: a min-heap over the slots of the bucket at
        # ``_victims_count``, heapified once when that bucket is first
        # drained. Slots that have since left the bucket are skipped
        # lazily; any add to the mirrored bucket drops the heap, so its
        # top live entry is always the bucket's lowest slot. Derived
        # state like the buckets: never snapshotted.
        self._victims: Optional[List[int]] = None
        self._victims_count = 0
        # Residue histogram for O(1) noop_horizon: once a threshold T is
        # seen, ``_residue_hist[r]`` counts live slots with count % T ==
        # r and ``_residue_max`` upper-bounds the largest populated
        # residue (fixed up lazily by scanning downward, <= T steps).
        # Every bump/install/evict maintains it in O(1), so the horizon
        # query never rescans the counter table — the scan that
        # otherwise dominates flush cost for small scaled T_RRS.
        self._residue_t = 0
        self._residue_hist: Optional[List[int]] = None
        self._residue_max = 0

    @classmethod
    def sized_for(cls, window_activations: int, threshold: int) -> "ArrayMisraGries":
        """Invariant-1 sizing, N > W/T - 1 (matches the reference)."""
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        return cls(entries=max(1, window_activations // threshold))

    # ------------------------------------------------------------------
    # Scalar path (the oracle's tracker operations)
    # ------------------------------------------------------------------
    def observe(self, row: int) -> int:
        """Record one activation of ``row``; returns its new estimate."""
        slot = self._slot_of.get(row)
        if slot is not None:
            count = self._counts[slot]
            self._bump(slot, count, count + 1)
            return count + 1

        if len(self._slot_of) < self.entries:
            return self._install(row, self.spill + 1)

        if self._buckets is None:
            self._build_buckets()
        if self.spill < self._min_count:
            self.spill += 1
            return 0

        # Tie: replace the lowest-indexed minimum-count slot.
        victim = self._pop_victim()
        self._evict(victim)
        return self._install(row, self.spill + 1, reuse_slot=victim)

    def estimate(self, row: int) -> int:
        """Current estimate for a row (0 if untracked)."""
        slot = self._slot_of.get(row)
        return 0 if slot is None else self._counts[slot]

    def tracked_rows(self) -> Set[int]:
        """The rows currently holding counters."""
        return set(self._slot_of)

    def rows_with_estimate_at_least(self, threshold: int) -> Set[int]:
        """Rows whose estimate has reached ``threshold``."""
        return {
            row for row, slot in self._slot_of.items()
            if self._counts[slot] >= threshold
        }

    def reset(self) -> None:
        """Window rollover: drop all counters and the spill counter."""
        self.spill = 0
        self._rows.clear()
        self._counts.clear()
        self._slot_of.clear()
        self._buckets = None
        self._min_count = 0
        self._victims = None
        self._residue_t = 0
        self._residue_hist = None
        self._residue_max = 0

    def __contains__(self, row: int) -> bool:
        return row in self._slot_of

    def __len__(self) -> int:
        return len(self._slot_of)

    # ------------------------------------------------------------------
    # Batched path
    # ------------------------------------------------------------------
    def observe_block(self, rows, count: int) -> None:
        """Apply the first ``count`` activations of ``rows`` in bulk.

        Exactness: increments of already-tracked rows commute, so they
        accumulate per slot and apply as one bucket move; any structural
        event (install / spill / eviction) flushes the accumulated
        increments first and replays scalar, preserving the reference
        operation order bit-for-bit.
        """
        slot_of = self._slot_of
        slot_rows = self._rows
        counts = self._counts
        entries = self.entries
        # Stable across the block: the residue threshold only changes
        # inside noop_horizon (never called from here).
        t = self._residue_t
        hist = self._residue_hist
        get = slot_of.get
        i = 0
        if self._buckets is None:
            # Filling phase: no bucket structure exists, so bumps and
            # installs are plain count/histogram updates applied
            # directly — the pending-dict accumulation below only pays
            # off when each touched slot saves a bucket move. Stepwise
            # histogram updates telescope to the same final histogram
            # as one bulk addition (intermediate residues cancel), and
            # _residue_max stays what it always is: an upper bound the
            # horizon query tightens lazily.
            rmax = self._residue_max
            while i < count:
                row = rows[i]
                slot = get(row)
                if slot is not None:
                    old = counts[slot]
                    counts[slot] = old + 1
                    if t:
                        old_residue = old % t
                        hist[old_residue] -= 1
                        # new = old + 1, so the new residue is the old
                        # one stepped once around the ring.
                        residue = old_residue + 1
                        if residue == t:
                            residue = 0
                        hist[residue] += 1
                        if residue > rmax:
                            rmax = residue
                elif len(slot_of) < entries:
                    estimate = self.spill + 1
                    slot_of[row] = len(slot_rows)
                    # repro-check: HOT002 -- installs happen at most `entries` times per window, not per activation
                    slot_rows.append(row)
                    counts.append(estimate)  # repro-check: HOT002 -- same bound as the row install above
                    if t:
                        residue = estimate % t
                        hist[residue] += 1
                        if residue > rmax:
                            rmax = residue
                else:
                    # The table just filled: switch to the full-table
                    # loop below without consuming this row.
                    break
                i += 1
            self._residue_max = rmax
            if i >= count:
                return
        pending: Dict[int, int] = {}
        for i in range(i, count):
            row = rows[i]
            slot = get(row)
            if slot is not None:
                pending[slot] = pending.get(slot, 0) + 1
                continue
            if pending:
                self._apply_pending(pending)
                pending = {}
            # Structural event: replay through the scalar path.
            if len(slot_of) < entries:
                self._install(row, self.spill + 1)
            else:
                if self._buckets is None:
                    self._build_buckets()
                if self.spill < self._min_count:
                    self.spill += 1
                else:
                    victim = self._pop_victim()
                    self._evict(victim)
                    self._install(row, self.spill + 1, reuse_slot=victim)
        if pending:
            self._apply_pending(pending)

    def noop_horizon(self, threshold: int) -> int:
        """Activations guaranteed not to land any estimate on a
        non-zero multiple of ``threshold``.

        Increment path: a tracked counter at ``c`` needs ``T - c % T``
        more hits to reach a multiple. Install path: an installed
        estimate is ``spill + 1`` and the spill counter grows at most
        one per activation, so after ``j`` activations every install
        estimate is at most ``spill0 + j`` — safe while that stays
        below the next multiple of T above ``spill0``.
        """
        t = threshold
        if t != self._residue_t:
            self._build_residue_hist(t)
        hist = self._residue_hist
        max_residue = self._residue_max
        while max_residue > 0 and not hist[max_residue]:
            max_residue -= 1
        self._residue_max = max_residue
        inc_safe = t - max_residue - 1
        install_safe = t - (self.spill % t) - 1
        horizon = inc_safe if inc_safe < install_safe else install_safe
        return horizon if horizon > 0 else 0

    def _build_residue_hist(self, threshold: int) -> None:
        """(Re)build the residue histogram for a new threshold — once
        per threshold per window; all later maintenance is O(1)."""
        hist = [0] * threshold
        max_residue = 0
        for count in self._counts:
            residue = count % threshold
            hist[residue] += 1
            if residue > max_residue:
                max_residue = residue
        self._residue_t = threshold
        self._residue_hist = hist
        self._residue_max = max_residue

    # ------------------------------------------------------------------
    # Snapshotable (repro.state): slots, the spill counter, and whether
    # the lazy bucket structure has materialized. Buckets, the victim
    # queue and the residue histogram are derived views — rebuilt on
    # restore (the queue on the next eviction) so a restored tracker
    # makes the same lazy/eager transitions and picks the same victims
    # at the same points an uninterrupted one would.
    # ------------------------------------------------------------------
    def snapshot_state(self) -> tuple:
        return (
            self.spill,
            list(self._rows),
            list(self._counts),
            self._buckets is not None,
            self._residue_t,
        )

    def restore_state(self, state: tuple) -> None:
        spill, rows, counts, buckets_built, residue_t = state
        self.spill = spill
        self._rows = list(rows)
        self._counts = list(counts)
        self._slot_of = {row: slot for slot, row in enumerate(self._rows)}
        self._buckets = None
        self._min_count = 0
        self._victims = None
        if buckets_built:
            self._build_buckets()
        self._residue_t = 0
        self._residue_hist = None
        self._residue_max = 0
        if residue_t:
            self._build_residue_hist(residue_t)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _build_buckets(self) -> None:
        """Materialize the count buckets once the table is full.

        Every slot is live at this point (evictions cannot have
        happened before the first build), so the buckets are exactly
        the eager structure the maintenance paths keep from here on.
        """
        buckets: Dict[int, Set[int]] = {}
        for slot, count in enumerate(self._counts):
            target = buckets.get(count)
            if target is None:
                buckets[count] = {slot}  # repro-check: HOT001 -- runs once per full-table event, not per activation
            else:
                target.add(slot)
        self._buckets = buckets
        self._min_count = min(buckets) if buckets else 0
        self._victims = None

    def _apply_pending(self, pending: Dict[int, int]) -> None:
        """Bulk counter additions: one bucket move per touched slot."""
        counts = self._counts
        buckets = self._buckets
        t = self._residue_t
        hist = self._residue_hist
        if buckets is None:
            # Filling phase: no bucket structure to maintain yet.
            residue_max = self._residue_max
            for slot, add in pending.items():
                old = counts[slot]
                new = old + add
                counts[slot] = new
                if t:
                    hist[old % t] -= 1
                    residue = new % t
                    hist[residue] += 1
                    if residue > residue_max:
                        residue_max = residue
            self._residue_max = residue_max
            return
        min_count = self._min_count
        victims_count = self._victims_count
        min_emptied = False
        for slot, add in pending.items():
            old = counts[slot]
            new = old + add
            counts[slot] = new
            bucket = buckets[old]
            bucket.discard(slot)
            if not bucket:
                del buckets[old]
                if old == min_count:
                    min_emptied = True
            target = buckets.get(new)
            if target is None:
                buckets[new] = {slot}
            else:
                target.add(slot)
            if new == victims_count:
                self._victims = None
            if t:
                hist[old % t] -= 1
                residue = new % t
                hist[residue] += 1
                if residue > self._residue_max:
                    self._residue_max = residue
        if min_emptied:
            self._min_count = min(buckets) if buckets else 0

    def _bump(self, slot: int, old: int, new: int) -> None:
        self._counts[slot] = new
        buckets = self._buckets
        if buckets is not None:
            bucket = buckets[old]
            bucket.discard(slot)
            if not bucket:
                del buckets[old]
            target = buckets.get(new)
            if target is None:
                buckets[new] = {slot}
            else:
                target.add(slot)
            if new == self._victims_count:
                self._victims = None
            if old == self._min_count and old not in buckets:
                self._min_count = min(buckets) if buckets else 0
        t = self._residue_t
        if t:
            hist = self._residue_hist
            hist[old % t] -= 1
            residue = new % t
            hist[residue] += 1
            if residue > self._residue_max:
                self._residue_max = residue

    def _install(self, row: int, count: int, reuse_slot: int = -1) -> int:
        if reuse_slot >= 0:
            slot = reuse_slot
            self._rows[slot] = row
            self._counts[slot] = count
        else:
            slot = len(self._rows)
            self._rows.append(row)
            self._counts.append(count)
        self._slot_of[row] = slot
        buckets = self._buckets
        if buckets is not None:
            target = buckets.get(count)
            if target is None:
                buckets[count] = {slot}
            else:
                target.add(slot)
            if count == self._victims_count:
                self._victims = None
            if len(self._slot_of) == 1 or count < self._min_count:
                self._min_count = count
        t = self._residue_t
        if t:
            residue = count % t
            self._residue_hist[residue] += 1
            if residue > self._residue_max:
                self._residue_max = residue
        return count

    def _pop_victim(self) -> int:
        """The lowest slot of the minimum-count bucket, taken off the
        victim queue (the caller evicts it).

        The heap is built once per minimum bucket, not per eviction:
        while a bucket is the minimum nothing joins it (full-table
        installs land at ``spill + 1 > min_count``), so the queue only
        shrinks, and stale tops — slots bumped out of the bucket since
        the heapify — are popped as they surface.
        """
        bucket = self._buckets[self._min_count]
        heap = self._victims
        if heap is None or self._victims_count != self._min_count:
            heap = list(bucket)
            heapify(heap)
            self._victims = heap
            self._victims_count = self._min_count
        slot = heappop(heap)
        while slot not in bucket:
            slot = heappop(heap)
        return slot

    def _evict(self, slot: int) -> None:
        count = self._counts[slot]
        del self._slot_of[self._rows[slot]]
        bucket = self._buckets[count]
        bucket.discard(slot)
        if not bucket:
            del self._buckets[count]
            if count == self._min_count:
                self._min_count = min(self._buckets) if self._buckets else 0
        if self._residue_t:
            self._residue_hist[count % self._residue_t] -= 1
