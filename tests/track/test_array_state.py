"""ArrayMisraGries: equivalence with the reference tracker and the
batched-path contracts (observe_block exactness, noop_horizon safety,
residue-histogram consistency, defined eviction tie-break)."""

import random

import pytest

from repro.track.array_state import ArrayMisraGries
from repro.track.misra_gries import MisraGriesTracker


def _stream(seed: int, length: int, universe: int, hot: int = 4):
    """Skewed activation stream: a few hot rows over a cold universe."""
    rng = random.Random(seed)
    hot_rows = [rng.randrange(universe) for _ in range(hot)]
    rows = []
    for _ in range(length):
        if rng.random() < 0.6:
            rows.append(rng.choice(hot_rows))
        else:
            rows.append(rng.randrange(universe))
    return rows


def _snapshot(tracker):
    return {
        "spill": tracker.spill,
        "estimates": {row: tracker.estimate(row) for row in tracker.tracked_rows()},
    }


class TestReferenceEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_eviction_free_streams_are_bit_identical(self, seed):
        """On a stream whose distinct rows fit the table, the spill
        counter never catches the minimum, so no eviction (hence no
        tie-break) fires and every observation matches the set-based
        reference exactly. Invariant-1 sizing alone does not promise
        that: at scale 32 and T_RH 4800 (seed 0) the Figure-6 RRS
        trackers evict 0 times on hmmer, 83,618 on bzip2 and 19,731 on
        comm5, and TestVictimQueue covers that regime."""
        rows = _stream(seed, length=3000, universe=200)
        array = ArrayMisraGries.sized_for(len(rows), threshold=12)
        reference = MisraGriesTracker.sized_for(len(rows), threshold=12)
        for row in rows:
            assert array.observe(row) == reference.observe(row)
        assert _snapshot(array) == _snapshot(reference)
        assert len(array) == len(reference)

    @pytest.mark.parametrize("seed", range(5))
    def test_invariant1_under_eviction_pressure(self, seed):
        """With a deliberately undersized tracker, evictions fire and
        tie-breaks may diverge from the reference — but Invariant 1
        (no undercount beyond the spill value) must still hold."""
        rng = random.Random(seed)
        rows = [rng.randrange(40) for _ in range(2000)]
        tracker = ArrayMisraGries(entries=8)
        true_counts = {}
        for row in rows:
            tracker.observe(row)
            true_counts[row] = true_counts.get(row, 0) + 1
        assert len(tracker) <= 8
        for row, count in true_counts.items():
            estimate = tracker.estimate(row)
            assert estimate <= count + tracker.spill
            if row in tracker:
                assert estimate + tracker.spill >= count

    def test_reset_matches_fresh_tracker(self):
        tracker = ArrayMisraGries(entries=4)
        for row in (1, 2, 3, 4, 5, 6, 1, 1):
            tracker.observe(row)
        tracker.reset()
        assert len(tracker) == 0
        assert tracker.spill == 0
        assert tracker.observe(9) == 1  # install path, like a fresh one


class TestObserveBlock:
    @pytest.mark.parametrize("seed", range(6))
    def test_block_apply_equals_sequential_observe(self, seed):
        """observe_block must reproduce the scalar operation order
        bit-for-bit, including installs, spills and evictions (both
        implementations use the lowest-slot tie-break)."""
        rows = _stream(seed, length=1500, universe=60)
        entries = [3, 8, 50][seed % 3]
        blocked = ArrayMisraGries(entries=entries)
        sequential = ArrayMisraGries(entries=entries)
        cursor = 0
        rng = random.Random(seed + 100)
        while cursor < len(rows):
            size = rng.randrange(1, 40)
            chunk = rows[cursor : cursor + size]
            blocked.observe_block(chunk, len(chunk))
            for row in chunk:
                sequential.observe(row)
            cursor += size
        assert _snapshot(blocked) == _snapshot(sequential)
        assert blocked._min_count == sequential._min_count

    def test_partial_count_applies_prefix_only(self):
        tracker = ArrayMisraGries(entries=4)
        tracker.observe_block([7, 7, 7, 9], 2)
        assert tracker.estimate(7) == 2
        assert 9 not in tracker


class TestNoopHorizon:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("threshold", [3, 7, 12])
    def test_horizon_activations_cannot_hit_a_multiple(self, seed, threshold):
        """The contract the controller's deferral credit rests on: for
        ANY sequence of up to `horizon` further activations, no
        estimate returned by observe() lands on a non-zero multiple of
        the threshold."""
        rng = random.Random(seed)
        tracker = ArrayMisraGries(entries=6)
        for _ in range(rng.randrange(0, 300)):
            tracker.observe(rng.randrange(25))
        horizon = tracker.noop_horizon(threshold)
        # Adversarial future: hammer rows closest to their next multiple.
        for _ in range(horizon):
            victim = None
            best_gap = threshold + 1
            for row in tracker.tracked_rows():
                gap = threshold - tracker.estimate(row) % threshold
                if gap < best_gap:
                    best_gap = gap
                    victim = row
            row = victim if victim is not None else rng.randrange(25)
            estimate = tracker.observe(row)
            assert estimate == 0 or estimate % threshold != 0

    def test_horizon_is_zero_when_a_counter_is_one_short(self):
        tracker = ArrayMisraGries(entries=4)
        for _ in range(6):
            tracker.observe(1)
        assert tracker.noop_horizon(7) == 0

    def test_residue_histogram_stays_consistent(self):
        """The O(1)-maintained histogram must always equal a fresh
        rebuild, across observes, blocks, evictions and resets."""
        rng = random.Random(5)
        tracker = ArrayMisraGries(entries=5)
        for step in range(400):
            if step % 3 == 0:
                chunk = [rng.randrange(30) for _ in range(rng.randrange(1, 6))]
                tracker.observe_block(chunk, len(chunk))
            tracker.observe(rng.randrange(30))
            if step % 7 == 0:
                threshold = rng.choice([4, 9])
                tracker.noop_horizon(threshold)
                expected = [0] * threshold
                for count in (
                    tracker._counts[slot] for slot in tracker._slot_of.values()
                ):
                    expected[count % threshold] += 1
                assert tracker._residue_hist == expected


class TestTieBreak:
    def test_eviction_takes_the_lowest_slot(self):
        """The defined tie-break: among minimum-count entries, the
        lowest slot index (the oldest surviving entry) is evicted."""
        tracker = ArrayMisraGries(entries=2)
        tracker.observe(1)  # slot 0, count 1
        tracker.observe(2)  # slot 1, count 1
        assert tracker.observe(3) == 0  # spill 0 < min 1 -> spilled
        assert tracker.spill == 1
        assert tracker.observe(4) == 2  # spill == min -> evict slot 0
        assert 1 not in tracker
        assert 2 in tracker
        assert tracker.estimate(4) == 2  # spill + 1


class _LinearScanMisraGries(ArrayMisraGries):
    """The victim rule the heap replaced, kept as an oracle: scan the
    whole minimum-count bucket for its lowest slot on every eviction.
    Everything else is inherited, so any divergence is the queue's."""

    __slots__ = ("evictions",)

    def __init__(self, entries: int) -> None:
        super().__init__(entries)
        self.evictions = 0

    def _pop_victim(self) -> int:
        self.evictions += 1
        return min(self._buckets[self._min_count])


def _eviction_stream(seed: int, entries: int, length: int):
    """A full-table stream: a hot set half the table's size over a cold
    universe four times the table's size, so the spill counter keeps
    catching the minimum and minimum buckets drain slot by slot."""
    return _stream(seed, length=length, universe=4 * entries, hot=max(1, entries // 2))


def _assert_same_tracker(tracker, oracle):
    assert tracker.spill == oracle.spill
    assert tracker._min_count == oracle._min_count
    assert tracker.snapshot_state() == oracle.snapshot_state()


def _mid_drain(entries: int, seed: int):
    """A tracker stopped between two evictions from one minimum bucket
    (the queue is live and partly popped), the oracle in the same
    state, and the rest of their stream."""
    rows = _eviction_stream(seed, entries, length=60 * entries)
    tracker = ArrayMisraGries(entries)
    oracle = _LinearScanMisraGries(entries)
    for cursor, row in enumerate(rows):
        assert tracker.observe(row) == oracle.observe(row)
        # The queue exists only once the current minimum has lost a
        # victim; stop while at least two of its slots are still live.
        if (
            tracker._victims is not None
            and tracker._victims_count == tracker._min_count
            and len(tracker._buckets[tracker._min_count]) >= 2
        ):
            return tracker, oracle, rows[cursor + 1 :]
    raise AssertionError("stream never drained a minimum bucket")


class TestVictimQueue:
    @pytest.mark.parametrize("entries", [8, 64, 1024])
    def test_scalar_observe_matches_linear_scan(self, entries):
        """Every eviction takes the same slot as the bucket scan, so
        every estimate and the whole table agree, across a window
        rollover too."""
        rows = _eviction_stream(entries, entries, length=20 * entries)
        tracker = ArrayMisraGries(entries)
        oracle = _LinearScanMisraGries(entries)
        for cursor, row in enumerate(rows):
            if cursor == len(rows) // 2:
                tracker.reset()
                oracle.reset()
            assert tracker.observe(row) == oracle.observe(row)
            assert tracker.spill == oracle.spill
            assert tracker._min_count == oracle._min_count
        _assert_same_tracker(tracker, oracle)
        assert oracle.evictions > 2 * entries

    @pytest.mark.parametrize("entries", [8, 64, 1024])
    def test_observe_block_matches_linear_scan(self, entries):
        """The batched path replays structural events through the same
        queue: random chunk sizes, compared at every chunk boundary."""
        rows = _eviction_stream(entries + 1, entries, length=20 * entries)
        tracker = ArrayMisraGries(entries)
        oracle = _LinearScanMisraGries(entries)
        rng = random.Random(entries)
        cursor = 0
        while cursor < len(rows):
            size = rng.randrange(1, 2 * entries)
            chunk = rows[cursor : cursor + size]
            tracker.observe_block(chunk, len(chunk))
            oracle.observe_block(chunk, len(chunk))
            _assert_same_tracker(tracker, oracle)
            cursor += size
        assert oracle.evictions > 2 * entries

    def test_an_add_to_the_mirrored_bucket_drops_the_queue(self):
        """Observations never add to the minimum bucket (full-table
        installs land above it), so this drives the internal mutators
        directly: a slot re-installed at the minimum count below the
        queue's live slots must be the next victim."""
        tracker = ArrayMisraGries(entries=4)
        oracle = _LinearScanMisraGries(entries=4)
        for row in (1, 2, 3, 4, 5, 6):  # fill at 1, spill, evict slot 0
            assert tracker.observe(row) == oracle.observe(row)
        assert tracker._victims is not None
        for state in (tracker, oracle):
            state._evict(0)  # slot 0 held row 6 at count 2
            state._install(9, 1, reuse_slot=0)  # ... now at the minimum
        assert tracker._pop_victim() == oracle._pop_victim() == 0

    @pytest.mark.parametrize("entries", [8, 64])
    def test_restore_mid_drain_matches_uninterrupted(self, entries):
        """The queue is not snapshotted: a tracker restored halfway
        through a minimum bucket, into a fresh tracker or over one
        with a live queue of its own, picks the same victims as the
        tracker that was never interrupted."""
        tracker, oracle, rest = _mid_drain(entries, seed=3)
        fresh = ArrayMisraGries(entries)
        fresh.restore_state(tracker.snapshot_state())
        stale, _, _ = _mid_drain(entries, seed=4)
        stale.restore_state(tracker.snapshot_state())
        assert fresh._victims is None and stale._victims is None
        for row in rest[:500]:
            expected = oracle.observe(row)
            assert tracker.observe(row) == expected
            assert fresh.observe(row) == expected
            assert stale.observe(row) == expected
        assert oracle.evictions > 0
        for restored in (tracker, fresh, stale):
            _assert_same_tracker(restored, oracle)

    @pytest.mark.parametrize("entries", [8, 64])
    def test_reset_mid_drain_matches_fresh_tracker(self, entries):
        """A window rollover with a live queue drops it: the reset
        tracker then evicts exactly like a fresh one."""
        tracker, _, rest = _mid_drain(entries, seed=5)
        tracker.reset()
        assert tracker._victims is None
        oracle = _LinearScanMisraGries(entries)
        for row in rest[:500]:
            assert tracker.observe(row) == oracle.observe(row)
        assert oracle.evictions > 0
        _assert_same_tracker(tracker, oracle)
