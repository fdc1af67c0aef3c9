"""Counting Bloom filter (BlockHammer's tracker)."""

import numpy as np
import pytest

from repro.track.bloom import CountingBloomFilter
from repro.utils.hashing import keyed_hash
from repro.utils.rng import DeterministicRng


def test_estimate_never_undercounts():
    bloom = CountingBloomFilter(counters=64, hashes=3)
    rng = DeterministicRng(1)
    truth = {}
    for _ in range(500):
        row = rng.randint(0, 200)
        truth[row] = truth.get(row, 0) + 1
        bloom.observe(row)
    for row, count in truth.items():
        assert bloom.estimate(row) >= count


def test_estimate_exact_when_sparse():
    bloom = CountingBloomFilter(counters=4096, hashes=4)
    for _ in range(10):
        bloom.observe(42)
    assert bloom.estimate(42) == 10


def test_collisions_inflate_innocent_rows():
    """The BlockHammer collateral-damage mechanism: with few counters,
    cold rows inherit hot rows' counts."""
    bloom = CountingBloomFilter(counters=8, hashes=2)
    for _ in range(1000):
        bloom.observe(1)
    inflated = [row for row in range(2, 100) if bloom.estimate(row) > 0]
    assert inflated  # someone shares a counter with the hot row


def test_reset():
    bloom = CountingBloomFilter(counters=32, hashes=2)
    bloom.observe(5)
    bloom.reset()
    assert bloom.estimate(5) == 0
    assert bloom.total == 0


def test_total_counts_hashes_times_observations():
    bloom = CountingBloomFilter(counters=1024, hashes=4)
    for _ in range(7):
        bloom.observe(3)
    assert bloom.total == 7 * 4


def test_validation():
    with pytest.raises(ValueError):
        CountingBloomFilter(counters=0)
    with pytest.raises(ValueError):
        CountingBloomFilter(hashes=0)


class _ReferenceBloom:
    """The numpy filter this module replaced, kept as an oracle: it
    re-hashes every row on every call and counts with fancy-index
    ``+=`` (a duplicated index is incremented once)."""

    def __init__(self, counters: int = 1024, hashes: int = 4, seed: int = 0) -> None:
        self.counters = counters
        self.hashes = hashes
        self._keys = [keyed_hash(i, seed) for i in range(hashes)]
        self._table = np.zeros(counters, dtype=np.int64)

    def _indices(self, row: int) -> list:
        return [keyed_hash(row, key) % self.counters for key in self._keys]

    def observe(self, row: int) -> int:
        indices = self._indices(row)
        self._table[indices] += 1
        return int(min(self._table[index] for index in indices))

    def estimate(self, row: int) -> int:
        return int(min(self._table[index] for index in self._indices(row)))

    @property
    def total(self) -> int:
        return int(self._table.sum())

    def snapshot_state(self) -> tuple:
        return (list(self._keys), self._table.copy())


def _assert_same_snapshot(left: tuple, right: tuple) -> None:
    assert left[0] == right[0]
    assert left[1].dtype == right[1].dtype == np.int64
    assert np.array_equal(left[1], right[1])


@pytest.mark.parametrize("counters", [8, 1024])
def test_matches_reference_filter(counters):
    """Memoized list counters are bit-identical to the numpy original,
    including the duplicate-index case (8 counters, 4 hashes)."""
    bloom = CountingBloomFilter(counters=counters, hashes=4, seed=3)
    reference = _ReferenceBloom(counters=counters, hashes=4, seed=3)
    if counters == 8:
        assert any(len(set(reference._indices(row))) < 4 for row in range(300))
    rng = DeterministicRng(7)
    for _ in range(5000):
        row = rng.randint(0, 300)
        assert bloom.observe(row) == reference.observe(row)
    for row in range(300):
        assert bloom.estimate(row) == reference.estimate(row)
    assert bloom.total == reference.total
    _assert_same_snapshot(bloom.snapshot_state(), reference.snapshot_state())


def _observe_stream(bloom: CountingBloomFilter, seed: int, count: int) -> None:
    rng = DeterministicRng(seed)
    for _ in range(count):
        bloom.observe(rng.randint(0, 300))


def test_restore_uses_the_restored_keys_indices():
    """Restoring can swap in another seed's keys (BlockHammer rotates
    filter roles), so indices memoized under the old keys must not be
    used afterwards."""
    restored = CountingBloomFilter(counters=1024, hashes=4, seed=0)
    _observe_stream(restored, seed=11, count=2000)
    source = CountingBloomFilter(counters=1024, hashes=4, seed=1)
    _observe_stream(source, seed=12, count=2000)

    restored.restore_state(source.snapshot_state())
    for row in range(300):
        assert restored.estimate(row) == source.estimate(row)
    _observe_stream(restored, seed=13, count=500)
    _observe_stream(source, seed=13, count=500)
    _assert_same_snapshot(restored.snapshot_state(), source.snapshot_state())


def test_filters_sharing_memos_keep_one_memo_per_key_set():
    """Filters given one ``memos`` dict hash each row once per key set,
    however many of them see it, and count exactly like a filter with
    a private memo."""
    memos: dict = {}
    seeds = (0, 0, 1)
    shared = [CountingBloomFilter(64, 4, seed, memos) for seed in seeds]
    private = [CountingBloomFilter(64, 4, seed) for seed in seeds]
    for index, (bloom, alone) in enumerate(zip(shared, private)):
        _observe_stream(bloom, seed=20 + index, count=1000)
        _observe_stream(alone, seed=20 + index, count=1000)
    assert len(memos) == 2
    assert all(len(memo) <= 300 for memo in memos.values())
    for bloom, alone in zip(shared, private):
        for row in range(300):
            assert bloom.estimate(row) == alone.estimate(row)
        _assert_same_snapshot(bloom.snapshot_state(), alone.snapshot_state())


def test_restore_refuses_a_table_of_another_size():
    bloom = CountingBloomFilter(counters=64, hashes=2)
    keys, table = CountingBloomFilter(counters=32, hashes=2).snapshot_state()
    with pytest.raises(ValueError, match="expected 64 counters"):
        bloom.restore_state((keys, table))
