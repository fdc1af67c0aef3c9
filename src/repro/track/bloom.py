"""Counting Bloom filter — BlockHammer's aggressor tracker.

BlockHammer blacklists rows whose counting-Bloom-filter estimate
crosses a threshold and delays their subsequent activations. The
counting Bloom filter can only *overcount* (hash collisions add the
counts of unrelated rows), which is exactly the property BlockHammer's
security argument needs and the source of its collateral slowdown —
benign rows sharing counters with a hot row get throttled too, visible
in the paper's Figure 11.
"""

from __future__ import annotations

import numpy as np

from repro.utils.hashing import keyed_hash


class CountingBloomFilter:
    """Counting Bloom filter over row addresses.

    A row's counter indices depend only on ``(row, counters, keys)``, so
    they are hashed once, deduplicated (a counter two hashes share counts
    once per observation) and memoized in ``memos[(counters, *keys)]``.
    Filters given one ``memos`` dict share that memo per key set.
    """

    __slots__ = ("counters", "hashes", "_keys", "_table", "_memos", "_row_indices")

    def __init__(
        self, counters: int = 1024, hashes: int = 4, seed: int = 0, memos=None
    ) -> None:
        if counters <= 0 or hashes <= 0:
            raise ValueError("counters and hashes must be positive")
        self.counters = counters
        self.hashes = hashes
        self._table = [0] * counters
        self._memos = {} if memos is None else memos
        self._keys = [keyed_hash(i, seed) for i in range(hashes)]
        self._row_indices = self._memos.setdefault((counters, *self._keys), {})

    def _hash_row(self, row: int) -> tuple:
        hashed = (keyed_hash(row, key) % self.counters for key in self._keys)
        self._row_indices[row] = indices = tuple(dict.fromkeys(hashed))
        return indices

    def observe(self, row: int) -> int:
        """Count one activation; returns the row's new estimate."""
        indices = self._row_indices.get(row) or self._hash_row(row)
        table = self._table
        low = table[indices[0]]
        for index in indices:
            count = table[index]
            table[index] = count + 1
            if count < low:
                low = count
        return low + 1

    def estimate(self, row: int) -> int:
        """Min-counter estimate (>= the true count, never below)."""
        indices = self._row_indices.get(row) or self._hash_row(row)
        table = self._table
        low = table[indices[0]]
        for index in indices:
            if table[index] < low:
                low = table[index]
        return low

    def reset(self) -> None:
        """Window rollover: clear all counters."""
        self._table = [0] * self.counters

    @property
    def total(self) -> int:
        """Sum of all counters (hashes x observations)."""
        return sum(self._table)

    # ------------------------------------------------------------------
    # Snapshotable (repro.state): the counter table plus the hash keys.
    # Keys travel with the snapshot because BlockHammer rotates filter
    # *roles* (active/shadow) at window ends, so the filter occupying a
    # slot at a cut may have been built with either seed; restoring
    # switches to the restored keys' memo.
    # ------------------------------------------------------------------
    def snapshot_state(self) -> tuple:
        return (list(self._keys), np.array(self._table, dtype=np.int64))

    def restore_state(self, state: tuple) -> None:
        keys, table = state
        if len(table) != self.counters:
            raise ValueError(f"expected {self.counters} counters, got {len(table)}")
        self._table = [int(count) for count in table]
        self._keys = list(keys)
        self._row_indices = self._memos.setdefault((self.counters, *self._keys), {})
