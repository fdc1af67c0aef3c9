"""Straggler detection for sweeps.

:class:`StragglerDetector` is the pure-logic tracker
:class:`~repro.exec.runner.SweepRunner` consults while a process pool
drains: once enough points have completed, any in-flight point whose
elapsed time exceeds ``k`` times the median completed duration is
flagged (once) so the progress line can call it out while the sweep is
still running, and the point's ledger row carries the ``straggler``
flag.

It is observational: it reads completion telemetry, never touches
simulation state, and its output feeds only the progress reporter and
the run ledger. Per-worker totals (pid, wall time, peak RSS, failures)
live in the ledger rows themselves.
"""

from __future__ import annotations

from typing import Hashable, List, Mapping, Optional

from repro.utils.stats import percentile

# A point is a straggler when it has been in flight longer than
# STRAGGLER_K times the median completed-point duration.
STRAGGLER_K = 4.0

# Do not flag anything until this many points have completed: the
# median of one or two samples is noise.
STRAGGLER_MIN_SAMPLES = 3


class StragglerDetector:
    """Flags in-flight work that outlives ``k`` x median completion time.

    Feed every completed duration through :meth:`record`; call
    :meth:`check` with the elapsed seconds of still-running points.
    Each key is flagged at most once, so a progress line can report a
    straggler the moment it crosses the horizon without repeating
    itself every poll tick.
    """

    def __init__(
        self,
        k: float = STRAGGLER_K,
        min_samples: int = STRAGGLER_MIN_SAMPLES,
    ) -> None:
        if k <= 1.0:
            raise ValueError("straggler multiplier k must exceed 1.0")
        self.k = k
        self.min_samples = max(1, min_samples)
        self.durations: List[float] = []
        self.flagged: set = set()

    def record(self, seconds: float) -> None:
        """One completed point's duration."""
        self.durations.append(seconds)

    @property
    def median(self) -> Optional[float]:
        """Median completed duration, or None before ``min_samples``."""
        if len(self.durations) < self.min_samples:
            return None
        return percentile(self.durations, 50.0)

    @property
    def horizon(self) -> Optional[float]:
        """Seconds after which an in-flight point is a straggler."""
        median = self.median
        if median is None:
            return None
        return self.k * median

    def check(self, inflight: Mapping[Hashable, float]) -> List[Hashable]:
        """Newly flagged keys among ``{key: elapsed_seconds}``."""
        horizon = self.horizon
        if horizon is None:
            return []
        fresh = []
        for key, elapsed in inflight.items():
            if elapsed > horizon and key not in self.flagged:
                self.flagged.add(key)
                fresh.append(key)
        return fresh
