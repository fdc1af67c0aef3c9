"""Host-speed sampling for the timed runs.

The benchmark shares its host with other tenants, and their load makes
the same Python code run up to twice as slow for seconds to minutes at
a time. Best-of-N repetitions cannot remove a slow phase that outlasts
a run, so the timed run also samples the host's speed while it works:
every :data:`INTERVAL_S` a timer signal runs a fixed pure-Python loop
(:func:`_probe`, benchmark code that no repository change can touch)
and records how long it took. A point's time is then rescaled by
``NOMINAL_PROBE_S / mean(probe times during the point)``: host seconds
at the host's unloaded speed. Raw host seconds are printed beside the
rescaled ones.
"""

from __future__ import annotations

import signal
import time
from typing import List

INTERVAL_S = 0.05
# The probe's time on an unloaded core of the 2-core Xeon host the
# benchmark was tuned on; it sets the scale of the rescaled seconds.
NOMINAL_PROBE_S = 2.0e-4


def _probe() -> float:
    started = time.perf_counter()
    total = 0
    for i in range(3000):
        total += i * i
    return time.perf_counter() - started


class SpeedSampler:
    """Probe times sampled on a real-time timer while started."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def _sample(self, signum, frame) -> None:
        self.samples.append(_probe())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, mark: int) -> float:
        """Rescaling factor for the work done since ``mark``."""
        taken = self.samples[mark:] or self.samples[-1:]
        if not taken:
            return 1.0
        return NOMINAL_PROBE_S / (sum(taken) / len(taken))
