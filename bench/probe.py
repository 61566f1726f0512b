"""Speed probe: how fast this CPU runs plain Python right now.

On a shared 2-vCPU VM the speed the same code runs at swung by up to 2x
within seconds (with no steal time, and process CPU time equal to wall
time, so the core itself was slower, not taken away).  Medians over a run
cannot remove swings that last minutes.  So while a run is timed, a
SIGALRM handler runs a small fixed kernel every PROBE_INTERVAL_S and
records how long it took; a pass's wall time is then rescaled by
PROBE_REF_S / (mean probe time during the pass), which reads as seconds on
a machine whose probe time is PROBE_REF_S.

The kernel uses only the standard library (Fraction arithmetic, tuples and
a dict, like umpair's inner loops), so no change to umpair can move it.
The handler's own time is part of every pass, about 2%.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PROBE_INTERVAL_S = 0.04
PROBE_REF_S = 8.0e-4  # reference: probe time on a shared 2-vCPU VM, Python 3.11.7


def kernel() -> Fraction:
    acc = Fraction(0)
    counts: dict[tuple[int, int], int] = {}
    for i in range(100):
        f = Fraction(i % 7 + 1, i % 5 + 2)
        acc += f * f
        key = (i % 31, i & 7)
        counts[key] = counts.get(key, 0) + 1
    return acc


class SpeedProbe:
    """Timed runs of ``kernel``: on a timer while started, or on demand."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, duration)

    def sample(self, *_: object) -> None:
        start = time.perf_counter()
        kernel()
        self.samples.append((start, time.perf_counter() - start))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, since: float, until: float) -> float:
        """PROBE_REF_S over the mean probe time in [since, until]."""
        durations = [d for t, d in self.samples if since <= t <= until]
        return PROBE_REF_S * len(durations) / sum(durations)
