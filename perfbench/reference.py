"""The fixed reference work mix that tracks the shared host's speed.

The speed of a shared host drifts by up to 2x for seconds to minutes.  A
fixed mix of Python dict and str work and numpy FFT and copies, timed
next to the measured work, follows that drift.  A time is reported at the
speed where the reference takes REFERENCE_S, i.e. multiplied by
REFERENCE_S / (the reference time measured with it).  The mix shares no
code with joinsketch, so a change to joinsketch moves the scaled times
in full.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.015

_KEYS = [str(i) for i in range(20_000)]
_ARRAY = np.random.default_rng(0).random(1 << 18)


def reference_once() -> float:
    """Seconds of one pass of the reference work mix."""
    start = time.perf_counter()
    counts: dict[str, int] = {}
    for key in _KEYS:
        counts[key] = counts.get(key, 0) + int(key)
    np.fft.rfft(_ARRAY).sum()
    _ARRAY.copy().sum()
    return time.perf_counter() - start


def reference_s(repeats: int = 5) -> float:
    """Median seconds of `repeats` passes of the reference work mix."""
    return statistics.median(reference_once() for _ in range(repeats))
