"""Machine-speed probe: a fixed mix of interpreter and numpy work.

The host this benchmark was built on changes speed by up to about 60% over
seconds to minutes.  Timed work is therefore reported in reference seconds:
raw seconds scaled by REFERENCE_S over the probe time measured next to that
work, i.e. the time the work would take with the probe at its reference
speed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Median probe time on the host the baseline was recorded on (2-vCPU Xeon VM).
REFERENCE_S = 0.0025

_MATRIX = np.random.default_rng(0).random((120, 120))


def _work() -> None:
    acc = 0
    for j in range(20000):
        acc += j * j
    for _ in range(10):
        _MATRIX @ _MATRIX
    np.sort(_MATRIX.ravel())


def probe() -> float:
    """Seconds taken by one fixed unit of mixed Python and numpy work.

    The unit runs once untimed first, so that caches the timed work left
    cold do not count.
    """
    _work()
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def speed_scale(samples) -> float:
    """Factor from raw to reference seconds for work timed amid ``samples``."""
    return REFERENCE_S / statistics.median(samples)
