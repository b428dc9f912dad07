"""Host-speed calibration for the timed loop.

The benchmark host is shared: its speed drifts by tens of percent from one
run to the next, which no run length removes.  A fixed kernel that uses no
nsquad code, but the work the calls are made of (a Python loop of scalar
calls on numpy floats over a mesh-sized array, an array expression, complex
numpy scalars), is timed between the calls of every pass.  The kernel's
array has about as many points as the workload's meshes, so that it feels
the same cache pressure.  speed = nominal(points) / (median kernel time); a
timing multiplied by the speed at which it was taken reads as it would on
the reference host, where the kernel takes nominal(points).
"""

from __future__ import annotations

import math
import statistics
import time
from functools import lru_cache

import numpy as np

DEFAULT_POINTS = 257
PER_PASS = 64           # kernel runs spread over each pass

# The kernel's time on the reference host: 34 us + 178 ns per point.
_NOMINAL_FIXED_NS = 34_000
_NOMINAL_PER_POINT_NS = 178


@lru_cache(maxsize=None)
def _grid(points: int) -> np.ndarray:
    return np.linspace(-1.0, 1.0, points)


def kernel(points: int = DEFAULT_POINTS) -> float:
    xs = _grid(points)
    vals = [math.exp(x) for x in xs]
    arr = np.array(vals) / (1e-4 + xs * xs)
    acc = 0.0
    for k in range(32):
        acc += complex(np.exp(complex(0.1, 0.01 * k))).real
    return float(arr.sum()) + acc


def timed_kernel(points: int = DEFAULT_POINTS) -> int:
    """Nanoseconds one kernel run takes now."""
    t0 = time.perf_counter_ns()
    kernel(points)
    return time.perf_counter_ns() - t0


def speed(kernel_ns: list[int], points: int = DEFAULT_POINTS) -> float:
    nominal = _NOMINAL_FIXED_NS + _NOMINAL_PER_POINT_NS * points
    return nominal / statistics.median(kernel_ns)


def local_speeds(kernel_ns: list[int], points: int, window: int = 2) -> list[float]:
    """Speed at each kernel run, from the median of its 2*window+1 neighbours."""
    return [speed(kernel_ns[max(0, j - window):j + window + 1], points)
            for j in range(len(kernel_ns))]
