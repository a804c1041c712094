"""A fixed reference computation that measures how fast the machine is right now.

The benchmark runs on shared virtual machines whose speed for the same work
moves by a factor of up to 1.7 within seconds and by about 30% over minutes,
for every kind of code alike.  Timing this fixed computation right before and
right after each timed piece of work, and dividing, cancels most of that
drift: ``normalise`` turns a measured time into the time the work would take
on a machine that runs the reference in ``NOMINAL_S`` seconds.

The mix follows the package's own profile: interpreter-bound parsing and
counting, many numpy calls on small arrays, elementwise numpy work on
arrays of thousands of rows, and a small symmetric eigendecomposition.  It
uses numpy only and never the package, so a change to the package cannot
move it.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds the reference takes on the machine the baseline was measured on
# (2 vCPUs of an Intel Xeon, one BLAS thread).  A fixed scale, so normalised
# times read as seconds on that machine.
NOMINAL_S = 0.04

_rng = np.random.default_rng(20140623)
_LINES = [f"item{a:04d},item{b:04d},{'+1' if s else '-1'}"
          for a, b, s in zip(_rng.integers(0, 1000, 20_000).tolist(), _rng.integers(0, 1000, 20_000).tolist(),
                             (_rng.random(20_000) < 0.5).tolist())]
_ROWS = _rng.standard_normal(9000)
_SMALL = _rng.standard_normal(8)
_GRAM = _rng.standard_normal((100, 100))
_GRAM = _GRAM @ _GRAM.T


def _work() -> float:
    counts: dict[tuple[str, str], int] = {}
    for line in _LINES:
        left, right, outcome = line.split(",")
        key = (left, right) if left < right else (right, left)
        counts[key] = counts.get(key, 0) + (1 if outcome == "+1" else -1)
    v = _SMALL.copy()
    for _ in range(1600):
        v = np.clip(v - v.mean(), -1.0, 1.0)
    total = 0.0
    for _ in range(30):
        total += float(np.logaddexp(0.0, -_ROWS * v[0]).sum())
        total += float((_ROWS / (1.0 + np.exp(_ROWS))).sum())
    total += float(np.linalg.eigh(_GRAM)[0][0])
    return total + len(counts)


# Back-to-back timings per measurement; their median is robust to an interrupt.
SAMPLES = 3


def measure() -> float:
    """Seconds the reference computation takes now: the median of ``SAMPLES`` timings."""
    times = []
    for _ in range(SAMPLES):
        start = time.perf_counter()
        _work()
        times.append(time.perf_counter() - start)
    return sorted(times)[SAMPLES // 2]


def normalise(seconds: float, reference_s: float) -> float:
    """``seconds`` of work timed while the reference took ``reference_s``, at the nominal speed."""
    return seconds * NOMINAL_S / reference_s
