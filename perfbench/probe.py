"""Machine-speed probe: a fixed piece of work that no crossview change touches.

The benchmark shares its machine with other tenants, whose load changes the
speed of the same code by up to a third over minutes. Each measuring
process runs the probe right before and right after its measured call, and
the benchmark reports that call's time scaled by ``REFERENCE_S`` over the
probe's time: the time it would have taken with the probe at its reference
speed. The probe mixes what crossview's hot paths do (3-vector numpy
calls, small Python objects, one matrix-vector product per few steps), so
that interference slows it roughly as much as it slows crossview.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Roughly the probe's time on an idle 2-core Xeon VM; any constant works,
# since both sides of a comparison are scaled by it.
REFERENCE_S = 0.15
STEPS = 2500

_RNG = np.random.default_rng(0)
_POINTS = _RNG.normal(size=(64, 3))
_CENTROIDS = _RNG.normal(size=(400, 456))
_VECTOR = _RNG.normal(size=456)


def probe():
    """Seconds taken by the fixed work."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(STEPS):
        a = _POINTS[i % 64]
        b = _POINTS[(i * 7) % 64]
        c = np.cross(a, b)
        acc += float(np.linalg.norm(c)) + math.atan2(c[1], c[0])
        q = np.array([1.0, a[0], a[1], a[2]])
        q /= math.sqrt(float(q @ q))
        if i % 10 == 0:
            d = (_CENTROIDS * _CENTROIDS).sum(axis=1) - 2.0 * (_CENTROIDS @ _VECTOR)
            acc += float(np.exp(-(d - d.min())).sum())
    if not math.isfinite(acc):
        raise ArithmeticError("probe result is not finite")
    return time.perf_counter() - start


def speed_factor(before_s, after_s):
    """How much slower than reference the machine ran around a measurement."""
    return (before_s + after_s) / (2.0 * REFERENCE_S)
