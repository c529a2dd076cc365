"""Discrete-identity Bayes filter with constant-velocity position gating.

Smooths per-clip localization over time. The state keeps, per candidate, a
posterior weight plus a planar position and velocity estimate (units per
frame). The recursion is:

  predict: positions advance by velocity * dt; weights are mixed toward
           uniform by a factor alpha so no identity can lock in forever.
  update:  posterior ~ prior * likelihood, with likelihood the clip match
           probability times a Gaussian position-consistency kernel
           exp(-|observed - predicted|^2 / (2 sigma_p^2)); occluded
           candidates use the position kernel alone. Velocities are
           re-estimated by exponential smoothing (beta) of finite
           differences. If every likelihood underflows to zero the prior is
           kept and the state is flagged low confidence.

alpha, beta and sigma_p are free parameters of this reconstruction; defaults
are 0.05, 0.7 and 0.5 plane units. States are immutable values; distinct
tracks can be filtered concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._files import _number, frozen_array

__all__ = [
    "FilterState",
    "init_filter",
    "predict",
    "update",
    "map_identity",
]

DEFAULT_ALPHA = 0.05
DEFAULT_BETA = 0.7
DEFAULT_SIGMA_P = 0.5
# the least sigma_p whose 2 sigma_p^2 is not 0: below it the kernel of a
# candidate that did not move is 0 / -0.0, a NaN likelihood
_MIN_SIGMA_P = math.nextafter(2.0**-538, math.inf)


@dataclass(frozen=True)
class FilterState:
    """Per-candidate posterior weights plus position/velocity estimates.

    last_likelihood is the likelihood the most recent update applied (None
    before any update); the posterior cannot give it back when every
    likelihood underflowed.
    """

    ids: tuple
    weights: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    low_confidence: bool = False
    last_likelihood: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(_number(i, "ids", integer=True) for i in self.ids))
        n = len(self.ids)
        if not n:
            raise ValueError("filter needs at least one candidate")
        if len(set(self.ids)) != n:
            raise ValueError("candidate ids must be unique")
        for name, shape in (("weights", (n,)), ("positions", (n, 2)), ("velocities", (n, 2))):
            object.__setattr__(self, name, frozen_array(getattr(self, name), name, shape))
        if np.any(self.weights < 0.0) or abs(float(self.weights.sum()) - 1.0) > 1e-9:
            raise ValueError("weights must be a probability distribution")


def _freeze(a):
    # seal an array just computed here
    a.setflags(write=False)
    return a


def _next_state(state, **changes):
    # dataclasses.replace without FilterState's checks: predict and update
    # keep its invariants but two that overflow can break, a finite weight
    # sum and finite velocities, which update checks itself
    new = object.__new__(FilterState)
    new.__dict__.update(state.__dict__, **changes)
    return new


def init_filter(ids, positions) -> FilterState:
    """Uniform posterior, zero velocities, positions from the first sighting."""
    ids = tuple(ids)
    n = len(ids)
    return FilterState(ids=ids, weights=np.ones(n) / n, positions=positions, velocities=np.zeros((n, 2)))


def predict(state: FilterState, dt=1.0, alpha=DEFAULT_ALPHA) -> FilterState:
    """Advance positions by velocity * dt and leak weights toward uniform."""
    dt, alpha = _number(dt, "dt", positive=True), _number(alpha, "alpha", low=0, high=1)
    weights = (1.0 - alpha) * state.weights + alpha / len(state.ids)
    weights /= np.add.reduce(weights, axis=None)
    return _next_state(state, weights=_freeze(weights), positions=_freeze(state.positions + state.velocities * dt))


def update(
    state: FilterState,
    clip_scores,
    observed_positions,
    occluded=None,
    beta=DEFAULT_BETA,
    sigma_p=DEFAULT_SIGMA_P,
    dt=1.0,
) -> FilterState:
    """Bayes measurement step; call after predict for each new clip.

    clip_scores are the per-candidate match probabilities, aligned with the
    state's candidate ids, and observed_positions the matching (x, y) plane
    coordinates at the clip's last frame. dt must be the dt given to predict:
    the finite difference is recovered from the predicted positions, and
    another dt puts it off by v (1 - dt_predict / dt_update).
    """
    n = len(state.ids)
    scores = frozen_array(clip_scores, "clip_scores", (n,), copy=False)
    if np.logical_or.reduce(scores < 0.0, axis=None):
        raise ValueError(f"clip_scores must be finite and non-negative, got {scores}")
    observed = frozen_array(observed_positions, "observed_positions", (n, 2))
    occluded = np.zeros(n, bool) if occluded is None else frozen_array(occluded, "occluded", (n,), bool, copy=False)
    beta = _number(beta, "beta", low=0, high=1)
    sigma_p, dt = _number(sigma_p, "sigma_p", low=_MIN_SIGMA_P), _number(dt, "dt", positive=True)

    gap = observed - state.positions  # from the predicted positions
    with np.errstate(over="ignore"):  # a tiny sigma_p sends the quotient to -inf, whose exp, 0, is the kernel
        gap2 = np.add.reduce(gap**2, axis=1)
        kernel = np.exp(gap2 / (-2.0 * sigma_p * sigma_p))  # the bits of exp(-gap2 / (2 sigma_p^2))
    likelihood = np.where(occluded, kernel, scores * kernel)

    unnormalized = state.weights * likelihood
    mass = float(np.add.reduce(unnormalized, axis=None))
    if mass == math.inf:  # overflow: every weight below would be 0
        raise ValueError("weights must be a probability distribution")
    low_confidence = not mass > 0.0  # nothing to learn from: keep the prior
    weights = state.weights if low_confidence else _freeze(np.divide(unnormalized, mass, out=unnormalized))

    # Finite difference against the pre-predict position: observed - predicted
    # differs from it by exactly velocity * dt, so recover it in place.
    velocities = beta * state.velocities + (1.0 - beta) * (gap / dt + state.velocities)
    if not np.logical_and.reduce(np.isfinite(velocities), axis=None):  # overflow
        raise ValueError("velocities must be finite")

    return _next_state(
        state,
        weights=weights,
        positions=observed,
        velocities=_freeze(velocities),
        low_confidence=low_confidence,
        last_likelihood=_freeze(likelihood),
    )


def map_identity(state: FilterState):
    """Maximum a posteriori candidate id; exact ties go to the lowest id."""
    weights = state.weights.tolist()
    best = max(weights)
    return min(i for i, weight in zip(state.ids, weights) if weight == best)

