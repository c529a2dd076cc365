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
from dataclasses import dataclass, replace

import numpy as np

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
        n = len(self.ids)
        if self.weights.shape != (n,) or self.positions.shape != (n, 2) or self.velocities.shape != (n, 2):
            raise ValueError("filter state arrays must align with the candidate ids")
        if np.any(self.weights < 0.0) or abs(float(self.weights.sum()) - 1.0) > 1e-9:
            raise ValueError("weights must be a probability distribution")
        if not np.all(np.isfinite(self.velocities)):
            raise ValueError("velocities must be finite")


def _freeze(a):
    out = np.asarray(a, dtype=float).copy()
    out.setflags(write=False)
    return out


def init_filter(ids, positions) -> FilterState:
    """Uniform posterior, zero velocities, positions from the first sighting."""
    ids = tuple(int(i) for i in ids)
    if not ids:
        raise ValueError("filter needs at least one candidate")
    if len(set(ids)) != len(ids):
        raise ValueError("candidate ids must be unique")
    n = len(ids)
    positions = np.asarray(positions, dtype=float).reshape(n, 2)
    if not np.isfinite(positions).all():
        raise ValueError("positions must be finite")
    return FilterState(
        ids=ids,
        weights=_freeze(np.full(n, 1.0 / n)),
        positions=_freeze(positions),
        velocities=_freeze(np.zeros((n, 2))),
    )


def predict(state: FilterState, dt=1.0, alpha=DEFAULT_ALPHA) -> FilterState:
    """Advance positions by velocity * dt and leak weights toward uniform."""
    if not (math.isfinite(dt) and dt >= 0.0):
        raise ValueError(f"dt must be finite and non-negative, got {dt}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    n = len(state.ids)
    weights = (1.0 - alpha) * state.weights + alpha / n
    return replace(
        state,
        weights=_freeze(weights / weights.sum()),
        positions=_freeze(state.positions + state.velocities * dt),
    )


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
    scores = np.asarray(clip_scores, dtype=float)
    observed = np.asarray(observed_positions, dtype=float)
    if scores.shape != (n,):
        raise ValueError(f"clip_scores must align with the {n} candidates, got shape {scores.shape}")
    if not (np.isfinite(scores) & (scores >= 0.0)).all():
        raise ValueError(f"clip_scores must be finite and non-negative, got {scores}")
    if observed.shape != (n, 2):
        raise ValueError(f"observed_positions must be (n, 2), got shape {observed.shape}")
    if not np.isfinite(observed).all():
        raise ValueError("observed_positions must be finite")
    if occluded is None:
        occluded = np.zeros(n, dtype=bool)
    else:
        occluded = np.asarray(occluded, dtype=bool)
        if occluded.shape != (n,):
            raise ValueError("occluded mask must align with the candidates")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    if not (math.isfinite(sigma_p) and sigma_p > 0.0):
        raise ValueError(f"sigma_p must be finite and positive, got {sigma_p}")
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt}")

    predicted = state.positions
    gap2 = ((observed - predicted) ** 2).sum(axis=1)
    kernel = np.exp(-gap2 / (2.0 * sigma_p * sigma_p))
    likelihood = np.where(occluded, kernel, scores * kernel)

    unnormalized = state.weights * likelihood
    mass = float(unnormalized.sum())
    if mass > 0.0:
        weights = unnormalized / mass
        low_confidence = False
    else:
        weights = state.weights  # nothing to learn from; keep the prior
        low_confidence = True

    # Finite difference against the pre-predict position: observed - predicted
    # differs from it by exactly velocity * dt, so recover it in place.
    finite_diff = (observed - predicted) / dt + state.velocities
    velocities = beta * state.velocities + (1.0 - beta) * finite_diff

    return FilterState(
        ids=state.ids,
        weights=_freeze(weights),
        positions=_freeze(observed),
        velocities=_freeze(velocities),
        low_confidence=low_confidence,
        last_likelihood=_freeze(likelihood),
    )


def map_identity(state: FilterState):
    """Maximum a posteriori candidate id; exact ties go to the lowest id."""
    best = float(state.weights.max())
    tied = [state.ids[i] for i in range(len(state.ids)) if state.weights[i] == best]
    return min(tied)

