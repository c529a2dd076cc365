"""Ego odometry integration, bounding-box tracks, and L1 trajectory losses.

Trajectories are (8, 2) arrays: 8 points (7 frame-to-frame deltas) in the
third-view plane, world x-y, meters, re-based so row 0 is exactly (0, 0).
The anchor point is kept in loss sums; it always contributes zero. Ego
rigid-motion increments are a (7, 2, 3) array: per step, the rotation vector
(radians) and then the translation (meters).
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import error_quaternion, exp_rotations, rotation_matrices, se3_compose, warp_to_third_2d
from .skeleton import CLIP_LEN

__all__ = [
    "BoundingBox",
    "bbox_trajectory",
    "integrate_ego_motion",
    "ego_offsets",
    "trajectory_l1_loss",
]


class BoundingBox:
    """Axis-aligned box in third-view plane coordinates."""

    __slots__ = ("lx", "ly", "rx", "ry")

    def __init__(self, lx, ly, rx, ry):
        lx, ly, rx, ry = float(lx), float(ly), float(rx), float(ry)
        if not (math.isfinite(lx) and math.isfinite(ly) and math.isfinite(rx) and math.isfinite(ry)):
            raise ValueError("bounding box corners must be finite")
        if lx > rx or ly > ry:
            raise ValueError(f"bounding box corners out of order: ({lx}, {ly}), ({rx}, {ry})")
        self.lx, self.ly, self.rx, self.ry = lx, ly, rx, ry

    @property
    def center(self):
        return np.array([(self.lx + self.rx) / 2.0, (self.ly + self.ry) / 2.0])

    def corners(self):
        return (self.lx, self.ly, self.rx, self.ry)

    def __repr__(self):
        return f"BoundingBox({self.lx}, {self.ly}, {self.rx}, {self.ry})"


def bbox_trajectory(boxes) -> np.ndarray:
    """(8, 2) track of box centers re-based at the first frame."""
    boxes = list(boxes)
    if len(boxes) != CLIP_LEN:
        raise ValueError(f"expected {CLIP_LEN} bounding boxes, got {len(boxes)}")
    centers = np.array([b.center for b in boxes])
    return centers - centers[0]


def integrate_ego_motion(t_init, deltas) -> np.ndarray:
    """Chain the ego increments onto the start transform and warp to 2D.

    t_init is a (rotation (4,), translation (3,)) pair, such as body_frame
    returns; deltas holds (rotation vector, translation) rows. Builds T_init,
    T_init D_1, ..., T_init D_1...D_7 with se3_compose and returns the planar
    translation components re-based at the first frame, an (8, 2) array for
    7 increments. The result depends on the start orientation: the same
    increments walked from a rotated start give a rotated track.
    """
    chain = [t_init]
    for rotation, translation in deltas:
        chain.append(se3_compose(chain[-1], (error_quaternion(rotation), translation)))
    return warp_to_third_2d(chain)


def ego_offsets(deltas) -> np.ndarray:
    """(..., 8, 3) positions of the chained increments in the start frame.

    deltas holds (..., 7, 2, 3) (rotation vector, translation) rows. Row k is
    the translation of D_1...D_k (row 0 is exactly zero), so the track
    integrate_ego_motion gives from a start rotation R is the x-y part of
    R u_k: the increments are integrated once for any number of starts.
    The step rotations come from one array pass; the chain is a loop of
    batched 3x3 products, and each leading index gets the bits it gets alone.
    """
    deltas = np.asarray(deltas, dtype=float)
    rotations = rotation_matrices(exp_rotations(deltas[..., 0, :].reshape(-1, 3))).reshape(deltas.shape[:-2] + (3, 3))
    offsets = np.zeros(deltas.shape[:-3] + (CLIP_LEN, 3))
    frame = np.eye(3)
    for k in range(CLIP_LEN - 1):
        offsets[..., k + 1, :] = offsets[..., k, :] + (frame @ deltas[..., k, 1, :, None])[..., 0]
        frame = frame @ rotations[..., k, :, :]
    return offsets


def trajectory_l1_loss(predicted, reference) -> float:
    """Sum over frames of |dx| + |dy| between two tracks of equal shape."""
    predicted = np.asarray(predicted, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if predicted.shape != reference.shape:
        raise ValueError(f"trajectory shapes differ: {predicted.shape} vs {reference.shape}")
    return float(np.abs(predicted - reference).sum())
