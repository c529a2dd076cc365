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

from .geometry import (
    SE3Transform,
    error_quaternion,
    exp_rotations,
    rotation_matrices,
    se3_compose,
    warp_to_third_2d,
)
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


def integrate_ego_motion(t_init: SE3Transform, deltas) -> np.ndarray:
    """Chain the ego increments onto the start transform and warp to 2D.

    deltas holds (rotation vector, translation) rows. Builds T_init,
    T_init D_1, ..., T_init D_1...D_7 and returns the planar translation
    components re-based at the first frame, an (8, 2) array for 7
    increments. The result depends on the start orientation: the same
    increments walked from a rotated start give a rotated track.
    """
    chain = [t_init]
    current = t_init
    for rotation, translation in deltas:
        current = se3_compose(current, SE3Transform(error_quaternion(rotation), translation))
        chain.append(current)
    return warp_to_third_2d(chain)


def ego_offsets(deltas) -> np.ndarray:
    """(8, 3) positions of the chained increments in the start frame.

    deltas holds (rotation vector, translation) rows. Row k is the
    translation of D_1...D_k (row 0 is exactly zero), so the track
    integrate_ego_motion gives from a start rotation R is the x-y part of
    R u_k: the increments are integrated once for any number of starts.
    The step rotations come from one array pass; the chain is a loop of 3x3 products.
    """
    deltas = np.asarray(deltas, dtype=float)
    rotations = rotation_matrices(exp_rotations(deltas[:, 0]))
    offsets = np.zeros((CLIP_LEN, 3))
    frame = np.eye(3)
    for k, (translation, rotation) in enumerate(zip(deltas[:, 1], rotations)):
        offsets[k + 1] = offsets[k] + frame @ translation
        frame = frame @ rotation
    return offsets


def trajectory_l1_loss(predicted, reference) -> float:
    """Sum over frames of |dx| + |dy| between two tracks of equal shape."""
    predicted = np.asarray(predicted, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if predicted.shape != reference.shape:
        raise ValueError(f"trajectory shapes differ: {predicted.shape} vs {reference.shape}")
    return float(np.abs(predicted - reference).sum())
