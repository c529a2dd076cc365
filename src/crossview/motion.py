"""Ego odometry integration, bounding-box tracks, and L1 trajectory losses.

Trajectories are 8 points (7 frame-to-frame deltas) in the third-view plane,
world x-y, meters. The anchor point (0, 0) is kept in loss sums; it always
contributes zero.
"""

from __future__ import annotations

import numpy as np

from .geometry import (
    RotationDelta,
    SE3Transform,
    Trajectory2D,
    error_quaternion,
    se3_compose,
    warp_to_third_2d,
)
from .skeleton import CLIP_LEN

__all__ = [
    "BoundingBox",
    "MotionDelta",
    "Trajectory2D",
    "bbox_trajectory",
    "integrate_ego_motion",
    "ego_offsets",
    "trajectory_l1_loss",
]


class BoundingBox:
    """Axis-aligned box in third-view plane coordinates."""

    __slots__ = ("lx", "ly", "rx", "ry")

    def __init__(self, lx, ly, rx, ry):
        lx, ly, rx, ry = (float(v) for v in (lx, ly, rx, ry))
        if not all(np.isfinite([lx, ly, rx, ry])):
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


class MotionDelta:
    """One frame-to-frame rigid motion increment: rotation vector + translation."""

    __slots__ = ("rotation", "translation")

    def __init__(self, rotation: RotationDelta, translation):
        if not isinstance(rotation, RotationDelta):
            rotation = RotationDelta(rotation)
        t = np.asarray(translation, dtype=float)
        if t.shape != (3,) or not np.all(np.isfinite(t)):
            raise ValueError("motion delta translation must be a finite 3-vector")
        self.rotation = rotation
        self.translation = t.copy()
        self.translation.setflags(write=False)


def bbox_trajectory(boxes) -> Trajectory2D:
    """Track of box centers re-based at the first frame."""
    boxes = list(boxes)
    if len(boxes) != CLIP_LEN:
        raise ValueError(f"expected {CLIP_LEN} bounding boxes, got {len(boxes)}")
    centers = np.array([b.center for b in boxes])
    return Trajectory2D(centers - centers[0])


def integrate_ego_motion(t_init: SE3Transform, deltas) -> Trajectory2D:
    """Chain the ego increments onto the start transform and warp to 2D.

    Builds T_init, T_init D_1, ..., T_init D_1...D_7 and keeps the planar
    translation components re-based at the first frame. The result depends on
    the start orientation: the same increments walked from a rotated start
    give a rotated track.
    """
    chain = [t_init]
    current = t_init
    for d in deltas:
        step = SE3Transform(error_quaternion(d.rotation), d.translation)
        current = se3_compose(current, step)
        chain.append(current)
    return warp_to_third_2d(chain)


def ego_offsets(deltas) -> np.ndarray:
    """(8, 3) positions of the chained increments in the start frame.

    Row k is the translation of D_1...D_k (row 0 is exactly zero), so the
    track integrate_ego_motion gives from a start rotation R is the x-y part
    of R u_k: the increments are integrated once for any number of starts.
    """
    offsets = np.zeros((CLIP_LEN, 3))
    rotation = np.eye(3)
    for k, d in enumerate(deltas):
        offsets[k + 1] = offsets[k] + rotation @ d.translation
        rotation = rotation @ error_quaternion(d.rotation).to_matrix()
    return offsets


def trajectory_l1_loss(predicted: Trajectory2D, reference: Trajectory2D) -> float:
    """Sum over frames of |dx| + |dy| between two equal-length tracks."""
    if len(predicted) != len(reference):
        raise ValueError(f"trajectory lengths differ: {len(predicted)} vs {len(reference)}")
    return float(np.abs(predicted.points - reference.points).sum())
