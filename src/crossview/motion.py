"""Ego odometry integration, bounding-box tracks, and L1 trajectory losses.

Trajectories are (8, 2) arrays: 8 points (7 frame-to-frame deltas) in the
third-view plane, world x-y, meters, re-based so row 0 is exactly (0, 0).
The anchor point is kept in loss sums; it always contributes zero. Ego
rigid-motion increments are a (7, 2, 3) array: per step, the rotation vector
(radians) and then the translation (meters).
"""

from __future__ import annotations

import numpy as np

from ._files import _number, frozen_array
from .geometry import error_quaternion, exp_rotations, rotation_matrices, se3_compose
from .skeleton import CLIP_LEN

__all__ = [
    "BoundingBox",
    "box_centers",
    "bbox_trajectory",
    "integrate_ego_motion",
    "trajectory_l1_loss",
]

_IDENTITY = np.eye(3)  # the start frame of every ego chain


class BoundingBox:
    """Axis-aligned box in third-view plane coordinates: four finite numbers, not bools, with lx <= rx and ly <= ry."""

    __slots__ = ("lx", "ly", "rx", "ry")

    def __init__(self, lx, ly, rx, ry):
        lx, ly, rx, ry = (_number(v, name) for v, name in zip((lx, ly, rx, ry), self.__slots__))
        if lx > rx or ly > ry:
            raise ValueError(f"bounding box corners out of order: ({lx}, {ly}), ({rx}, {ry})")
        self.lx, self.ly, self.rx, self.ry = lx, ly, rx, ry

    @classmethod
    def _unchecked(cls, corners):  # four ordered finite floats, such as the simulator's, not checked again
        box = object.__new__(cls)
        box.lx, box.ly, box.rx, box.ry = corners
        return box

    @property
    def center(self):
        return np.array([(self.lx + self.rx) / 2.0, (self.ly + self.ry) / 2.0])

    def corners(self):
        return (self.lx, self.ly, self.rx, self.ry)

    def __repr__(self):
        return f"BoundingBox({self.lx}, {self.ly}, {self.rx}, {self.ry})"


def box_centers(corners) -> np.ndarray:
    """(..., 2) centres of (..., 4) box corners (lx, ly, rx, ry), each with BoundingBox.center's bits."""
    return (corners[..., :2] + corners[..., 2:]) / 2.0


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
    xy = np.array([translation[:2] for _, translation in chain])
    return xy - xy[0]


def _ego_offsets(deltas):
    # (..., 8, 3) start-frame positions of the chained increments of a checked (..., 7, 2, 3) array of
    # (rotation vector, translation) rows. Row k is the translation of D_1...D_k (row 0 is exactly zero), so
    # integrate_ego_motion's track from a start rotation R is the x-y part of R u_k: one integration serves
    # every start. One array pass gives the step rotations of the leading dimensions flattened into one; the
    # chain is a loop of batched 3x3 products, and each leading index gets the bits it gets alone.
    flat = deltas.reshape(-1, CLIP_LEN - 1, 2, 3)
    rotations = rotation_matrices(exp_rotations(flat[:, :, 0].reshape(-1, 3))).reshape(-1, CLIP_LEN - 1, 3, 3)
    frames = np.empty(rotations.shape)
    frames[:, 0] = _IDENTITY
    for k in range(CLIP_LEN - 2):
        np.matmul(frames[:, k], rotations[:, k], out=frames[:, k + 1])
    offsets = np.zeros((len(flat), CLIP_LEN, 3))
    offsets[:, 1:] = (frames @ flat[:, :, 1, :, None])[..., 0]  # row k + 1 is frame k's step; cumsum adds in order
    return offsets.cumsum(axis=1, out=offsets).reshape(deltas.shape[:-3] + (CLIP_LEN, 3))


def trajectory_l1_loss(predicted, reference) -> float:
    """Sum over frames of |dx| + |dy| between two tracks of equal shape."""
    predicted = frozen_array(predicted, "predicted", ("n", 2), copy=False)
    reference = frozen_array(reference, "reference", predicted.shape, copy=False)
    return float(np.abs(predicted - reference).sum())
