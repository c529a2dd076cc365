"""19-joint 3D body representation and clip-level pose handling.

Joint order (1-based in docs, stored 0-based): 1 right ankle, 2 right knee,
3 right hip, 4 left hip, 5 left knee, 6 left ankle, 7 right wrist,
8 right elbow, 9 right shoulder, 10 left shoulder, 11 left elbow,
12 left wrist, 13 neck, 14 head top, 15 nose, 16 left eye, 17 right eye,
18 left ear, 19 right ear. Coordinates are meters in world frame.

A pose is a (19, 3) joint array and an action is a clip of 8 consecutive
poses, an (8, 19, 3) array. Pose deltas live directly in joint space, so a
clip is reconstructable from its start pose plus a (7, 19, 3) array of
deltas.
"""

from __future__ import annotations

import numpy as np

from ._files import frozen_array
from .geometry import cross3, norms, quaternions_from_matrices

__all__ = [
    "JOINT_NAMES",
    "CLIP_LEN",
    "RIGHT_SHOULDER",
    "LEFT_SHOULDER",
    "NECK",
    "DegeneratePoseError",
    "integrate_pose_deltas",
    "body_centers",
    "body_axes",
    "body_poses",
    "body_frame",
    "pose_clip_vector",
]

JOINT_NAMES = (
    "right_ankle",
    "right_knee",
    "right_hip",
    "left_hip",
    "left_knee",
    "left_ankle",
    "right_wrist",
    "right_elbow",
    "right_shoulder",
    "left_shoulder",
    "left_elbow",
    "left_wrist",
    "neck",
    "head_top",
    "nose",
    "left_eye",
    "right_eye",
    "left_ear",
    "right_ear",
)

N_JOINTS = 19
CLIP_LEN = 8

# 0-based indices of the torso joints that anchor the body frame.
RIGHT_SHOULDER = 8
LEFT_SHOULDER = 9
NECK = 12
_EDGE_JOINTS = np.array([RIGHT_SHOULDER, NECK])  # with the left shoulder, the torso triangle


class DegeneratePoseError(ValueError):
    """Raised when a pose cannot support a body frame (collapsed torso triangle)."""


def integrate_pose_deltas(init, deltas) -> np.ndarray:
    """Accumulate (7, 19, 3) joint-space deltas onto a (19, 3) start pose, giving an (8, 19, 3) clip.

    Frame k is init plus the sum of the first k deltas; two different start
    poses fed the same deltas therefore differ by a constant offset at every
    frame.
    """
    init = frozen_array(init, "init", (N_JOINTS, 3), copy=False)
    cumulative = np.cumsum(frozen_array(deltas, "deltas", (CLIP_LEN - 1, N_JOINTS, 3)), axis=0)
    return np.concatenate([init[None], init + cumulative])


def body_centers(joints) -> np.ndarray:
    """Centroid of right shoulder, left shoulder and neck for each pose in a (..., 19, 3) array."""
    return (joints[..., RIGHT_SHOULDER, :] + joints[..., LEFT_SHOULDER, :] + joints[..., NECK, :]) / 3.0


def body_axes(joints):
    """Body-frame axes of each pose in a (..., 19, 3) joint array.

    Returns (axes, defined): axes is (..., 3, 3) with columns x, y, z, and defined is False where
    the torso triangle collapses, its cross product's norm below 1e-9. Callers must read defined:
    such axes are NaN, or finite for a norm in (0, 1e-9), as for a neck 1e-11 off the shoulder line.
    x runs from left to right shoulder, z is the unit cross product of (right - left shoulder) with
    (neck - left shoulder), flipped to a non-negative world z, and y completes the right-handed
    triad. For a person lying flat the z sign choice is arbitrary but deterministic.
    """
    # the shoulder edge and the cross product, normalized together: norms() gives each the bits it gets alone
    edges = joints[..., _EDGE_JOINTS, :] - joints[..., LEFT_SHOULDER, None, :]
    edges[..., 1, :] = cross3(edges[..., 0, :], edges[..., 1, :])
    lengths = norms(edges)
    with np.errstate(divide="ignore", invalid="ignore"):
        edges /= lengths
    z_axis = edges[..., 1, :]
    np.negative(z_axis, out=z_axis, where=z_axis[..., 2:] < 0.0)
    axes = np.empty(edges.shape[:-2] + (3, 3))
    axes[..., ::2] = edges.swapaxes(-1, -2)
    axes[..., 1] = cross3(z_axis, edges[..., 0, :])
    return axes, lengths[..., 1, 0] >= 1e-9


def body_poses(frames):
    """Body-frame rotations (n, 4) and translations (n, 3) of an (n, 19, 3) joint array (see body_axes).

    Rotations are unit quaternions; translations are torso centroids. Raises
    DegeneratePoseError naming the first frame whose torso triangle collapses.
    """
    axes, defined = body_axes(frames)
    if not defined.all():
        raise DegeneratePoseError(f"frame {int(np.argmin(defined))}: shoulder and neck joints are collinear")
    return quaternions_from_matrices(axes), body_centers(frames)


def body_frame(joints):
    """Person-attached frame (rotation (4,), translation (3,)) of one (19, 3) pose: body_poses of one."""
    rotations, centres = body_poses(frozen_array(joints, "joints", (N_JOINTS, 3), copy=False)[None])
    return rotations[0], centres[0]


def pose_clip_vector(clip) -> np.ndarray:
    """Flatten an (8, 19, 3) clip to a 456-vector (frame, then joint, then x/y/z)."""
    return frozen_array(clip, "clip", (CLIP_LEN, N_JOINTS, 3), copy=False).reshape(-1)
