"""19-joint 3D body representation and clip-level pose handling.

Joint order (1-based in docs, stored 0-based): 1 right ankle, 2 right knee,
3 right hip, 4 left hip, 5 left knee, 6 left ankle, 7 right wrist,
8 right elbow, 9 right shoulder, 10 left shoulder, 11 left elbow,
12 left wrist, 13 neck, 14 head top, 15 nose, 16 left eye, 17 right eye,
18 left ear, 19 right ear. Coordinates are meters in world frame.

Pose deltas live directly in joint space; an action is a clip of 8
consecutive poses, reconstructable from a start pose plus a (7, 19, 3) array
of deltas.
"""

from __future__ import annotations

import json

import numpy as np

from .geometry import SE3Transform, UnitQuaternion, frozen_array

__all__ = [
    "JOINT_NAMES",
    "CLIP_LEN",
    "RIGHT_SHOULDER",
    "LEFT_SHOULDER",
    "NECK",
    "DegeneratePoseError",
    "Joint19Pose",
    "PoseSequence",
    "integrate_pose_deltas",
    "body_center",
    "body_centers",
    "body_axes",
    "body_frame",
    "pose_clip_vector",
    "pose_distance",
    "sequence_to_json",
    "sequence_from_json",
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


class DegeneratePoseError(ValueError):
    """Raised when a pose cannot support a body frame (collapsed torso triangle)."""


class Joint19Pose:
    """One body configuration: 19 ordered 3D joints."""

    __slots__ = ("_joints",)

    def __init__(self, joints):
        self._joints = frozen_array(joints, "joints", (N_JOINTS, 3))

    @property
    def joints(self):
        return self._joints

    def shifted(self, delta):
        """Pose plus a joint-space delta."""
        return Joint19Pose(self._joints + np.asarray(delta, dtype=float))

    def to_list(self):
        return self._joints.tolist()

    @classmethod
    def from_list(cls, data):
        return cls(np.asarray(data, dtype=float))

    def __repr__(self):
        return f"Joint19Pose(center~{np.round(self._joints.mean(axis=0), 3).tolist()})"


class PoseSequence:
    """Ordered poses over consecutive frames; a full clip has 8 of them.

    Partial sequences must be constructed explicitly via ``partial``.
    """

    __slots__ = ("_poses", "_timestamps")

    def __init__(self, poses, timestamps=None, *, allow_partial=False):
        poses = tuple(poses)
        if not poses:
            raise ValueError("pose sequence must contain at least one pose")
        for p in poses:
            if not isinstance(p, Joint19Pose):
                raise ValueError("pose sequence entries must be Joint19Pose")
        if len(poses) != CLIP_LEN and not allow_partial:
            raise ValueError(f"pose sequence must have {CLIP_LEN} poses, got {len(poses)} (use partial())")
        if timestamps is None:
            timestamps = tuple(range(len(poses)))
        else:
            timestamps = tuple(float(t) for t in timestamps)
            if len(timestamps) != len(poses):
                raise ValueError("timestamps must align with poses")
            if any(b <= a for a, b in zip(timestamps, timestamps[1:])):
                raise ValueError("timestamps must be strictly increasing")
        self._poses = poses
        self._timestamps = timestamps

    @classmethod
    def partial(cls, poses, timestamps=None):
        return cls(poses, timestamps, allow_partial=True)

    @property
    def poses(self):
        return self._poses

    @property
    def timestamps(self):
        return self._timestamps

    def is_clip(self):
        return len(self._poses) == CLIP_LEN

    def __len__(self):
        return len(self._poses)

    def __getitem__(self, index):
        return self._poses[index]

    def __iter__(self):
        return iter(self._poses)


def integrate_pose_deltas(init: Joint19Pose, deltas) -> PoseSequence:
    """Accumulate (7, 19, 3) joint-space deltas onto a start pose, giving an 8-pose clip.

    Element k is init plus the sum of the first k deltas; two different start
    poses fed the same deltas therefore differ by a constant offset at every
    frame.
    """
    cumulative = np.cumsum(frozen_array(deltas, "deltas", (CLIP_LEN - 1, N_JOINTS, 3)), axis=0)
    return PoseSequence([init] + [Joint19Pose(init.joints + c) for c in cumulative])


def body_centers(joints) -> np.ndarray:
    """Centroid of right shoulder, left shoulder and neck for each pose in a (..., 19, 3) array."""
    return (joints[..., RIGHT_SHOULDER, :] + joints[..., LEFT_SHOULDER, :] + joints[..., NECK, :]) / 3.0


def body_center(pose: Joint19Pose) -> np.ndarray:
    """Centroid of right shoulder, left shoulder and neck."""
    return body_centers(pose.joints)


def _norms(v):
    # one dot product per vector: the arithmetic np.linalg.norm uses for a
    # single vector, so one pose gets bit-identical axes alone or in a batch
    return np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0]


def body_axes(joints):
    """Body-frame axes of each pose in a (..., 19, 3) joint array.

    Returns (axes, defined): axes is (..., 3, 3) with columns x, y, z, and
    defined is False where the torso triangle collapses (those axes are not
    finite). x runs from left shoulder to right shoulder, z is the unit cross
    product of (right - left shoulder) with (neck - left shoulder), flipped if
    needed so its world-z component is non-negative, and y completes the
    right-handed triad. For a person lying flat the z sign choice is
    arbitrary but deterministic.
    """
    shoulder = joints[..., RIGHT_SHOULDER, :] - joints[..., LEFT_SHOULDER, :]
    cross = np.cross(shoulder, joints[..., NECK, :] - joints[..., LEFT_SHOULDER, :])
    cross_norm = _norms(cross)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_axis = shoulder / _norms(shoulder)
        z_axis = cross / cross_norm
    z_axis = np.where(z_axis[..., 2:] < 0.0, -z_axis, z_axis)
    y_axis = np.cross(z_axis, x_axis)
    return np.stack([x_axis, y_axis, z_axis], axis=-1), cross_norm[..., 0] >= 1e-9


def body_frame(pose: Joint19Pose) -> SE3Transform:
    """Person-attached frame from the shoulder line and neck (see body_axes).

    Translation is the torso centroid.
    """
    axes, defined = body_axes(pose.joints)
    if not defined:
        raise DegeneratePoseError("shoulder and neck joints are collinear; body frame undefined")
    return SE3Transform(UnitQuaternion.from_matrix(axes), body_center(pose))


def pose_clip_vector(seq: PoseSequence) -> np.ndarray:
    """Flatten an 8-pose clip to a 456-vector (frame, then joint, then x/y/z)."""
    if not isinstance(seq, PoseSequence) or not seq.is_clip():
        raise ValueError(f"clip vector requires a full {CLIP_LEN}-pose sequence")
    return np.concatenate([p.joints.ravel() for p in seq.poses])


def pose_distance(a: Joint19Pose, b: Joint19Pose) -> float:
    """Mean Euclidean distance over the 19 joints."""
    return float(np.linalg.norm(a.joints - b.joints, axis=1).mean())


def sequence_to_json(seq: PoseSequence) -> str:
    """Serialize as an array of frames, each 19 [x, y, z] triples (meters)."""
    return json.dumps([p.to_list() for p in seq.poses])


def sequence_from_json(text: str) -> PoseSequence:
    frames = json.loads(text)
    return PoseSequence.partial([Joint19Pose.from_list(f) for f in frames])
