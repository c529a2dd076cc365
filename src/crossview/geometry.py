"""Rotation and rigid-transform algebra used throughout the toolkit.

Conventions: Hamilton quaternion product, scalar-first storage (w, x, y, z),
right-handed axes. The "third view" image plane is the world x-y plane, so
warping a 3D transform chain into the third view keeps the x and y translation
components and re-bases the track at its first sample.

All types are immutable values and every operation is a pure function, so
everything here is safe to share across threads.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "UnitQuaternion",
    "RotationDelta",
    "SE3Transform",
    "error_quaternion",
    "quat_compose",
    "se3_compose",
    "warp_to_third_2d",
]

# Below this rotation angle the sin(theta/2)/theta factor switches to its
# series expansion to avoid dividing by a vanishing norm.
_SMALL_ANGLE = 1e-7


def frozen_array(value, name, shape):
    """Read-only float copy of value, checked for shape and finiteness; errors name the field."""
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:  # ragged nesting or non-numbers
        raise ValueError(f"{name} must be a numeric array of shape {shape}") from exc
    if a.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    out = a.copy()
    out.setflags(write=False)
    return out


class UnitQuaternion:
    """Unit quaternion, scalar first. Normalized on construction."""

    __slots__ = ("_q",)

    def __init__(self, w, x, y, z):
        q = np.array([w, x, y, z], dtype=float)
        if not np.all(np.isfinite(q)):
            raise ValueError(f"quaternion components must be finite, got {q}")
        n = math.sqrt(float(q @ q))
        if n < 1e-12:
            raise ValueError("cannot normalize a zero quaternion")
        q /= n
        q.setflags(write=False)
        self._q = q

    @classmethod
    def identity(cls):
        return cls(1.0, 0.0, 0.0, 0.0)

    @property
    def w(self):
        return float(self._q[0])

    @property
    def x(self):
        return float(self._q[1])

    @property
    def y(self):
        return float(self._q[2])

    @property
    def z(self):
        return float(self._q[3])

    def as_array(self):
        return self._q

    def conjugate(self):
        return UnitQuaternion(self._q[0], -self._q[1], -self._q[2], -self._q[3])

    def rotate(self, point):
        """Rotate a 3-vector: v' = v + 2w (u x v) + 2 u x (u x v)."""
        v = np.asarray(point, dtype=float)
        u = self._q[1:]
        t = 2.0 * np.cross(u, v)
        return v + self._q[0] * t + np.cross(u, t)

    def to_matrix(self):
        w, x, y, z = self._q
        return np.array(
            [
                [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
                [2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)],
                [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)],
            ]
        )

    @classmethod
    def from_matrix(cls, matrix):
        """Convert a rotation matrix, branching on the largest diagonal term."""
        m = np.asarray(matrix, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"rotation matrix must be 3x3, got shape {m.shape}")
        if not np.allclose(m @ m.T, np.eye(3), atol=1e-6):
            raise ValueError("matrix is not orthonormal")
        t = m[0, 0] + m[1, 1] + m[2, 2]
        if t > 0.0:
            s = math.sqrt(t + 1.0) * 2.0
            return cls((0.25 * s), (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s)
        if m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
            s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
            return cls((m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s)
        if m[1, 1] >= m[2, 2]:
            s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
            return cls((m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s, (m[1, 2] + m[2, 1]) / s)
        s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        return cls((m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s, (m[1, 2] + m[2, 1]) / s, 0.25 * s)

    def to_rotation_vector(self):
        """Quaternion log: rotation vector with angle in [0, pi].

        The angle is 2 atan2(|v|, w), which keeps full relative precision at
        small angles, where w rounds to 1 and 2 acos(w) collapses to 0.
        """
        w, x, y, z = self._q
        if w < 0.0:  # q and -q are the same rotation; keep the short arc
            w, x, y, z = -w, -x, -y, -z
        s = math.sqrt(x * x + y * y + z * z)
        if s < 1e-12:
            return np.array([2.0 * x, 2.0 * y, 2.0 * z])
        angle = 2.0 * math.atan2(s, w)
        return (angle / s) * np.array([x, y, z])

    def __repr__(self):
        return f"UnitQuaternion(w={self.w:.9g}, x={self.x:.9g}, y={self.y:.9g}, z={self.z:.9g})"


class RotationDelta:
    """Frame-to-frame rotation as a 3-parameter rotation vector (radians)."""

    __slots__ = ("_v",)

    def __init__(self, delta_theta):
        self._v = frozen_array(delta_theta, "delta_theta", (3,))

    @property
    def vector(self):
        return self._v

    def __repr__(self):
        return f"RotationDelta({self._v.tolist()})"


class SE3Transform:
    """Rigid transform: rotation (unit quaternion) plus translation in meters."""

    __slots__ = ("_rotation", "_translation")

    def __init__(self, rotation: UnitQuaternion, translation):
        if not isinstance(rotation, UnitQuaternion):
            raise ValueError("rotation must be a UnitQuaternion")
        self._rotation = rotation
        self._translation = frozen_array(translation, "translation", (3,))

    @classmethod
    def identity(cls):
        return cls(UnitQuaternion.identity(), np.zeros(3))

    @property
    def rotation(self):
        return self._rotation

    @property
    def translation(self):
        return self._translation

    def apply(self, point):
        return self._rotation.rotate(point) + self._translation

    def inverse(self):
        rot_inv = self._rotation.conjugate()
        return SE3Transform(rot_inv, -rot_inv.rotate(self._translation))

    def to_matrix(self):
        m = np.eye(4)
        m[:3, :3] = self._rotation.to_matrix()
        m[:3, 3] = self._translation
        return m

    @classmethod
    def from_matrix(cls, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.shape != (4, 4):
            raise ValueError(f"homogeneous matrix must be 4x4, got shape {m.shape}")
        return cls(UnitQuaternion.from_matrix(m[:3, :3]), m[:3, 3])

    def __repr__(self):
        return f"SE3Transform({self._rotation!r}, t={self._translation.tolist()})"


def error_quaternion(delta) -> UnitQuaternion:
    """Quaternion exponential of a rotation vector.

    Returns [cos(|d|/2); sin(|d|/2) d/|d|], and exactly the identity when the
    rotation vector is zero. Near zero the sin(|d|/2)/|d| factor uses its
    series 1/2 - |d|^2/48 so the map is continuous through the zero branch.
    A plain vector is checked here without a copy: the norm is finite only
    if every component is.
    """
    v = delta.vector if isinstance(delta, RotationDelta) else np.asarray(delta, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"rotation vector must have shape (3,), got {v.shape}")
    theta = float(np.linalg.norm(v))
    if not math.isfinite(theta):
        raise ValueError(f"rotation vector must be finite, got {v}")
    if theta == 0.0:
        return UnitQuaternion.identity()
    if theta < _SMALL_ANGLE:
        scale = 0.5 - theta * theta / 48.0
    else:
        scale = math.sin(0.5 * theta) / theta
    return UnitQuaternion(math.cos(0.5 * theta), scale * v[0], scale * v[1], scale * v[2])


def quat_compose(a: UnitQuaternion, b: UnitQuaternion) -> UnitQuaternion:
    """Hamilton product a (x) b, renormalized."""
    aw, ax, ay, az = a.as_array()
    bw, bx, by, bz = b.as_array()
    return UnitQuaternion(
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def se3_compose(a: SE3Transform, b: SE3Transform) -> SE3Transform:
    """Compose rigid transforms: rotation a.R b.R, translation a.R b.t + a.t."""
    return SE3Transform(
        quat_compose(a.rotation, b.rotation),
        a.rotation.rotate(b.translation) + a.translation,
    )


def warp_to_third_2d(chain) -> np.ndarray:
    """Project a transform chain into the third-view plane.

    Returns an (n, 2) array: the (x, y) translation components of every
    transform minus the first, so row 0 is exactly (0, 0).
    """
    transforms = list(chain)
    if not transforms:
        raise ValueError("transform chain must be non-empty")
    xy = np.array([t.translation[:2] for t in transforms])
    return xy - xy[0]
