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
    """Unit quaternion, scalar first. Normalized on construction.

    Every method is a batch of one of the array kernels below, so a single
    rotation gets the same bits as the same row in a batch.
    """

    __slots__ = ("_q",)

    def __init__(self, w, x, y, z):
        q = unit_quaternions(np.array([[w, x, y, z]], dtype=float))[0]
        q.setflags(write=False)
        self._q = q

    @classmethod
    def _of(cls, q):
        """Wrap a (4,) row that a kernel has already normalized, without renormalizing it."""
        out = object.__new__(cls)
        out._q = q.copy()
        out._q.setflags(write=False)
        return out

    @classmethod
    def identity(cls):
        return cls(1.0, 0.0, 0.0, 0.0)

    w = property(lambda self: float(self._q[0]))
    x = property(lambda self: float(self._q[1]))
    y = property(lambda self: float(self._q[2]))
    z = property(lambda self: float(self._q[3]))

    def as_array(self):
        return self._q

    def conjugate(self):
        return UnitQuaternion._of(unit_quaternions(self._q[None] * _CONJUGATE)[0])

    def rotate(self, point):
        return rotate_points(self._q[None], np.asarray(point, dtype=float)[None])[0]

    def to_matrix(self):
        return rotation_matrices(self._q[None])[0]

    @classmethod
    def from_matrix(cls, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"rotation matrix must be 3x3, got shape {m.shape}")
        return cls._of(quaternions_from_matrices(m[None])[0])

    def to_rotation_vector(self):
        return rotation_vectors(self._q[None])[0]

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

    def __repr__(self):
        return f"SE3Transform({self._rotation!r}, t={self._translation.tolist()})"


def error_quaternion(delta) -> UnitQuaternion:
    """Quaternion exponential of a rotation vector (see exp_rotations).

    A plain vector is checked here without a copy: the norm is finite only
    if every component is.
    """
    v = delta.vector if isinstance(delta, RotationDelta) else np.asarray(delta, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"rotation vector must have shape (3,), got {v.shape}")
    return UnitQuaternion._of(exp_rotations(v[None])[0])


def quat_compose(a: UnitQuaternion, b: UnitQuaternion) -> UnitQuaternion:
    """Hamilton product a (x) b, renormalized."""
    return UnitQuaternion._of(quaternion_products(a.as_array()[None], b.as_array()[None])[0])


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


# ---------------------------------------------------------------------------
# array kernels over n rows: elementwise IEEE operations only, so a row gets
# the same bits alone or in a batch. sin, cos and atan2 go through math per
# element, as the numpy ufuncs may round differently from libm.

_CONJUGATE = np.array([1.0, -1.0, -1.0, -1.0])


def norms(v):
    """(..., 1) norms of (..., d) vectors, one dot product each as np.linalg.norm takes.

    A finite vector whose dot product overflows is scaled by its largest component first.
    """
    if not np.abs(v).max(initial=0.0) > 1e150:  # no dot product can overflow
        return np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0]
    with np.errstate(over="ignore"):
        n = np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0]
    big = np.isinf(n[..., 0]) & np.isfinite(v).all(axis=-1)
    scale = np.abs(v[big]).max(axis=-1, keepdims=True)
    n[big] = scale * norms(v[big] / scale)
    return n


def unit_quaternions(q):
    """The rows of an (n, 4) array divided by their norms; rejects non-finite and zero rows."""
    bad = ~np.isfinite(q).all(axis=1)
    if bad.any():
        raise ValueError(f"quaternion components must be finite, got {q[bad][0]}")
    n = norms(q)
    if (n < 1e-12).any():
        raise ValueError("cannot normalize a zero quaternion")
    return q / n


def quaternion_products(a, b):
    """Hamilton products a (x) b of the rows of two (n, 4) arrays, renormalized."""
    aw, ax, ay, az = a.T
    bw, bx, by, bz = b.T
    products = [
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ]
    return unit_quaternions(np.stack(products, axis=-1))


def rotate_points(q, v):
    """Rotate (n, 3) points by (n, 4) unit quaternions: v' = v + 2w (u x v) + 2 u x (u x v)."""
    u = q[:, 1:]
    t = 2.0 * np.cross(u, v)
    return v + q[:, :1] * t + np.cross(u, t)


def rotation_matrices(q):
    """(n, 3, 3) rotation matrices of (n, 4) unit quaternions."""
    w, x, y, z = q.T
    entries = [
        1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y),
        2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x),
        2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y),
    ]  # fmt: skip
    return np.stack(entries, axis=-1).reshape(-1, 3, 3)


def quaternions_from_matrices(m):
    """Unit quaternions (n, 4) of (n, 3, 3) rotation matrices, branching per row on the largest diagonal term."""
    if not np.allclose(m @ m.transpose(0, 2, 1), np.eye(3), atol=1e-6):
        raise ValueError("matrix is not orthonormal")
    m00, m01, m02, m10, m11, m12, m20, m21, m22 = m.reshape(-1, 9).T
    t = m00 + m11 + m22
    first = t > 0.0
    second = ~first & (m00 >= m11) & (m00 >= m22)
    third = ~first & ~second & (m11 >= m22)
    # per branch: its rows, the radicand of s / 2, and the numerators of
    # w, x, y, z over s, None marking the component that is s / 4
    branches = (
        (first, t + 1.0, None, m21 - m12, m02 - m20, m10 - m01),
        (second, 1.0 + m00 - m11 - m22, m21 - m12, None, m01 + m10, m02 + m20),
        (third, 1.0 + m11 - m00 - m22, m02 - m20, m01 + m10, None, m12 + m21),
        (~(first | second | third), 1.0 + m22 - m00 - m11, m10 - m01, m02 + m20, m12 + m21, None),
    )
    q = np.empty((len(t), 4))
    for rows, radicand, *numerators in branches:
        s = np.sqrt(radicand[rows]) * 2.0
        for i, numerator in enumerate(numerators):
            q[rows, i] = 0.25 * s if numerator is None else numerator[rows] / s
    return unit_quaternions(q)


def rotation_vectors(q):
    """Quaternion logs: (n, 3) rotation vectors, angle in [0, pi], of (n, 4) unit quaternions.

    The angle is 2 atan2(|v|, w), which keeps full relative precision where
    w rounds to 1 and 2 acos(w) collapses to 0. Below |v| = 1e-12 the log is 2 v.
    """
    q = np.where(q[:, :1] < 0.0, -q, q)  # q and -q are the same rotation; keep the short arc
    w, x, y, z = q.T
    s = np.sqrt(x * x + y * y + z * z)
    angle = 2.0 * np.array([math.atan2(a, b) for a, b in zip(s.tolist(), w.tolist())])
    small = s < 1e-12
    return np.where(small, 2.0, angle / np.where(small, 1.0, s))[:, None] * q[:, 1:]


def exp_rotations(v):
    """Quaternion exponentials (n, 4) of (n, 3) rotation vectors d: [cos(|d|/2); sin(|d|/2) d/|d|].

    A zero vector gives exactly the identity; near zero sin(|d|/2)/|d| takes
    its series 1/2 - |d|^2/48, so the map is continuous through that branch.
    """
    theta = norms(v)[:, 0]
    bad = ~np.isfinite(theta)
    if bad.any():
        raise ValueError(f"rotation vector must be finite, got {v[bad][0]}")
    half = (0.5 * theta).tolist()
    small = theta < _SMALL_ANGLE
    sines = np.array([math.sin(h) for h in half])
    series = 0.5 - np.square(np.minimum(theta, _SMALL_ANGLE)) / 48.0  # capped: unused rows must not overflow
    scale = np.where(small, series, sines / np.where(small, 1.0, theta))
    q = unit_quaternions(np.column_stack([[math.cos(h) for h in half], scale[:, None] * v]))
    q[theta == 0.0] = (1.0, 0.0, 0.0, 0.0)
    return q


def relative_motions(rotations, translations):
    """Increments T_i^-1 T_(i+1) of rigid poses given as (n, 4) rotations and (n, 3) translations.

    Row i of the (n - 1, 2, 3) result is se3_compose(T_i.inverse(), T_(i+1)):
    its rotation vector, then its translation.
    """
    inverse = unit_quaternions(rotations[:-1] * _CONJUGATE)
    # T_i^-1 translates by -(R_i^-1 t_i); adding a negated value is subtracting it, bit for bit
    shift = rotate_points(inverse, translations[1:]) - rotate_points(inverse, translations[:-1])
    return np.stack([rotation_vectors(quaternion_products(inverse, rotations[1:])), shift], axis=1)
