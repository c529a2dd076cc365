"""Rotation and rigid-transform algebra used throughout the toolkit.

Conventions: Hamilton quaternion product, scalar-first storage (w, x, y, z),
right-handed axes. The "third view" image plane is the world x-y plane, so
warping a 3D transform chain into the third view keeps the x and y translation
components and re-bases the track at its first sample.

A rigid transform is a pair of arrays, a unit quaternion rotation (4,) and
a translation (3,) in meters. The kernels at the bottom take n rows at once
and are the API; error_quaternion and se3_compose are their one-transform
forms. Every function is pure, so everything here is safe to
share across threads.
"""

from __future__ import annotations

import math

import numpy as np

from ._files import frozen_array

__all__ = [
    "RotationDelta",
    "error_quaternion",
    "se3_compose",
]

# Below this rotation angle the sin(theta/2)/theta factor switches to its
# series expansion to avoid dividing by a vanishing norm.
_SMALL_ANGLE = 1e-7


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


def error_quaternion(delta) -> np.ndarray:
    """Quaternion exponential (4,) of a rotation vector or RotationDelta (see exp_rotations)."""
    v = delta.vector if isinstance(delta, RotationDelta) else frozen_array(delta, "rotation vector", (3,), copy=False)
    return exp_rotations(v[None])[0]


def _rigid(pair, name):
    """The rotation and translation of a rigid transform pair, checked; errors name the argument and the part."""
    try:
        rotation, translation = pair
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be a (rotation, translation) pair") from exc
    rotation = frozen_array(rotation, f"rotation of {name}", (4,))
    norm = norms(rotation[None])[0, 0]
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"rotation of {name} must be a unit quaternion, got norm {norm!r}")
    return rotation, frozen_array(translation, f"translation of {name}", (3,))


def se3_compose(a, b):
    """Compose rigid transforms given as (rotation (4,), translation (3,)) pairs.

    Returns the pair (R_a R_b, R_a t_b + t_a). Each rotation must be a unit
    quaternion within 1e-9; it is used as given, not renormalized.
    """
    (qa, ta), (qb, tb) = _rigid(a, "a"), _rigid(b, "b")
    return quaternion_products(qa[None], qb[None])[0], rotate_points(qa[None], tb[None])[0] + ta


# ---------------------------------------------------------------------------
# array kernels over n rows: elementwise IEEE operations only, so a row gets
# the same bits alone or in a batch. sin, cos and atan2 go through math per
# element, as the numpy ufuncs may round differently from libm.

_CONJUGATE = np.array([1.0, -1.0, -1.0, -1.0])
# component i of a cross product is a[_CROSS_A[i]] b[_CROSS_B[i]] - a[_CROSS_A[i + 3]] b[_CROSS_B[i + 3]]
_CROSS_A = np.array([1, 2, 0, 2, 0, 1])
_CROSS_B = np.array([2, 0, 1, 1, 2, 0])
# rotation matrix entry i: 2 (p[a] + s p[b]), 1 - 2 (...) on the diagonal, for p = q q^T flattened, (a, b) and s
# _MATRIX_TERMS[:, i] and _MATRIX_SIGNS[i]
_MATRIX_TERMS = np.array([[10, 6, 7, 6, 5, 11, 7, 11, 5], [15, 3, 2, 3, 15, 1, 2, 1, 10]])
_MATRIX_SIGNS = np.array([1.0, -1.0, 1.0, 1.0, 1.0, -1.0, -1.0, 1.0, 1.0])


def norms(v):
    """(..., 1) norms of (..., d) vectors, one dot product each as np.linalg.norm takes.

    A finite vector whose dot product overflows is scaled by its largest component first.
    """
    if np.maximum.reduce(np.abs(v), axis=None, initial=0.0) <= 1e150:  # no dot can overflow; a NaN fails this too
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


def cross3(a, b):
    """Cross products of (..., 3) rows, bit for bit those of numpy's cross.

    Each component is the same product minus product, in the same order,
    without numpy's generic axis handling, which costs several times the
    arithmetic on a few rows.
    """
    products = a[..., _CROSS_A] * b[..., _CROSS_B]
    return products[..., :3] - products[..., 3:]


def rotate_points(q, v):
    """Rotate (n, 3) points by (n, 4) unit quaternions: v' = v + 2w (u x v) + 2 u x (u x v)."""
    u = q[:, 1:]
    t = 2.0 * cross3(u, v)
    return v + q[:, :1] * t + cross3(u, t)


def rotation_matrices(q):
    """(n, 3, 3) rotation matrices of (n, 4) unit quaternions: the textbook formula's operations, gathered."""
    products = (q[:, :, None] * q[:, None, :]).reshape(-1, 16)[:, _MATRIX_TERMS]
    m = products[:, 0] + products[:, 1] * _MATRIX_SIGNS  # adding -b is subtracting b, bit for bit
    m *= 2.0
    np.subtract(1.0, m[:, ::4], out=m[:, ::4])
    return m.reshape(-1, 3, 3)


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
    finite = np.isfinite(theta)
    if not np.logical_and.reduce(finite, axis=None):
        raise ValueError(f"rotation vector must be finite, got {v[~finite][0]}")
    half = (0.5 * theta).tolist()
    small = theta < _SMALL_ANGLE
    scale = np.array(list(map(math.sin, half))) / np.where(small, 1.0, theta)
    if np.logical_or.reduce(small, axis=None):
        scale[small] = 0.5 - np.square(theta[small]) / 48.0
    q = np.zeros((len(half), 4))
    q[:, 0] = list(map(math.cos, half))
    np.multiply(scale[:, None], v, out=q[:, 1:], where=theta[:, None] != 0.0)  # a zero vector keeps (1, 0, 0, 0)
    q /= norms(q)  # finite and of norm about 1: what unit_quaternions checks holds
    return q


def relative_motions(rotations, translations):
    """Increments T_i^-1 T_(i+1) of rigid poses given as (n, 4) rotations and (n, 3) translations.

    Row i of the (n - 1, 2, 3) result is the rotation vector, then the
    translation, of the composition of T_i's inverse with T_(i+1).
    """
    inverse = unit_quaternions(rotations[:-1] * _CONJUGATE)
    # T_i^-1 translates by -(R_i^-1 t_i); adding a negated value is subtracting it, bit for bit
    shift = rotate_points(inverse, translations[1:]) - rotate_points(inverse, translations[:-1])
    return np.stack([rotation_vectors(quaternion_products(inverse, rotations[1:])), shift], axis=1)
