"""Geometry tests: quaternion/SE(3) algebra against independent matrix oracles."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial.transform import Rotation

from crossview import geometry
from crossview.geometry import (
    RotationDelta,
    SE3Transform,
    UnitQuaternion,
    error_quaternion,
    quat_compose,
    se3_compose,
    warp_to_third_2d,
)

RNG = np.random.default_rng(12345)


def random_unit_quaternion(rng):
    q = rng.normal(size=4)
    return UnitQuaternion(*q)


def random_se3(rng):
    return SE3Transform(random_unit_quaternion(rng), rng.normal(size=3))


@st.composite
def rotation_vectors(draw, max_angle=math.pi - 1e-3):
    direction = np.array(
        [
            draw(st.floats(-1.0, 1.0, allow_nan=False)),
            draw(st.floats(-1.0, 1.0, allow_nan=False)),
            draw(st.floats(-1.0, 1.0, allow_nan=False)),
        ]
    )
    norm = np.linalg.norm(direction)
    if norm < 1e-6:
        direction = np.array([1.0, 0.0, 0.0])
        norm = 1.0
    angle = draw(st.floats(0.0, max_angle, allow_nan=False))
    return direction / norm * angle


class TestErrorQuaternion:
    def test_zero_branch_is_exact_identity(self):
        q = error_quaternion(RotationDelta([0.0, 0.0, 0.0]))
        assert (q.w, q.x, q.y, q.z) == (1.0, 0.0, 0.0, 0.0)

    def test_half_turn_about_x(self):
        q = error_quaternion([math.pi, 0.0, 0.0])
        np.testing.assert_allclose(q.as_array(), [0.0, 1.0, 0.0, 0.0], atol=1e-12)

    def test_matches_matrix_exponential_oracle(self):
        # independent oracle: rotation-vector exponential via scipy
        delta = np.array([0.1, -0.2, 0.05])
        q = error_quaternion(RotationDelta(delta))
        expected = Rotation.from_rotvec(delta).as_matrix()
        np.testing.assert_allclose(q.to_matrix(), expected, atol=1e-9)

    def test_small_angle_branch_continuous(self):
        for theta in (1e-10, 1e-8, 9.9e-8, 1.01e-7, 1e-6):
            q = error_quaternion([theta, 0.0, 0.0])
            expected = Rotation.from_rotvec([theta, 0.0, 0.0]).as_matrix()
            np.testing.assert_allclose(q.to_matrix(), expected, atol=1e-12)

    def test_result_is_unit_norm(self):
        for _ in range(100):
            q = error_quaternion(RNG.normal(size=3))
            assert abs(np.linalg.norm(q.as_array()) - 1.0) < 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            error_quaternion([np.nan, 0.0, 0.0])
        with pytest.raises(ValueError):
            error_quaternion([np.inf, 0.0, 0.0])

    @pytest.mark.parametrize(
        "vector, problem",
        [
            ([1.0, 0.0], "shape"),
            ([0.0, 0.0, 0.0, 1.0], "shape"),
            ([0.0, np.nan, 0.0], "finite"),
            ([0.0, 0.0, -np.inf], "finite"),
        ],
    )
    def test_bad_plain_vector_named(self, vector, problem):
        with pytest.raises(ValueError, match=f"rotation vector must .*{problem}"):
            error_quaternion(np.array(vector))

    @given(rotation_vectors())
    @example(np.array([1e-6, 0.0, 0.0]))
    @example(np.array([0.0, 6e-10, -8e-10]))
    @settings(max_examples=200, deadline=None)
    def test_log_recovers_rotation_vector(self, delta):
        recovered = error_quaternion(RotationDelta(delta)).to_rotation_vector()
        error = np.linalg.norm(recovered - delta)
        assert error < 1e-8
        # small angles keep their relative precision too (|d|^2 underflows
        # below about 1e-154 rad, hence the floor)
        assert error <= 1e-10 * max(np.linalg.norm(delta), 1e-150)


class TestQuatCompose:
    def test_identity_neutral(self):
        q = random_unit_quaternion(RNG)
        out = quat_compose(UnitQuaternion.identity(), q)
        np.testing.assert_allclose(out.as_array(), q.as_array(), atol=1e-12)

    def test_conjugate_gives_identity(self):
        q = random_unit_quaternion(RNG)
        out = quat_compose(q, q.conjugate())
        np.testing.assert_allclose(out.as_array(), [1.0, 0.0, 0.0, 0.0], atol=1e-9)

    def test_matches_rotation_matrix_product(self):
        for _ in range(200):
            a, b = random_unit_quaternion(RNG), random_unit_quaternion(RNG)
            np.testing.assert_allclose(
                quat_compose(a, b).to_matrix(), a.to_matrix() @ b.to_matrix(), atol=1e-9
            )

    def test_associative(self):
        for _ in range(100):
            a, b, c = (random_unit_quaternion(RNG) for _ in range(3))
            lhs = quat_compose(quat_compose(a, b), c)
            rhs = quat_compose(a, quat_compose(b, c))
            assert np.abs(lhs.to_matrix() - rhs.to_matrix()).max() < 1e-9

    def test_error_quaternion_left_increment(self):
        # composing the increment on the left equals rotating by q then exp(delta)
        for _ in range(50):
            delta = RNG.normal(size=3) * 0.5
            q = random_unit_quaternion(RNG)
            v = RNG.normal(size=3)
            composed = quat_compose(error_quaternion(delta), q)
            oracle = Rotation.from_rotvec(delta).as_matrix() @ (q.to_matrix() @ v)
            np.testing.assert_allclose(composed.rotate(v), oracle, atol=1e-8)


class TestUnitQuaternion:
    def test_constructor_normalizes(self):
        q = UnitQuaternion(2.0, 0.0, 0.0, 0.0)
        assert q.w == 1.0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            UnitQuaternion(0.0, 0.0, 0.0, 0.0)

    def test_matrix_round_trip_covers_branches(self):
        # large-angle rotations about each axis hit all from_matrix branches
        cases = [Rotation.from_rotvec(v).as_matrix() for v in ([3.1, 0, 0], [0, 3.1, 0], [0, 0, 3.1])]
        cases += [Rotation.random(20, rng=np.random.default_rng(0)).as_matrix()[i] for i in range(20)]
        for m in cases:
            q = UnitQuaternion.from_matrix(m)
            np.testing.assert_allclose(q.to_matrix(), m, atol=1e-9)

    def test_from_matrix_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            UnitQuaternion.from_matrix(np.eye(3) * 2.0)


class TestSE3:
    def test_identity_composition_noop(self):
        t = random_se3(RNG)
        for out in (se3_compose(SE3Transform.identity(), t), se3_compose(t, SE3Transform.identity())):
            np.testing.assert_allclose(out.translation, t.translation, atol=1e-12)
            np.testing.assert_allclose(out.rotation.to_matrix(), t.rotation.to_matrix(), atol=1e-12)

    def test_pure_translations_add(self):
        a = SE3Transform(UnitQuaternion.identity(), [1.0, 2.0, 3.0])
        b = SE3Transform(UnitQuaternion.identity(), [10.0, 20.0, 30.0])
        np.testing.assert_array_equal(se3_compose(a, b).translation, [11.0, 22.0, 33.0])

    def test_matches_homogeneous_matrix_product(self):
        for _ in range(200):
            a, b = random_se3(RNG), random_se3(RNG)
            np.testing.assert_allclose(
                se3_compose(a, b).to_matrix(), a.to_matrix() @ b.to_matrix(), atol=1e-9
            )

    def test_inverse_gives_identity(self):
        for _ in range(50):
            t = random_se3(RNG)
            out = se3_compose(t, t.inverse())
            np.testing.assert_allclose(out.to_matrix(), np.eye(4), atol=1e-9)

    def test_associative(self):
        for _ in range(100):
            a, b, c = (random_se3(RNG) for _ in range(3))
            lhs = se3_compose(se3_compose(a, b), c).to_matrix()
            rhs = se3_compose(a, se3_compose(b, c)).to_matrix()
            assert np.abs(lhs - rhs).max() < 1e-9

    def test_apply_matches_matrix(self):
        t = random_se3(RNG)
        p = RNG.normal(size=3)
        expected = (t.to_matrix() @ np.append(p, 1.0))[:3]
        np.testing.assert_allclose(t.apply(p), expected, atol=1e-12)


class TestWarp:
    def test_identity_chain(self):
        traj = warp_to_third_2d([SE3Transform.identity()] * 8)
        np.testing.assert_array_equal(traj, np.zeros((8, 2)))

    def test_subtracts_first_translation(self):
        chain = [
            SE3Transform(UnitQuaternion.identity(), [1.0, 2.0, 9.0]),
            SE3Transform(UnitQuaternion.identity(), [3.0, 5.0, 7.0]),
        ]
        np.testing.assert_array_equal(warp_to_third_2d(chain), [[0.0, 0.0], [2.0, 3.0]])

    def test_matches_matrix_chain_oracle(self):
        # accumulate 8 random steps two ways: library chain vs 4x4 products
        steps = [random_se3(RNG) for _ in range(7)]
        start = random_se3(RNG)
        chain = [start]
        for s in steps:
            chain.append(se3_compose(chain[-1], s))
        matrices = [start.to_matrix()]
        for s in steps:
            matrices.append(matrices[-1] @ s.to_matrix())
        expected = np.array([m[:2, 3] for m in matrices])
        expected -= expected[0]
        np.testing.assert_allclose(warp_to_third_2d(chain), expected, atol=1e-9)

    def test_always_starts_at_origin(self):
        for _ in range(20):
            chain = [random_se3(RNG) for _ in range(5)]
            pts = warp_to_third_2d(chain)
            assert pts[0, 0] == 0.0 and pts[0, 1] == 0.0

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            warp_to_third_2d([])


# The one-rotation code as it was before the array kernels, kept here as the
# reference the kernels must reproduce bit for bit.


def scalar_unit(w, x, y, z):
    q = np.array([w, x, y, z], dtype=float)
    return q / math.sqrt(float(q @ q))


def scalar_from_matrix(m):
    t = m[0, 0] + m[1, 1] + m[2, 2]
    if t > 0.0:
        s = math.sqrt(t + 1.0) * 2.0
        return scalar_unit((0.25 * s), (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s)
    if m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
        s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        return scalar_unit((m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s)
    if m[1, 1] >= m[2, 2]:
        s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        return scalar_unit((m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s, (m[1, 2] + m[2, 1]) / s)
    s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
    return scalar_unit((m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s, (m[1, 2] + m[2, 1]) / s, 0.25 * s)


def scalar_log(q):
    w, x, y, z = q
    if w < 0.0:
        w, x, y, z = -w, -x, -y, -z
    s = math.sqrt(x * x + y * y + z * z)
    if s < 1e-12:
        return np.array([2.0 * x, 2.0 * y, 2.0 * z])
    return (2.0 * math.atan2(s, w) / s) * np.array([x, y, z])


def scalar_exp(v):
    theta = float(np.linalg.norm(v))
    if theta == 0.0:
        return scalar_unit(1.0, 0.0, 0.0, 0.0)
    scale = 0.5 - theta * theta / 48.0 if theta < 1e-7 else math.sin(0.5 * theta) / theta
    return scalar_unit(math.cos(0.5 * theta), scale * v[0], scale * v[1], scale * v[2])


def scalar_matrix(q):
    w, x, y, z = q
    return np.array(
        [
            [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
            [2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)],
            [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)],
        ]
    )


def scalar_product(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return scalar_unit(
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def scalar_rotate(q, v):
    u = q[1:]
    t = 2.0 * np.cross(u, v)
    return v + q[0] * t + np.cross(u, t)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def branch_matrices():
    """Rotation matrices hitting each from_matrix branch, ties included, plus random ones."""
    cases = [np.eye(3), Rotation.from_rotvec([0.0, 0.0, 3.0]).as_matrix()]
    # about (0.76, 0, 0.65) and (0, 0.76, 0.65) by acos(-0.6): a negative
    # trace with the largest diagonal term at m00, then at m11
    for axis in ([0.76, 0.0, 0.65], [0.0, 0.76, 0.65], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]):
        axis = np.array(axis) / np.linalg.norm(axis)
        cases.append(Rotation.from_rotvec(axis * math.acos(-0.6)).as_matrix())
    for v in ([math.pi, 0, 0], [0, math.pi, 0], [0, 0, math.pi], [3.1, 0, 0], [0, 3.1, 0]):
        cases.append(Rotation.from_rotvec(v).as_matrix())
    # exact ties: half turns about two-axis diagonals, and a zero trace
    for rows in ([1, 0, 2], [2, 1, 0], [0, 2, 1], [2, 0, 1]):
        m = np.eye(3)[rows]
        cases.append(m if np.linalg.det(m) > 0 else -m)
    cases += list(Rotation.random(40, rng=np.random.default_rng(3)).as_matrix())
    return np.stack(cases)


def matrix_branch(m):
    t = m[0, 0] + m[1, 1] + m[2, 2]
    if t > 0.0:
        return 0
    if m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
        return 1
    return 2 if m[1, 1] >= m[2, 2] else 3


def log_cases(rng):
    """Unit quaternions with either sign of w, tiny and zero vector parts."""
    q = rng.normal(size=(40, 4))
    q[:5, 1:] *= 1e-13  # below the 1e-12 first-order log cut
    q[5:10, 1:] *= 1e-9
    q[10] = (1.0, 0.0, 0.0, 0.0)
    q[11] = (-1.0, 0.0, -0.0, 0.0)
    q[12] = (0.0, 1.0, 0.0, 0.0)
    return geometry.unit_quaternions(q)


def exp_cases(rng):
    """Rotation vectors: zero, below and at the series cut, and large."""
    direction = rng.normal(size=(60, 3))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    angles = np.concatenate([rng.uniform(0.0, 1e-7, 20), [1e-7, 1e-300, 0.0], rng.uniform(0.0, 3 * math.pi, 37)])
    v = direction * angles[:, None]
    v[-1] = (-0.0, 0.0, -0.0)
    return v


class TestKernelsMatchScalarCode:
    """Each array kernel, whole or as a batch of one, gives the scalar code's bits."""

    def test_from_matrix_covers_every_branch(self):
        matrices = branch_matrices()
        assert {matrix_branch(m) for m in matrices} == {0, 1, 2, 3}
        batch = geometry.quaternions_from_matrices(matrices)
        for m, row in zip(matrices, batch):
            assert_same_bits(row, scalar_from_matrix(m))
            assert_same_bits(UnitQuaternion.from_matrix(m).as_array(), scalar_from_matrix(m))

    def test_from_matrix_rejects_non_orthonormal_row(self):
        matrices = branch_matrices()
        matrices[3] *= 1.01
        with pytest.raises(ValueError, match="orthonormal"):
            geometry.quaternions_from_matrices(matrices)

    def test_log(self):
        q = log_cases(np.random.default_rng(5))
        batch = geometry.rotation_vectors(q)
        for row, out in zip(q, batch):
            assert_same_bits(out, scalar_log(row))
            assert_same_bits(UnitQuaternion._of(row).to_rotation_vector(), scalar_log(row))

    def test_exp(self):
        v = exp_cases(np.random.default_rng(6))
        batch = geometry.exp_rotations(v)
        for row, out in zip(v, batch):
            assert_same_bits(out, scalar_exp(row))
            assert_same_bits(error_quaternion(row).as_array(), scalar_exp(row))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_exp_rejects_non_finite_row(self, bad):
        v = exp_cases(np.random.default_rng(6))
        v[7, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            geometry.exp_rotations(v)

    def test_unit_quaternions_reject_non_finite_and_zero_rows(self):
        q = np.random.default_rng(8).normal(size=(6, 4))
        q[4, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            geometry.unit_quaternions(q)
        q[4] = 0.0
        with pytest.raises(ValueError, match="zero quaternion"):
            geometry.unit_quaternions(q)

    def test_matrices_products_rotations_and_norms(self):
        rng = np.random.default_rng(9)
        a, b = log_cases(rng), log_cases(rng)
        points = rng.normal(size=(len(a), 3)) * 10.0
        matrices = geometry.rotation_matrices(a)
        products = geometry.quaternion_products(a, b)
        rotated = geometry.rotate_points(a, points)
        norms = geometry.norms(points)
        for i in range(len(a)):
            assert_same_bits(matrices[i], scalar_matrix(a[i]))
            assert_same_bits(products[i], scalar_product(a[i], b[i]))
            assert_same_bits(rotated[i], scalar_rotate(a[i], points[i]))
            assert_same_bits(norms[i, 0], np.linalg.norm(points[i]))
            qa, qb = UnitQuaternion._of(a[i]), UnitQuaternion._of(b[i])
            assert_same_bits(qa.to_matrix(), scalar_matrix(a[i]))
            assert_same_bits(quat_compose(qa, qb).as_array(), scalar_product(a[i], b[i]))
            assert_same_bits(qa.rotate(points[i]), scalar_rotate(a[i], points[i]))
            assert_same_bits(UnitQuaternion(*b[i] * 3.0).as_array(), scalar_unit(*b[i] * 3.0))
