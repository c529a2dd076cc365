"""Geometry tests: quaternion/SE(3) algebra against independent matrix oracles."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial.transform import Rotation

from crossview.geometry import (
    RotationDelta,
    SE3Transform,
    Trajectory2D,
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
        np.testing.assert_array_equal(traj.points, np.zeros((8, 2)))

    def test_subtracts_first_translation(self):
        chain = [
            SE3Transform(UnitQuaternion.identity(), [1.0, 2.0, 9.0]),
            SE3Transform(UnitQuaternion.identity(), [3.0, 5.0, 7.0]),
        ]
        np.testing.assert_array_equal(warp_to_third_2d(chain).points, [[0.0, 0.0], [2.0, 3.0]])

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
        np.testing.assert_allclose(warp_to_third_2d(chain).points, expected, atol=1e-9)

    def test_always_starts_at_origin(self):
        for _ in range(20):
            chain = [random_se3(RNG) for _ in range(5)]
            pts = warp_to_third_2d(chain).points
            assert pts[0, 0] == 0.0 and pts[0, 1] == 0.0

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            warp_to_third_2d([])


class TestTrajectory2D:
    def test_requires_origin_start(self):
        with pytest.raises(ValueError):
            Trajectory2D([[0.1, 0.0], [1.0, 1.0]])

    def test_requires_2d_points(self):
        with pytest.raises(ValueError):
            Trajectory2D([[0.0, 0.0, 0.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Trajectory2D([[0.0, 0.0], [np.nan, 1.0]])

    def test_points_read_only(self):
        traj = Trajectory2D([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            traj.points[0, 0] = 5.0
