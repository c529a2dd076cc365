"""Motion tests: box tracks, ego integration, L1 losses."""

import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from crossview.geometry import SE3Transform, UnitQuaternion, error_quaternion
from crossview.motion import (
    BoundingBox,
    bbox_trajectory,
    ego_offsets,
    integrate_ego_motion,
    trajectory_l1_loss,
)

RNG = np.random.default_rng(4321)


def box_at(cx, cy, half=0.4):
    return BoundingBox(cx - half, cy - half, cx + half, cy + half)


def constant_deltas(translation=(0.0, 0.0, 0.0)):
    return np.array([[(0.0, 0.0, 0.0), translation]] * 7)


def random_deltas(rng, rotation_scale):
    """(7, 2, 3) increments: per step a rotation vector, then a translation."""
    return np.array([(rng.normal(size=3) * rotation_scale, rng.normal(size=3)) for _ in range(7)])


class TestBoundingBox:
    def test_center(self):
        np.testing.assert_array_equal(BoundingBox(0.0, 0.0, 2.0, 4.0).center, [1.0, 2.0])

    def test_corner_order_enforced(self):
        with pytest.raises(ValueError):
            BoundingBox(1.0, 0.0, 0.0, 1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("corner", ["lx", "ly", "rx", "ry"])
    def test_non_finite_rejected(self, corner, value):
        corners = {"lx": 0.0, "ly": 0.0, "rx": 1.0, "ry": 1.0, corner: value}
        with pytest.raises(ValueError, match="finite"):
            BoundingBox(**corners)


class TestBboxTrajectory:
    def test_static_boxes(self):
        traj = bbox_trajectory([box_at(3.0, 4.0)] * 8)
        np.testing.assert_array_equal(traj, np.zeros((8, 2)))

    def test_sliding_plus_two_x(self):
        traj = bbox_trajectory([box_at(2.0 * k, 0.0) for k in range(8)])
        expected = np.array([[2.0 * k, 0.0] for k in range(8)])
        np.testing.assert_array_equal(traj, expected)

    def test_matches_center_subtraction(self):
        centers = RNG.normal(size=(8, 2)) * 5.0
        boxes = [box_at(cx, cy, half=0.2 + 0.1 * i) for i, (cx, cy) in enumerate(centers)]
        traj = bbox_trajectory(boxes)
        np.testing.assert_allclose(traj, centers - centers[0], atol=1e-12)

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError):
            bbox_trajectory([box_at(0.0, 0.0)] * 7)


class TestIntegrateEgoMotion:
    def test_identity_deltas_stay_at_origin(self):
        traj = integrate_ego_motion(SE3Transform.identity(), constant_deltas())
        np.testing.assert_array_equal(traj, np.zeros((8, 2)))

    def test_straight_walk(self):
        traj = integrate_ego_motion(SE3Transform.identity(), constant_deltas((1.0, 0.0, 0.0)))
        expected = np.array([[float(k), 0.0] for k in range(8)])
        np.testing.assert_allclose(traj, expected, atol=1e-12)

    def test_rotated_start_walks_rotated(self):
        # start frame rotated 90 degrees about world z turns +x steps into +y
        quarter = UnitQuaternion(math.cos(math.pi / 4), 0.0, 0.0, math.sin(math.pi / 4))
        t_init = SE3Transform(quarter, [5.0, -3.0, 1.0])
        traj = integrate_ego_motion(t_init, constant_deltas((1.0, 0.0, 0.0)))
        expected = np.array([[0.0, float(k)] for k in range(8)])
        np.testing.assert_allclose(traj, expected, atol=1e-9)

    def test_matches_homogeneous_chain_oracle(self):
        rng = np.random.default_rng(7)
        t_init = SE3Transform(UnitQuaternion(*rng.normal(size=4)), rng.normal(size=3))
        deltas = random_deltas(rng, 0.2)
        traj = integrate_ego_motion(t_init, deltas)

        m = t_init.to_matrix()
        chain = [m]
        for rotation, translation in deltas:
            step = np.eye(4)
            step[:3, :3] = Rotation.from_rotvec(rotation).as_matrix()
            step[:3, 3] = translation
            m = m @ step
            chain.append(m)
        expected = np.array([c[:2, 3] for c in chain])
        expected -= expected[0]
        np.testing.assert_allclose(traj, expected, atol=1e-9)

    def test_equivariant_under_plane_rotation(self):
        rng = np.random.default_rng(11)
        t_init = SE3Transform(UnitQuaternion(*rng.normal(size=4)), rng.normal(size=3))
        deltas = random_deltas(rng, 0.1)
        base = integrate_ego_motion(t_init, deltas)
        phi = 0.77
        rz = SE3Transform(UnitQuaternion(math.cos(phi / 2), 0.0, 0.0, math.sin(phi / 2)), [0.0, 0.0, 0.0])
        from crossview.geometry import se3_compose

        rotated = integrate_ego_motion(se3_compose(rz, t_init), deltas)
        plane = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
        np.testing.assert_allclose(rotated, base @ plane.T, atol=1e-9)

    def test_wrong_delta_count_rejected(self):
        from crossview.verification import EgoObservation

        with pytest.raises(ValueError, match="motion_deltas"):
            EgoObservation(np.zeros((7, 19, 3)), np.zeros((6, 2, 3)))


class TestTrajectoryL1:
    def test_identical_is_zero(self):
        pts = np.vstack([np.zeros((1, 2)), RNG.normal(size=(7, 2))])
        a, b = pts, pts.copy()
        assert trajectory_l1_loss(a, b) == 0.0

    def test_constant_offset_example(self):
        base = np.zeros((8, 2))
        shifted = np.vstack([np.zeros((1, 2)), np.ones((7, 2))])
        assert trajectory_l1_loss(base, shifted) == 14.0

    def test_matches_brute_force(self):
        a = np.vstack([np.zeros((1, 2)), RNG.normal(size=(7, 2))])
        b = np.vstack([np.zeros((1, 2)), RNG.normal(size=(7, 2))])
        brute = sum(abs(a[i, 0] - b[i, 0]) + abs(a[i, 1] - b[i, 1]) for i in range(8))
        assert trajectory_l1_loss(a, b) == pytest.approx(brute, abs=1e-12)

    def test_symmetric(self):
        a = np.vstack([np.zeros((1, 2)), RNG.normal(size=(7, 2))])
        b = np.vstack([np.zeros((1, 2)), RNG.normal(size=(7, 2))])
        assert trajectory_l1_loss(a, b) == trajectory_l1_loss(b, a)

    def test_triangle_inequality(self):
        for _ in range(20):
            pts = [np.vstack([np.zeros((1, 2)), RNG.normal(size=(7, 2))]) for _ in range(3)]
            a, b, c = pts
            assert trajectory_l1_loss(a, c) <= trajectory_l1_loss(a, b) + trajectory_l1_loss(b, c) + 1e-12

    def test_offset_sensitivity_bound(self):
        # shifting the 7 non-anchor points by (dx, dy) moves the loss by at most 7(|dx|+|dy|)
        base = np.vstack([np.zeros((1, 2)), RNG.normal(size=(7, 2))])
        other = np.vstack([np.zeros((1, 2)), RNG.normal(size=(7, 2))])
        d = np.array([0.3, -0.4])
        shifted = base.copy()
        shifted[1:] += d
        before = trajectory_l1_loss(base, other)
        after = trajectory_l1_loss(shifted, other)
        assert abs(after - before) <= 7 * (abs(d[0]) + abs(d[1])) + 1e-12

    def test_length_mismatch_rejected(self):
        a = np.zeros((8, 2))
        b = np.zeros((5, 2))
        with pytest.raises(ValueError):
            trajectory_l1_loss(a, b)


class TestEgoOffsets:
    def test_rotated_offsets_match_integration_from_any_start(self):
        # one integration of the increments serves every start transform
        rng = np.random.default_rng(19)
        deltas = random_deltas(rng, 0.2)
        offsets = ego_offsets(deltas)
        assert offsets.shape == (8, 3)
        assert not offsets[0].any()
        for _ in range(5):
            t_init = SE3Transform(UnitQuaternion(*rng.normal(size=4)), rng.normal(size=3) * 10.0)
            expected = integrate_ego_motion(t_init, deltas)
            got = offsets @ t_init.rotation.to_matrix()[:2].T
            np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)


    @staticmethod
    def chained_offsets(deltas):
        # one error quaternion and one rotation matrix per step
        offsets = np.zeros((8, 3))
        frame = np.eye(3)
        for k, (rotation, translation) in enumerate(deltas):
            offsets[k + 1] = offsets[k] + frame @ translation
            frame = frame @ error_quaternion(rotation).to_matrix()
        return offsets

    @pytest.mark.parametrize("rotation_scale", [0.0, 1e-9, 3e-8, 0.2, 2.5])
    def test_bits_match_per_step_exponentials(self, rotation_scale):
        # zero, below the 1e-7 series cut, and large rotations; one step of
        # each kind mixed into every clip as well
        rng = np.random.default_rng(23)
        for _ in range(20):
            deltas = random_deltas(rng, rotation_scale)
            deltas[2, 0] = 0.0
            deltas[4, 0] *= 1e-9
            deltas[5, 0] = (math.pi, 0.0, -0.0)
            got = ego_offsets(deltas)
            assert got.tobytes() == self.chained_offsets(deltas).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rotation_rejected(self, bad):
        deltas = random_deltas(np.random.default_rng(29), 0.2)
        deltas[3, 0, 1] = bad
        with pytest.raises(ValueError, match="rotation vector must be finite"):
            ego_offsets(deltas)


class TestZeroNoiseConsistency:
    def test_ego_track_equals_box_track_on_simulated_clips(self):
        # the central cross-view premise, checked end to end on the simulator
        import crossview as cv
        from crossview.skeleton import body_frame

        scenario = cv.two_person_scenario(crossing=False, duration=24, seed=3)
        for clip in cv.generate_scene(scenario):
            wearer = next(c for c in clip.candidates if c.person_id == clip.ground_truth_wearer)
            ego = integrate_ego_motion(body_frame(wearer.poses[0]), clip.ego.motion_deltas)
            boxes = bbox_trajectory(wearer.boxes)
            np.testing.assert_allclose(ego, boxes, atol=1e-9)
