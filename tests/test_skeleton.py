"""Skeleton tests: delta integration, body frame, clip vectors."""

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from crossview.geometry import norms, rotation_matrices
from crossview.skeleton import (
    CLIP_LEN,
    LEFT_SHOULDER,
    NECK,
    RIGHT_SHOULDER,
    DegeneratePoseError,
    body_axes,
    body_centers,
    body_frame,
    integrate_pose_deltas,
    pose_clip_vector,
)

RNG = np.random.default_rng(999)


def matrix(q):
    return rotation_matrices(q[None])[0]

GRID = 2.0 ** -10  # test inputs on a coarse binary grid make sums exact


def grid_array(shape, scale=64):
    return RNG.integers(-scale * 1024, scale * 1024, size=shape) * GRID


def upright_pose(rng=None):
    """Random pose with a well-conditioned shoulder/neck triangle."""
    rng = rng or RNG
    joints = rng.normal(scale=0.3, size=(19, 3))
    joints[RIGHT_SHOULDER] = [0.25, 0.0, 1.5]
    joints[LEFT_SHOULDER] = [-0.25, 0.0, 1.5]
    joints[NECK] = [0.0, 0.1, 1.6]
    return joints + rng.normal(scale=0.01, size=(19, 3))


class TestIntegratePoseDeltas:
    def test_zero_deltas_repeat_init(self):
        init = RNG.normal(size=(19, 3))
        seq = integrate_pose_deltas(init, np.zeros((7, 19, 3)))
        assert seq.shape == (CLIP_LEN, 19, 3)
        for pose in seq:
            np.testing.assert_array_equal(pose, init)

    def test_unit_deltas_accumulate(self):
        init = np.zeros((19, 3))
        seq = integrate_pose_deltas(init, np.ones((7, 19, 3)))
        for k, pose in enumerate(seq):
            np.testing.assert_array_equal(pose, np.full((19, 3), float(k)))

    @pytest.mark.parametrize(
        "field, value, text",
        [
            ("deltas", np.zeros((6, 19, 3)), r"deltas must have shape \(7, 19, 3\)"),
            ("init", np.zeros((18, 3)), r"init must have shape \(19, 3\)"),
            ("init", [["0.5", 0.0, 0.0]] * 19, "init must hold numbers, got str"),
            ("deltas", [[[0.0, True, 0.0]] * 19] * 7, "deltas must hold numbers, got bool"),
            ("deltas", [[[0.0, 0.0, None]] * 19] * 7, "deltas must hold numbers, got NoneType"),
        ],
        ids=["six_deltas", "short_init", "string_init", "true_delta", "null_delta"],
    )
    def test_malformed_input_rejected_naming_it(self, field, value, text):
        arguments = {"init": np.zeros((19, 3)), "deltas": np.zeros((7, 19, 3)), field: value}
        with pytest.raises(ValueError, match=text):
            integrate_pose_deltas(**arguments)

    def test_constant_offset_between_two_inits(self):
        # same deltas fed to two start poses differ by exactly the start gap;
        # binary-grid inputs make the cumulative sums exact, so this is bitwise
        for _ in range(20):
            deltas = [grid_array((19, 3), scale=1) for _ in range(7)]
            p1 = grid_array((19, 3))
            p2 = grid_array((19, 3))
            seq1 = integrate_pose_deltas(p1, deltas)
            seq2 = integrate_pose_deltas(p2, deltas)
            for a, b in zip(seq1, seq2):
                np.testing.assert_array_equal(a - b, p1 - p2)

    def test_matches_cumulative_sum_oracle(self):
        init = RNG.normal(size=(19, 3))
        deltas = [RNG.normal(scale=0.05, size=(19, 3)) for _ in range(7)]
        seq = integrate_pose_deltas(init, deltas)
        running = init.copy()
        for k in range(1, CLIP_LEN):
            running = running + deltas[k - 1]
            np.testing.assert_allclose(seq[k], running, atol=1e-12)


class TestBodyFrame:
    def test_symmetric_example(self):
        joints = np.zeros((19, 3))
        joints[RIGHT_SHOULDER] = [1.0, 0.0, 0.0]
        joints[LEFT_SHOULDER] = [-1.0, 0.0, 0.0]
        joints[NECK] = [0.0, 0.0, 1.0]
        rotation, translation = body_frame(joints)
        np.testing.assert_allclose(translation, [0.0, 0.0, 1.0 / 3.0], atol=1e-15)
        np.testing.assert_allclose(matrix(rotation)[:, 0], [1.0, 0.0, 0.0], atol=1e-12)

    def test_rotation_orthonormal_and_proper(self):
        for _ in range(50):
            r = matrix(body_frame(upright_pose())[0])
            np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-9)
            assert abs(np.linalg.det(r) - 1.0) < 1e-9

    def test_equivariant_under_rigid_rotation(self):
        pose = upright_pose()
        base_rotation, base_translation = body_frame(pose)
        rot = Rotation.from_rotvec([0.3, -0.7, 0.4]).as_matrix()
        shift = np.array([1.0, -2.0, 0.5])
        moved = pose @ rot.T + shift
        rotation, translation = body_frame(moved)
        np.testing.assert_allclose(matrix(rotation), rot @ matrix(base_rotation), atol=1e-9)
        np.testing.assert_allclose(translation, rot @ base_translation + shift, atol=1e-9)

    def test_coincident_shoulders_degenerate(self):
        joints = RNG.normal(size=(19, 3))
        joints[LEFT_SHOULDER] = joints[RIGHT_SHOULDER]
        with pytest.raises(DegeneratePoseError):
            body_frame(joints)

    def test_collinear_neck_degenerate(self):
        joints = RNG.normal(size=(19, 3))
        joints[RIGHT_SHOULDER] = [1.0, 0.0, 0.0]
        joints[LEFT_SHOULDER] = [-1.0, 0.0, 0.0]
        joints[NECK] = [0.5, 0.0, 0.0]
        with pytest.raises(DegeneratePoseError):
            body_frame(joints)

    def test_batched_axes_match_body_frame_and_flag_degenerate(self):
        joints = np.stack([upright_pose() for _ in range(6)])
        joints[3, LEFT_SHOULDER] = joints[3, RIGHT_SHOULDER]
        axes, defined = body_axes(joints.reshape(2, 3, 19, 3))
        assert axes.shape == (2, 3, 3, 3)
        np.testing.assert_array_equal(defined.ravel(), [True, True, True, False, True, True])
        for i in (0, 1, 2, 4, 5):
            rotation, translation = body_frame(joints[i])
            np.testing.assert_allclose(axes.reshape(6, 3, 3)[i], matrix(rotation), atol=1e-12)
            np.testing.assert_array_equal(body_centers(joints)[i], translation)

    @staticmethod
    def scalar_axes(joints):
        # one pose at a time: each unit vector divided by its own norm, z flipped up, y = z x x
        left = joints[LEFT_SHOULDER]
        shoulder = joints[RIGHT_SHOULDER] - left
        cross = np.cross(shoulder, joints[NECK] - left)
        x_axis = shoulder / norms(shoulder[None])[0]
        z_axis = cross / norms(cross[None])[0]
        if z_axis[2] < 0.0:
            z_axis = -z_axis
        return np.column_stack([x_axis, np.cross(z_axis, x_axis), z_axis])

    @pytest.mark.parametrize("case", ["random", "signed_zeros", "unit_components", "near_1e150", "near_1e-150"])
    def test_batched_axes_match_one_pose_at_a_time_bit_for_bit(self, case):
        # the shoulder edge and the cross product share one norms() call, and
        # a NaN row (a collapsed triangle, or a cross product past overflow)
        # must not change any other row's bits
        rng = np.random.default_rng(29)
        joints = rng.normal(size=(400, 19, 3))
        if case == "signed_zeros":
            joints *= rng.choice([0.0, -0.0, 1.0], size=joints.shape)
        elif case == "unit_components":
            joints = rng.choice([1.0, -1.0, 0.0, -0.0], size=joints.shape)
        elif case != "random":
            scale = 1e150 if case == "near_1e150" else 1e-150
            joints *= scale * rng.uniform(0.5, 2e4, size=(400, 1, 1))
        joints[:8, NECK] = joints[:8, LEFT_SHOULDER]
        joints[8:16, RIGHT_SHOULDER] = joints[8:16, LEFT_SHOULDER]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            axes, defined = body_axes(joints)
            assert axes.tobytes() == np.stack([self.scalar_axes(j) for j in joints]).tobytes()
            for i in range(0, len(joints), 7):
                alone, one_defined = body_axes(joints[i])
                assert alone.tobytes() == axes[i].tobytes() and one_defined == defined[i]
        assert not defined[:16].any()

    def test_a_torso_a_hair_off_collinear_is_undefined_with_finite_axes(self):
        # a cross product of norm 2e-12, inside (0, 1e-9): the axes are finite, so only defined tells
        joints = np.zeros((19, 3))
        joints[RIGHT_SHOULDER] = [0.2, 0.0, 1.5]
        joints[LEFT_SHOULDER] = [-0.2, 0.0, 1.5]
        joints[NECK] = [0.0, 1e-11, 1.5]
        axes, defined = body_axes(joints)
        assert not defined and np.isfinite(axes).all()
        np.testing.assert_allclose(axes, np.eye(3), atol=1e-12)
        with pytest.raises(DegeneratePoseError):  # body_frame reads defined
            body_frame(joints)
        joints[NECK, 1] = 0.0  # on the line: the cross product is 0, and its axes are NaN
        with np.errstate(invalid="ignore"):
            axes, defined = body_axes(joints)
        assert not defined and np.isnan(axes[:, 1:]).all()

    def test_center_is_torso_centroid(self):
        j = upright_pose()
        expected = (j[RIGHT_SHOULDER] + j[LEFT_SHOULDER] + j[NECK]) / 3.0
        np.testing.assert_array_equal(body_centers(j), expected)

    @pytest.mark.parametrize(
        "joints, problem",
        [
            *((np.zeros(shape), r"have shape \(19, 3\)") for shape in [(18, 3), (19, 2), (57,), (2, 19, 3)]),
            ([["0.5", 0.0, 0.0]] * 19, "hold numbers, got str"),
            ([[True, 0.0, 0.0]] * 19, "hold numbers, got bool"),
            ([[None, 0.0, 0.0]] * 19, "hold numbers, got NoneType"),
        ],
        ids=["18x3", "19x2", "57", "2x19x3", "string", "true", "null"],
    )
    def test_malformed_joints_rejected(self, joints, problem):
        with pytest.raises(ValueError, match=f"joints must {problem}"):
            body_frame(joints)


class TestPoseClipVector:
    def test_zero_sequence(self):
        np.testing.assert_array_equal(pose_clip_vector(np.zeros((8, 19, 3))), np.zeros(456))

    def test_frame_blocks_in_order(self):
        vec = pose_clip_vector([np.full((19, 3), float(k)) for k in range(8)])
        for k in range(8):
            np.testing.assert_array_equal(vec[57 * k : 57 * (k + 1)], np.full(57, float(k)))

    def test_reshape_round_trip(self):
        frames = RNG.normal(size=(8, 19, 3))
        np.testing.assert_array_equal(pose_clip_vector(frames).reshape(8, 19, 3), frames)

    def test_partial_sequence_rejected(self):
        with pytest.raises(ValueError, match=r"clip must have shape \(8, 19, 3\)"):
            pose_clip_vector(np.zeros((5, 19, 3)))
