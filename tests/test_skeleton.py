"""Skeleton tests: delta integration, body frame, clip vectors."""

import json

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from crossview.skeleton import (
    CLIP_LEN,
    LEFT_SHOULDER,
    NECK,
    RIGHT_SHOULDER,
    DegeneratePoseError,
    Joint19Pose,
    PoseSequence,
    body_axes,
    body_center,
    body_centers,
    body_frame,
    integrate_pose_deltas,
    pose_clip_vector,
    pose_distance,
    sequence_from_json,
    sequence_to_json,
)

RNG = np.random.default_rng(999)

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
    return Joint19Pose(joints + rng.normal(scale=0.01, size=(19, 3)))


class TestIntegratePoseDeltas:
    def test_zero_deltas_repeat_init(self):
        init = Joint19Pose(RNG.normal(size=(19, 3)))
        seq = integrate_pose_deltas(init, np.zeros((7, 19, 3)))
        assert len(seq) == CLIP_LEN
        for pose in seq:
            np.testing.assert_array_equal(pose.joints, init.joints)

    def test_unit_deltas_accumulate(self):
        init = Joint19Pose(np.zeros((19, 3)))
        seq = integrate_pose_deltas(init, np.ones((7, 19, 3)))
        for k, pose in enumerate(seq):
            np.testing.assert_array_equal(pose.joints, np.full((19, 3), float(k)))

    def test_wrong_delta_count_rejected(self):
        init = Joint19Pose(np.zeros((19, 3)))
        with pytest.raises(ValueError):
            integrate_pose_deltas(init, np.zeros((6, 19, 3)))

    def test_constant_offset_between_two_inits(self):
        # same deltas fed to two start poses differ by exactly the start gap;
        # binary-grid inputs make the cumulative sums exact, so this is bitwise
        for _ in range(20):
            deltas = [grid_array((19, 3), scale=1) for _ in range(7)]
            p1 = Joint19Pose(grid_array((19, 3)))
            p2 = Joint19Pose(grid_array((19, 3)))
            seq1 = integrate_pose_deltas(p1, deltas)
            seq2 = integrate_pose_deltas(p2, deltas)
            offset = p1.joints - p2.joints
            for a, b in zip(seq1, seq2):
                np.testing.assert_array_equal(a.joints - b.joints, offset)

    def test_matches_cumulative_sum_oracle(self):
        init = Joint19Pose(RNG.normal(size=(19, 3)))
        deltas = [RNG.normal(scale=0.05, size=(19, 3)) for _ in range(7)]
        seq = integrate_pose_deltas(init, deltas)
        running = init.joints.copy()
        for k in range(1, CLIP_LEN):
            running = running + deltas[k - 1]
            np.testing.assert_allclose(seq[k].joints, running, atol=1e-12)


class TestBodyFrame:
    def test_symmetric_example(self):
        joints = np.zeros((19, 3))
        joints[RIGHT_SHOULDER] = [1.0, 0.0, 0.0]
        joints[LEFT_SHOULDER] = [-1.0, 0.0, 0.0]
        joints[NECK] = [0.0, 0.0, 1.0]
        frame = body_frame(Joint19Pose(joints))
        np.testing.assert_allclose(frame.translation, [0.0, 0.0, 1.0 / 3.0], atol=1e-15)
        np.testing.assert_allclose(frame.rotation.to_matrix()[:, 0], [1.0, 0.0, 0.0], atol=1e-12)

    def test_rotation_orthonormal_and_proper(self):
        for _ in range(50):
            r = body_frame(upright_pose()).rotation.to_matrix()
            np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-9)
            assert abs(np.linalg.det(r) - 1.0) < 1e-9

    def test_equivariant_under_rigid_rotation(self):
        pose = upright_pose()
        base = body_frame(pose)
        rot = Rotation.from_rotvec([0.3, -0.7, 0.4]).as_matrix()
        shift = np.array([1.0, -2.0, 0.5])
        moved = Joint19Pose(pose.joints @ rot.T + shift)
        frame = body_frame(moved)
        np.testing.assert_allclose(frame.rotation.to_matrix(), rot @ base.rotation.to_matrix(), atol=1e-9)
        np.testing.assert_allclose(frame.translation, rot @ base.translation + shift, atol=1e-9)

    def test_coincident_shoulders_degenerate(self):
        joints = RNG.normal(size=(19, 3))
        joints[LEFT_SHOULDER] = joints[RIGHT_SHOULDER]
        with pytest.raises(DegeneratePoseError):
            body_frame(Joint19Pose(joints))

    def test_collinear_neck_degenerate(self):
        joints = RNG.normal(size=(19, 3))
        joints[RIGHT_SHOULDER] = [1.0, 0.0, 0.0]
        joints[LEFT_SHOULDER] = [-1.0, 0.0, 0.0]
        joints[NECK] = [0.5, 0.0, 0.0]
        with pytest.raises(DegeneratePoseError):
            body_frame(Joint19Pose(joints))

    def test_batched_axes_match_body_frame_and_flag_degenerate(self):
        joints = np.stack([upright_pose().joints for _ in range(6)])
        joints[3, LEFT_SHOULDER] = joints[3, RIGHT_SHOULDER]
        axes, defined = body_axes(joints.reshape(2, 3, 19, 3))
        assert axes.shape == (2, 3, 3, 3)
        np.testing.assert_array_equal(defined.ravel(), [True, True, True, False, True, True])
        for i in (0, 1, 2, 4, 5):
            frame = body_frame(Joint19Pose(joints[i]))
            np.testing.assert_allclose(axes.reshape(6, 3, 3)[i], frame.rotation.to_matrix(), atol=1e-12)
            np.testing.assert_array_equal(body_centers(joints)[i], frame.translation)

    def test_center_is_torso_centroid(self):
        pose = upright_pose()
        j = pose.joints
        expected = (j[RIGHT_SHOULDER] + j[LEFT_SHOULDER] + j[NECK]) / 3.0
        np.testing.assert_array_equal(body_center(pose), expected)


class TestPoseClipVector:
    def test_zero_sequence(self):
        seq = PoseSequence([Joint19Pose(np.zeros((19, 3)))] * 8)
        np.testing.assert_array_equal(pose_clip_vector(seq), np.zeros(456))

    def test_frame_blocks_in_order(self):
        seq = PoseSequence([Joint19Pose(np.full((19, 3), float(k))) for k in range(8)])
        vec = pose_clip_vector(seq)
        for k in range(8):
            np.testing.assert_array_equal(vec[57 * k : 57 * (k + 1)], np.full(57, float(k)))

    def test_reshape_round_trip(self):
        frames = RNG.normal(size=(8, 19, 3))
        seq = PoseSequence([Joint19Pose(f) for f in frames])
        np.testing.assert_array_equal(pose_clip_vector(seq).reshape(8, 19, 3), frames)

    def test_partial_sequence_rejected(self):
        seq = PoseSequence.partial([Joint19Pose(np.zeros((19, 3)))] * 5)
        with pytest.raises(ValueError):
            pose_clip_vector(seq)


class TestPoseDistance:
    def test_identical_is_zero(self):
        p = Joint19Pose(RNG.normal(size=(19, 3)))
        assert pose_distance(p, p) == 0.0

    def test_unit_shift_is_one(self):
        p = Joint19Pose(RNG.normal(size=(19, 3)))
        q = p.shifted(np.tile([1.0, 0.0, 0.0], (19, 1)))
        assert pose_distance(p, q) == pytest.approx(1.0, abs=1e-12)

    def test_matches_brute_force(self):
        a = Joint19Pose(RNG.normal(size=(19, 3)))
        b = Joint19Pose(RNG.normal(size=(19, 3)))
        brute = sum(np.linalg.norm(a.joints[i] - b.joints[i]) for i in range(19)) / 19.0
        assert pose_distance(a, b) == pytest.approx(brute, abs=1e-12)

    def test_symmetric(self):
        a = Joint19Pose(RNG.normal(size=(19, 3)))
        b = Joint19Pose(RNG.normal(size=(19, 3)))
        assert pose_distance(a, b) == pose_distance(b, a)


class TestSequences:
    def test_requires_eight_poses_by_default(self):
        with pytest.raises(ValueError):
            PoseSequence([Joint19Pose(np.zeros((19, 3)))] * 3)

    def test_partial_allows_other_lengths(self):
        seq = PoseSequence.partial([Joint19Pose(np.zeros((19, 3)))] * 3)
        assert len(seq) == 3 and not seq.is_clip()

    def test_timestamps_must_increase(self):
        poses = [Joint19Pose(np.zeros((19, 3)))] * 8
        with pytest.raises(ValueError):
            PoseSequence(poses, timestamps=[0, 1, 2, 3, 3, 5, 6, 7])

    def test_json_round_trip(self):
        frames = RNG.normal(size=(8, 19, 3))
        seq = PoseSequence([Joint19Pose(f) for f in frames])
        restored = sequence_from_json(sequence_to_json(seq))
        for a, b in zip(seq, restored):
            np.testing.assert_array_equal(a.joints, b.joints)

    def test_json_is_frame_list_of_triples(self):
        seq = PoseSequence([Joint19Pose(np.zeros((19, 3)))] * 8)
        data = json.loads(sequence_to_json(seq))
        assert len(data) == 8 and len(data[0]) == 19 and len(data[0][0]) == 3

    def test_wrong_joint_count_rejected(self):
        with pytest.raises(ValueError):
            Joint19Pose(np.zeros((18, 3)))
        with pytest.raises(ValueError):
            Joint19Pose(np.full((19, 3), np.nan))
