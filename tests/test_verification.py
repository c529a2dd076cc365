"""Verification tests: channel scoring, localization, failure modes."""

import hashlib
import json
import re
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

import crossview as cv
from crossview.action_codebook import fit_codebook
from crossview.motion import BoundingBox, _ego_offsets
from crossview.skeleton import (
    LEFT_SHOULDER,
    NECK,
    RIGHT_SHOULDER,
    DegeneratePoseError,
    body_centers,
)
from crossview.verification import (
    BLOCK_PAIRS,
    SCORE_FIELDS,
    CandidateObservation,
    EgoObservation,
    InsufficientObservationError,
    ScoringConfig,
    VerificationScore,
    _score_block,
    localize,
    score_scene,
    verify_pair,
)

GOLDEN = json.loads((Path(__file__).parent / "golden" / "metrics.json").read_text())

RNG = np.random.default_rng(55)


def facing_x_pose(offset=(0.0, 0.0)):
    """Static pose whose body-frame x axis is the world x axis."""
    joints = RNG.normal(scale=0.05, size=(19, 3))
    joints[:, 0] += offset[0]
    joints[:, 1] += offset[1]
    joints[RIGHT_SHOULDER] = [0.2 + offset[0], offset[1], 1.5]
    joints[LEFT_SHOULDER] = [-0.2 + offset[0], offset[1], 1.5]
    joints[NECK] = [offset[0], 0.1 + offset[1], 1.6]
    return joints


def zero_pose_deltas():
    return np.zeros((7, 19, 3))


def constant_motion_deltas(translation=(0.0, 0.0, 0.0)):
    return np.array([[(0.0, 0.0, 0.0), translation]] * 7)


def static_candidate(pose, person_id=0, half=0.5, valid=None):
    cx, cy = body_centers(pose)[:2]
    boxes = [BoundingBox(cx - half, cy - half, cx + half, cy + half)] * 8
    return CandidateObservation(person_id, [pose] * 8, boxes, valid)


def far_codebook_for(*sequences):
    """Codebook whose centroids are the given clips plus far-away fillers.

    With well-separated centroids the softmax scores saturate, so a clip that
    is itself a centroid gets cross-entropy exactly zero against itself.
    """
    fillers = []
    for i in range(2):
        pose = facing_x_pose(offset=(50.0 + 40.0 * i, -60.0))
        fillers.append(np.stack([pose] * 8))
    return fit_codebook(list(sequences) + fillers, k=len(sequences) + 2, seed=0)


class TestEgoObservation:
    def test_stores_read_only_array_copies(self):
        pose_deltas = [RNG.normal(size=(19, 3)) for _ in range(7)]
        motion_deltas = [(RNG.normal(size=3), RNG.normal(size=3)) for _ in range(7)]
        ego = EgoObservation(pose_deltas, motion_deltas)
        assert ego.pose_deltas.shape == (7, 19, 3)
        assert ego.motion_deltas.shape == (7, 2, 3)
        np.testing.assert_array_equal(ego.pose_deltas[3], pose_deltas[3])
        np.testing.assert_array_equal(ego.motion_deltas[3, 0], motion_deltas[3][0])
        np.testing.assert_array_equal(ego.motion_deltas[3, 1], motion_deltas[3][1])
        for stored in (ego.pose_deltas, ego.motion_deltas):
            with pytest.raises(ValueError):
                stored[0, 0, 0] = 1.0
        pose_deltas[0][0, 0] = 99.0  # the caller's arrays are not shared
        assert ego.pose_deltas[0, 0, 0] != 99.0

    @pytest.mark.parametrize(
        "field, shape",
        [
            ("pose_deltas", (6, 19, 3)),
            ("pose_deltas", (7, 19, 2)),
            ("motion_deltas", (7, 3)),
            ("motion_deltas", (8, 2, 3)),
        ],
    )
    def test_wrong_shape_rejected_naming_field(self, field, shape):
        arrays = {"pose_deltas": zero_pose_deltas(), "motion_deltas": constant_motion_deltas()}
        arrays[field] = np.zeros(shape)
        with pytest.raises(ValueError, match=rf"{field} must have shape \(7, "):
            EgoObservation(**arrays)

    @pytest.mark.parametrize("field", ["pose_deltas", "motion_deltas"])
    @pytest.mark.parametrize(
        "value, problem",
        [
            (float("nan"), "be finite"),
            (float("inf"), "be finite"),
            ("0.5", "hold numbers, got str"),
            (True, "hold numbers, got bool"),
            (None, "hold numbers, got NoneType"),
        ],
    )
    def test_bad_value_rejected_naming_field(self, field, value, problem):
        arrays = {"pose_deltas": zero_pose_deltas().tolist(), "motion_deltas": constant_motion_deltas().tolist()}
        arrays[field][-1][1][2] = value
        with pytest.raises(ValueError, match=f"{field} must {problem}"):
            EgoObservation(**arrays)


class TestCandidateObservation:
    def boxes(self):
        return [BoundingBox(0.0, 0.0, 1.0, 1.0)] * 8

    def test_stores_read_only_array_copy(self):
        poses = np.stack([facing_x_pose() for _ in range(8)])
        candidate = CandidateObservation(0, poses, self.boxes())
        np.testing.assert_array_equal(candidate.poses, poses)
        with pytest.raises(ValueError):
            candidate.poses[0, 0, 0] = 1.0
        poses[0, 0, 0] = 99.0  # the caller's array is not shared
        assert candidate.poses[0, 0, 0] != 99.0

    @pytest.mark.parametrize("shape", [(7, 19, 3), (8, 18, 3), (8, 19, 2), (8, 57)])
    def test_wrong_shape_rejected_naming_field(self, shape):
        with pytest.raises(ValueError, match=r"poses must have shape \(8, 19, 3\)"):
            CandidateObservation(0, np.zeros(shape), self.boxes())

    @pytest.mark.parametrize(
        "field, value, text",
        [
            ("poses", [np.zeros((19, 3))] * 7 + [np.zeros((18, 3))], r"poses must be an array of numbers of shape"),
            ("poses", [[["0.5", 0.0, 0.0]] * 19] * 8, "poses must hold numbers, got str"),
            ("poses", [[[True, 0.0, 0.0]] * 19] * 8, "poses must hold numbers, got bool"),
            ("poses", [[[None, 0.0, 0.0]] * 19] * 8, "poses must hold numbers, got NoneType"),
            ("valid", ["no"] * 8, "valid must hold true or false, got str"),
            ("valid", [1] * 8, "valid must hold true or false, got int"),
            ("valid", [None] * 8, "valid must hold true or false, got NoneType"),
            ("valid", np.ones(8), "valid must hold true or false, got float64"),
            ("valid", [True] * 7, r"valid must have shape \(8,\), got \(7,\)"),
            ("person_id", 1.7, "person_id must be an integer, got 1.7"),  # int() read it as 1
            ("person_id", "1", "person_id must be a number, got '1'"),
            ("poses", [np.zeros((19, 3))] * 7 + [np.zeros((19, 3), str)], "poses must hold numbers, got str_"),
        ],
        ids=[
            "ragged_poses",
            "string_pose",
            "true_pose",
            "null_pose",
            "string_valid",
            "int_valid",
            "null_valid",
            "float_valid_array",
            "seven_flags",
            "fractional_person_id",
            "string_person_id",
            "string_array_among_poses",
        ],
    )
    def test_malformed_field_rejected_naming_it(self, field, value, text):
        fields = {"person_id": 0, "poses": np.zeros((8, 19, 3)), "valid": [True] * 8, field: value}
        with pytest.raises(ValueError, match=text):
            CandidateObservation(fields["person_id"], fields["poses"], self.boxes(), fields["valid"])

    def test_valid_is_a_tuple_of_bools(self):
        flags = np.array([True] * 7 + [False])
        candidate = CandidateObservation(0, np.zeros((8, 19, 3)), self.boxes(), flags)
        assert candidate.valid == (True,) * 7 + (False,)
        assert all(type(v) is bool for v in candidate.valid) and not candidate.fully_valid()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected_naming_field(self, value):
        poses = np.zeros((8, 19, 3))
        poses[-1, 4, 2] = value
        with pytest.raises(ValueError, match="poses must be finite"):
            CandidateObservation(0, poses, self.boxes())

    def test_boxes_that_are_not_bounding_boxes_rejected(self):
        with pytest.raises(ValueError, match="boxes entries must be BoundingBox"):
            CandidateObservation(0, np.zeros((8, 19, 3)), [(0.0, 0.0, 1.0, 1.0)] * 8)


class TestPublicConstructorsAfterGenerateScene:
    """generate_scene builds its objects without the checks its Scene already ran; the public constructors keep them."""

    @pytest.fixture(scope="class")
    def clip(self):
        noise = cv.NoiseParams(sigma_pose=0.02, sigma_odo_trans=0.01, sigma_odo_rot=0.01, sigma_bbox=0.01)
        return cv.generate_scene(cv.three_person_scenario(crossing=True, duration=16, seed=7, noise=noise))[3]

    def test_a_generated_clip_rebuilt_publicly_keeps_its_bits(self, clip):
        ego = EgoObservation(clip.ego.pose_deltas, clip.ego.motion_deltas)
        assert ego.pose_deltas.tobytes() == clip.ego.pose_deltas.tobytes()
        assert ego.motion_deltas.tobytes() == clip.ego.motion_deltas.tobytes()
        for c in clip.candidates:
            rebuilt = CandidateObservation(c.person_id, c.poses, c.boxes, c.valid)
            assert (rebuilt.person_id, rebuilt.boxes, rebuilt.valid) == (c.person_id, c.boxes, c.valid)
            assert rebuilt.poses.tobytes() == c.poses.tobytes()

    @pytest.mark.parametrize(
        "field, message",
        [
            ("poses", "poses must be finite"),
            ("valid", "valid must hold true or false, got int"),
            ("boxes", "boxes entries must be BoundingBox"),
            ("motion_deltas", "motion_deltas must have shape (7, 2, 3), got (6, 2, 3)"),
        ],
        ids=["nan_pose", "int_valid", "tuple_box", "six_motion_deltas"],
    )
    def test_a_bad_field_of_a_generated_clip_is_rejected(self, clip, field, message):
        candidate = clip.candidates[1]
        fields = {"poses": candidate.poses, "boxes": list(candidate.boxes), "valid": list(candidate.valid)}
        deltas = {"pose_deltas": clip.ego.pose_deltas, "motion_deltas": clip.ego.motion_deltas}
        if field == "poses":
            fields["poses"] = np.array(candidate.poses)
            fields["poses"][5, 12, 1] = np.nan
        elif field == "valid":
            fields["valid"][2] = 1
        elif field == "boxes":
            fields["boxes"][7] = candidate.boxes[7].corners()
        else:
            deltas["motion_deltas"] = clip.ego.motion_deltas[1:]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            EgoObservation(**deltas)
            CandidateObservation(candidate.person_id, **fields)


class TestVerifyPair:
    def test_self_match_is_exactly_zero(self):
        pose = facing_x_pose()
        candidate = static_candidate(pose)
        ego = EgoObservation(zero_pose_deltas(), constant_motion_deltas())
        codebook = far_codebook_for(candidate.poses)
        score = verify_pair(ego, candidate, codebook)
        assert score.action_ego_ce == 0.0
        assert score.action_third_ce == 0.0
        assert score.motion_ego_l1 == 0.0
        assert score.motion_third_l1 == 0.0
        assert score.total == 0.0
        assert score.match_probability == 1.0

    def test_static_candidate_vs_walking_ego(self):
        # ego reports 0.5 m forward steps while the candidate stands still:
        # the motion channel accumulates sum(0.5 k) = 14 over the clip
        pose = facing_x_pose()
        candidate = static_candidate(pose)
        ego = EgoObservation(zero_pose_deltas(), constant_motion_deltas((0.5, 0.0, 0.0)))
        codebook = far_codebook_for(candidate.poses)
        score = verify_pair(ego, candidate, codebook)
        assert score.motion_ego_l1 == pytest.approx(14.0, abs=1e-9)
        assert score.motion_third_l1 == pytest.approx(0.0, abs=1e-9)

    def test_action_channel_separates_same_trajectory(self):
        # two people share a path (identical box tracks) but differ in gait;
        # only the action channel can tell them apart
        wearer = cv.PersonSpec(0, ((0.0, 0.0), (8.0, 0.0)), 0.08, cv.GaitParams(phase=0.0), is_wearer=True)
        twin = cv.PersonSpec(
            1,
            ((0.0, 0.0), (8.0, 0.0)),
            0.08,
            cv.GaitParams(arm_amplitude=0.30, leg_amplitude=0.20, phase=2.2, stride_length=0.85),
        )
        scenario = cv.Scenario(0, 40, (wearer, twin))
        clips = cv.generate_scene(scenario)
        codebook = fit_codebook([c.poses for clip in clips for c in clip.candidates], k=48, seed=0)
        separated = 0
        for clip in clips:
            true_score = verify_pair(clip.ego, clip.candidates[0], codebook)
            twin_score = verify_pair(clip.ego, clip.candidates[1], codebook)
            box_gap = abs(
                np.abs(
                    cv.bbox_trajectory(clip.candidates[0].boxes)
                    - cv.bbox_trajectory(clip.candidates[1].boxes)
                )
            ).max()
            assert box_gap < 1e-9  # identical trajectories by construction
            if true_score.total < twin_score.total:
                separated += 1
        assert separated == len(clips)

    def test_total_is_exact_weighted_sum(self):
        noise = cv.NoiseParams(sigma_pose=0.02, sigma_odo_trans=0.01, sigma_odo_rot=0.01, sigma_bbox=0.01)
        scenario = cv.two_person_scenario(crossing=False, duration=24, seed=5, noise=noise)
        clips = cv.generate_scene(scenario)
        codebook = fit_codebook([c.poses for clip in clips for c in clip.candidates], k=8, seed=1)
        config = ScoringConfig(action_weight=0.7, motion_weight=2.5)
        for clip in clips:
            for candidate in clip.candidates:
                s = verify_pair(clip.ego, candidate, codebook, config)
                expected = 0.7 * (s.action_ego_ce + s.action_third_ce) + 2.5 * (s.motion_ego_l1 + s.motion_third_l1)
                assert s.total == expected

    def test_all_frames_occluded_rejected(self):
        pose = facing_x_pose()
        candidate = static_candidate(pose, valid=[False] * 8)
        ego = EgoObservation(zero_pose_deltas(), constant_motion_deltas())
        codebook = far_codebook_for(static_candidate(pose).poses)
        with pytest.raises(InsufficientObservationError):
            verify_pair(ego, candidate, codebook)

    def test_degenerate_seed_pose_rejected(self):
        pose = facing_x_pose()
        bad = pose.copy()
        bad[LEFT_SHOULDER] = bad[RIGHT_SHOULDER]
        candidate = static_candidate(bad)
        ego = EgoObservation(zero_pose_deltas(), constant_motion_deltas())
        codebook = far_codebook_for(static_candidate(pose).poses)
        with pytest.raises(DegeneratePoseError):
            verify_pair(ego, candidate, codebook)

    def test_match_probability_monotone_in_trajectory_gap(self):
        # sliding the candidate's boxes further off the ego track can only
        # lower its match probability
        pose = facing_x_pose()
        ego = EgoObservation(zero_pose_deltas(), constant_motion_deltas())
        codebook = far_codebook_for(static_candidate(pose).poses)
        previous = None
        for drift in (0.0, 0.1, 0.3, 0.8, 2.0):
            base = static_candidate(pose)
            boxes = [
                BoundingBox(b.lx + drift * i, b.ly, b.rx + drift * i, b.ry)
                for i, b in enumerate(base.boxes)
            ]
            candidate = CandidateObservation(0, base.poses, boxes)
            prob = verify_pair(ego, candidate, codebook).match_probability
            if previous is not None:
                assert prob <= previous
            previous = prob


class TestLocalize:
    def build_scene(self, seed=0):
        scenario = cv.two_person_scenario(crossing=False, duration=24, seed=seed)
        clips = cv.generate_scene(scenario)
        codebook = fit_codebook([c.poses for clip in clips for c in clip.candidates], k=8, seed=seed)
        return clips, codebook

    def test_single_candidate_wins(self):
        clips, codebook = self.build_scene()
        clip = clips[0]
        wearer = [c for c in clip.candidates if c.person_id == clip.ground_truth_wearer]
        pid, scores = localize(clip.ego, wearer, codebook)
        assert pid == clip.ground_truth_wearer
        assert len(scores) == 1

    def test_true_wearer_wins_zero_noise(self):
        clips, codebook = self.build_scene()
        for clip in clips:
            pid, scores = localize(clip.ego, clip.candidates, codebook)
            assert pid == clip.ground_truth_wearer
            true_prob = scores[0].match_probability
            assert all(true_prob > s.match_probability for s in scores[1:])

    def test_tie_breaks_to_lowest_person_id(self):
        clips, codebook = self.build_scene()
        clip = clips[0]
        wearer = next(c for c in clip.candidates if c.person_id == clip.ground_truth_wearer)
        clones = [
            CandidateObservation(9, wearer.poses, wearer.boxes, wearer.valid),
            CandidateObservation(4, wearer.poses, wearer.boxes, wearer.valid),
        ]
        pid, scores = localize(clip.ego, clones, codebook)
        assert pid == 4
        assert scores[0].match_probability == scores[1].match_probability

    def test_empty_candidates_rejected(self):
        clips, codebook = self.build_scene()
        with pytest.raises(ValueError):
            localize(clips[0].ego, [], codebook)

    def test_scores_align_with_input_order(self):
        clips, codebook = self.build_scene()
        clip = clips[0]
        reversed_candidates = list(reversed(clip.candidates))
        _, scores_fwd = localize(clip.ego, clip.candidates, codebook)
        _, scores_rev = localize(clip.ego, reversed_candidates, codebook)
        assert scores_fwd[0].total == scores_rev[-1].total

    def test_decision_invariant_under_probability_rescaling(self):
        # sigma rescales every candidate's match probability monotonically,
        # so the argmax decision cannot change
        clips, codebook = self.build_scene(seed=6)
        for clip in clips[:5]:
            picks = {
                localize(clip.ego, clip.candidates, codebook, ScoringConfig(sigma=s))[0]
                for s in (0.25, 1.0, 4.0)
            }
            assert len(picks) == 1


class TestBatchedMatchesPerPair:
    """localize scores a clip in one array pass; verify_pair is the reference."""

    @pytest.fixture(scope="class")
    def crossing_scene(self):
        # noisy crossings: partly occluded candidates with frozen poses, and
        # 120 centroids for 171 clips, so many are near-singletons
        noise = cv.NoiseParams(sigma_pose=0.02, sigma_odo_trans=0.01, sigma_odo_rot=0.01, sigma_bbox=0.01)
        scenario = cv.three_person_scenario(crossing=True, duration=64, seed=7, noise=noise)
        clips = cv.generate_scene(scenario)
        codebook = fit_codebook([c.poses for clip in clips for c in clip.candidates], k=120, seed=0)
        return clips, codebook

    def test_same_decisions_and_terms_as_per_pair_scoring(self, crossing_scene):
        clips, codebook = crossing_scene
        config = ScoringConfig(action_weight=0.7, motion_weight=1.3)
        assert any(not c.fully_valid() for clip in clips for c in clip.candidates)
        for clip in clips:
            pid, scores = localize(clip.ego, clip.candidates, codebook, config)
            reference = [verify_pair(clip.ego, c, codebook, config) for c in clip.candidates]
            best = min(
                range(len(reference)),
                key=lambda i: (-reference[i].match_probability, clip.candidates[i].person_id),
            )
            assert pid == clip.candidates[best].person_id
            for got, want in zip(scores, reference):
                assert got.motion_ego_l1 == pytest.approx(want.motion_ego_l1, rel=0.0, abs=1e-12)
                assert got.motion_third_l1 == pytest.approx(want.motion_third_l1, rel=0.0, abs=1e-12)
                # both paths expand |a|^2 + |b|^2 - 2 a.b, whose rounding a
                # near-singleton centroid amplifies by about 1 / (2 d tau)
                assert got.action_ego_ce == pytest.approx(want.action_ego_ce, rel=0.0, abs=1e-4)
                assert got.action_third_ce == pytest.approx(want.action_third_ce, rel=0.0, abs=1e-4)
                expected = 0.7 * (got.action_ego_ce + got.action_third_ce) + 1.3 * (
                    got.motion_ego_l1 + got.motion_third_l1
                )
                assert got.total == expected
                assert got.match_probability == float(np.exp(-got.total))

    def test_unscorable_candidates_raise_in_input_order(self, crossing_scene):
        clips, codebook = crossing_scene
        clip = clips[0]
        good = clip.candidates[0]
        poses = good.poses.copy()
        poses[0, LEFT_SHOULDER] = poses[0, RIGHT_SHOULDER]
        degenerate = CandidateObservation(5, poses, good.boxes, good.valid)
        occluded = CandidateObservation(6, good.poses, good.boxes, [False] * 8)
        for candidates, error in (
            ([good, degenerate], DegeneratePoseError),
            ([good, occluded], InsufficientObservationError),
            ([degenerate, occluded], DegeneratePoseError),
            ([occluded, degenerate], InsufficientObservationError),
        ):
            with pytest.raises(error):
                [verify_pair(clip.ego, c, codebook) for c in candidates]
            with pytest.raises(error):
                localize(clip.ego, candidates, codebook)


NOISE = cv.NoiseParams(sigma_pose=0.02, sigma_odo_trans=0.01, sigma_odo_rot=0.01, sigma_bbox=0.01)


def fitted(scenario, k):
    clips = cv.generate_scene(scenario)
    return clips, fit_codebook([c.poses for clip in clips for c in clip.candidates], k=k, seed=scenario.seed)


def per_clip(clips, codebook, config=ScoringConfig()):
    """Decisions and score columns from one localize call per clip."""
    decisions, scores = [], []
    for clip in clips:
        pid, clip_scores = localize(clip.ego, clip.candidates, codebook, config)
        decisions.append(pid)
        scores += clip_scores
    return decisions, {name: np.array([getattr(s, name) for s in scores]) for name in SCORE_FIELDS}


def assert_same_bits(got, want):
    assert got[0] == want[0]
    assert list(got[1]) == list(SCORE_FIELDS)
    for name in SCORE_FIELDS:
        assert got[1][name].dtype == np.float64
        assert np.array_equal(got[1][name], want[1][name]), name


def with_faults(scene, clips, faults):
    """The scene and its clip objects with each (clip, slot, kind) fault: all frames occluded or frame 0 degenerate."""
    poses, valid, clips = scene.poses.copy(), scene.valid.copy(), list(clips)
    for i, slot, kind in faults:
        if kind == "occluded":
            valid[i, slot] = False
        else:
            poses[i, slot, 0, LEFT_SHOULDER] = poses[i, slot, 0, RIGHT_SHOULDER]
        candidates = list(clips[i].candidates)
        good = candidates[slot]
        candidates[slot] = CandidateObservation(good.person_id, poses[i, slot], good.boxes, valid[i, slot])
        clips[i] = replace(clips[i], candidates=tuple(candidates))
    return replace(scene, poses=poses, valid=valid), clips


class TestScoreScene:
    """score_scene scores whole blocks of clips; per-clip localize is the reference, bit for bit."""

    @pytest.fixture(scope="class")
    def crossing3(self):
        # the benchmark's crossing scene and codebook size: 200 clips of 3
        scenario = cv.three_person_scenario(crossing=True, duration=207, seed=7, noise=NOISE)
        return (cv.scene_arrays(scenario),) + fitted(scenario, 400)

    def test_group_scene_over_several_blocks_matches_per_clip_localize(self):
        # 73 clips of 8: blocks of 32, 32 and 9 clips. At k=64 one clip's
        # 16-row product is small enough to take OpenBLAS's small-matrix
        # kernel, so a flat product over the block would change its bits.
        scenario = cv.group_scenario(8, duration=80, seed=19, noise=NOISE)
        clips, codebook = fitted(scenario, 64)
        per_block = BLOCK_PAIRS // 8
        assert len(clips) > 2 * per_block and len(clips) % per_block != 0
        assert_same_bits(score_scene(cv.scene_arrays(scenario), codebook), per_clip(clips, codebook))

    def test_one_candidate_scene_matches_per_clip_localize(self):
        # one candidate scores 2 rows, below the 4 rows from which a product
        # of a k=400 codebook gives a row the bits a larger product gives it;
        # every clip keeps a product of its own, so the bits still agree
        scenario = cv.group_scenario(8, duration=120, seed=19, noise=NOISE)
        clips, codebook = fitted(scenario, 400)
        scene = cv.scene_arrays(scenario)
        column = scene.person_ids.tolist().index(scene.wearer)
        wearer = slice(column, column + 1)
        alone = replace(
            scene,
            poses=scene.poses[:, wearer],
            corners=scene.corners[:, wearer],
            valid=scene.valid[:, wearer],
            person_ids=scene.person_ids[wearer],
        )
        decisions, columns = score_scene(alone, codebook)
        assert decisions == [scene.wearer] * len(clips)
        alone_clips = [
            replace(clip, candidates=tuple(c for c in clip.candidates if c.person_id == clip.ground_truth_wearer))
            for clip in clips
        ]
        assert_same_bits((decisions, columns), per_clip(alone_clips, codebook))

    @pytest.mark.parametrize(
        "scenario, k, config",
        [
            (cv.three_person_scenario(crossing=True, duration=207, seed=7, noise=NOISE), 400, ScoringConfig()),
            (cv.group_scenario(8, duration=80, seed=19, noise=NOISE), 64, ScoringConfig()),
            (
                cv.three_person_scenario(crossing=True, duration=207, seed=7, noise=NOISE),
                400,
                ScoringConfig(action_weight=0.7, motion_weight=1.3, sigma=2.0),
            ),
        ],
        ids=["crossing3", "group8_several_blocks", "crossing3_weighted"],
    )
    def test_scene_of_arrays_matches_per_clip_localize(self, scenario, k, config):
        clips, codebook = fitted(scenario, k)
        scene = cv.scene_arrays(scenario)
        assert len(clips) * len(scenario.persons) > 2 * BLOCK_PAIRS
        assert_same_bits(score_scene(scene, codebook, config), per_clip(clips, codebook, config))

    def test_first_unscorable_pair_of_a_scene_raises_as_the_per_clip_loop(self, crossing3):
        scene, clips, codebook = crossing3
        faulty, clips = with_faults(scene, clips, [(130, 0, "degenerate"), (100, 2, "occluded")])
        with pytest.raises(ValueError) as per_clip_error:
            per_clip(clips, codebook)
        with pytest.raises(ValueError) as scene_error:
            score_scene(faulty, codebook)
        assert type(scene_error.value) is type(per_clip_error.value) is InsufficientObservationError
        assert str(scene_error.value) == str(per_clip_error.value)

    def test_batched_ego_offsets_match_one_clip_calls(self, crossing3):
        deltas = crossing3[0].motion_deltas
        batched = _ego_offsets(deltas)
        assert batched.shape == (len(deltas), 8, 3)
        for got, one in zip(batched, deltas):
            assert np.array_equal(got, _ego_offsets(one))
        assert np.array_equal(_ego_offsets(deltas.reshape(4, 50, 7, 2, 3)).reshape(-1, 8, 3), batched)

    @pytest.mark.parametrize(
        "faults",
        [
            [(120, 1, "occluded")],
            [(120, 2, "degenerate")],
            [(150, 0, "degenerate"), (150, 1, "occluded")],
            [(100, 2, "occluded"), (130, 0, "degenerate")],
            [(100, 2, "degenerate"), (130, 0, "occluded")],
        ],
    )
    def test_first_unscorable_pair_raises_as_the_per_clip_loop(self, crossing3, faults):
        scene, clips, codebook = crossing3
        faulty, clips = with_faults(scene, clips, faults)
        with pytest.raises(ValueError) as per_clip_error:
            per_clip(clips, codebook)
        with pytest.raises(ValueError) as scene_error:
            score_scene(faulty, codebook)
        assert type(scene_error.value) is type(per_clip_error.value)
        assert type(scene_error.value) in (InsufficientObservationError, DegeneratePoseError)
        assert str(scene_error.value) == str(per_clip_error.value)


def with_leaf(array, value):
    """An array's nested lists with value as the first leaf."""
    nested = array.tolist()
    row = nested
    while isinstance(row[0], list):
        row = row[0]
    row[0] = value
    return nested


class TestSceneKernelInputs:
    """The batched kernels _ego_offsets and _cross_entropies check nothing: Scene checks their arrays, naming each."""

    @pytest.fixture(scope="class")
    def scene(self):
        return cv.scene_arrays(cv.two_person_scenario(duration=16, noise=NOISE))  # 9 clips of 2

    def rejected(self, scene, field, value, text):
        fields = dict(scene.__dict__)
        fields[field] = value
        with pytest.raises(ValueError, match=text):
            cv.Scene(**fields)

    @pytest.mark.parametrize(
        "change, text",
        [
            (lambda d: with_leaf(d, "0.1"), "motion_deltas must hold numbers, got str"),
            (lambda d: [*d[:-1], d[-1] > 0.0], "motion_deltas must hold numbers, got bool"),
            (lambda d: d[:, :6], r"motion_deltas must have shape \(9, 7, 2, 3\), got \(9, 6, 2, 3\)"),
            (lambda d: d[..., 0, :], r"motion_deltas must have shape \(9, 7, 2, 3\), got \(9, 7, 3\)"),
        ],
        ids=["string_leaf", "bool_step", "six_steps", "no_translations"],
    )
    def test_misread_motion_deltas_rejected_naming_them(self, scene, change, text):
        self.rejected(scene, "motion_deltas", change(scene.motion_deltas), text)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rotation_rejected(self, scene, bad):
        deltas = scene.motion_deltas.copy()
        deltas[4, 3, 0, 1] = bad
        self.rejected(scene, "motion_deltas", deltas, "motion_deltas must be finite")

    @pytest.mark.parametrize("field", ["pose_deltas", "poses"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_pose_row_rejected_naming_its_array(self, scene, field, bad):
        # pose_deltas give the ego rows of the action product, poses the candidates' rows
        value = getattr(scene, field).copy()
        value[1, 0, 7] = bad
        self.rejected(scene, field, value, f"{field} must be finite")

    @pytest.mark.parametrize(
        "field, change, text",
        [
            ("pose_deltas", lambda a: a[0], r"pose_deltas must have shape \(9, 7, 19, 3\), got \(7, 19, 3\)"),
            ("poses", lambda a: a[..., :18, :], r"poses must have shape \(9, 2, 8, 19, 3\), got \(9, 2, 8, 18, 3\)"),
            ("poses", lambda a: with_leaf(a, "0.5"), "poses must hold numbers, got str"),
            ("poses", lambda a: a[:, :1], r"poses must have shape \(9, 2, 8, 19, 3\), got \(9, 1, 8, 19, 3\)"),
        ],
        ids=["one_clip", "short_rows", "strings", "one_candidate_of_two"],
    )
    def test_misread_pose_rows_rejected_naming_them(self, scene, field, change, text):
        self.rejected(scene, field, change(getattr(scene, field)), text)

    def test_lists_give_the_bits_of_arrays(self, scene):
        codebook = fit_codebook(scene.poses.reshape(-1, 8, 19, 3), k=8, seed=0)
        listed = cv.Scene(**{name: getattr(value, "tolist", lambda: value)() for name, value in scene.__dict__.items()})
        assert_same_bits(score_scene(listed, codebook), score_scene(scene, codebook))

    def test_inputs_are_not_written(self, scene):
        arrays = {name: value.copy() for name, value in scene.__dict__.items() if isinstance(value, np.ndarray)}
        codebook = fit_codebook(arrays["poses"].reshape(-1, 8, 19, 3), k=8, seed=0)
        score_scene(cv.Scene(**arrays, wearer=scene.wearer), codebook)
        for name, value in arrays.items():
            assert value.flags.writeable and value.tobytes() == getattr(scene, name).tobytes(), name


class TestStreamLoop:
    """The online path: one localize call and one filter step per clip."""

    @pytest.fixture(scope="class")
    def group8(self):
        noise = cv.NoiseParams(sigma_pose=0.03, sigma_odo_trans=0.01, sigma_odo_rot=0.02, sigma_bbox=0.01)
        return fitted(cv.group_scenario(8, duration=60, seed=11, noise=noise), 16)

    def test_localize_gathers_box_corners_as_nested_lists(self, group8):
        clips, codebook = group8
        for clip in clips:
            candidates = clip.candidates
            want = _score_block(
                clip.ego.pose_deltas[None],
                clip.ego.motion_deltas[None],
                np.array([[c.poses for c in candidates]]),
                np.array([[[b.corners() for b in c.boxes] for c in candidates]]),
                np.array([[c.valid for c in candidates]]),
                np.array([c.person_id for c in candidates]),
                codebook,
                ScoringConfig(),
            )
            person_id, scores = localize(clip.ego, candidates, codebook)
            assert person_id == want[0][0]
            for name, column in zip(SCORE_FIELDS, want[1]):
                assert np.array([getattr(s, name) for s in scores]).tobytes() == column.tobytes(), name

    def test_localize_takes_any_iterable_of_candidates(self, group8):
        # the prelude sizes its arrays from the candidates' count, which a generator does not give up front
        clips, codebook = group8
        for clip in clips[:3]:
            want_id, want = localize(clip.ego, list(clip.candidates), codebook)
            for candidates in (tuple(clip.candidates), (c for c in clip.candidates), iter(clip.candidates)):
                person_id, scores = localize(clip.ego, candidates, codebook)
                assert person_id == want_id and len(scores) == len(want)
                for name in SCORE_FIELDS:
                    got = np.array([getattr(s, name) for s in scores])
                    assert got.tobytes() == np.array([getattr(s, name) for s in want]).tobytes(), name

    def test_scores_and_weights_match_golden(self, group8):
        # each clip's six score columns, then the filter weights after its
        # update, in one digest. The bytes come from the BLAS distance
        # products, so they hold for the OpenBLAS build and CPU they were
        # recorded on (see CHANGES.md).
        clips, codebook = group8
        digest = hashlib.sha256()
        first = clips[0].candidates
        state = cv.init_filter([c.person_id for c in first], [c.boxes[-1].center for c in first])
        for clip in clips:
            _, scores = localize(clip.ego, clip.candidates, codebook)
            columns = np.array([[getattr(s, name) for name in SCORE_FIELDS] for s in scores])
            state = cv.update(
                cv.predict(state),
                columns[:, -1],
                [c.boxes[-1].center for c in clip.candidates],
                occluded=[not c.fully_valid() for c in clip.candidates],
            )
            digest.update(columns.tobytes())
            digest.update(state.weights.tobytes())
        assert len(clips) == 53
        assert digest.hexdigest() == GOLDEN["stream_outputs"]["sha256"]


class TestLocalizeRecords:
    """localize builds its records without the frozen __init__; they must be the records that __init__ builds."""

    @pytest.fixture(scope="class")
    def crossing(self):
        # a candidate of clip 41 is occluded in one of its frames
        scenario = cv.three_person_scenario(crossing=True, duration=60, seed=3, noise=NOISE)
        return (cv.scene_arrays(scenario),) + fitted(scenario, 16)

    def test_records_are_verification_scores(self, crossing):
        _, clips, codebook = crossing
        _, scores = localize(clips[41].ego, clips[41].candidates, codebook)
        for score in scores:
            built = VerificationScore(**{name: getattr(score, name) for name in SCORE_FIELDS})
            assert type(score) is VerificationScore
            assert score == built and hash(score) == hash(built)
            assert repr(score) == repr(built)
            assert vars(score) == vars(built)
            with pytest.raises(FrozenInstanceError):
                score.total = 0.0
            with pytest.raises(FrozenInstanceError):
                del score.match_probability

    def test_fields_equal_score_scene_columns_on_a_clip_with_an_occluded_candidate(self, crossing):
        scene, clips, codebook = crossing
        i = 41
        assert not all(c.fully_valid() for c in clips[i].candidates)
        decisions, columns = score_scene(scene, codebook)
        person_id, scores = localize(clips[i].ego, clips[i].candidates, codebook)
        assert person_id == decisions[i]
        n = len(scores)
        for name in SCORE_FIELDS:
            got = np.array([getattr(score, name) for score in scores])
            assert all(type(getattr(score, name)) is float for score in scores)
            assert got.tobytes() == columns[name][i * n : (i + 1) * n].tobytes(), name


class TestRecordsAndConfig:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScoringConfig(sigma=0.0)
        with pytest.raises(ValueError):
            ScoringConfig(action_weight=-1.0)
        with pytest.raises(ValueError):
            ScoringConfig(tau=-0.1)

    @pytest.mark.parametrize("field", ["action_weight", "motion_weight", "sigma", "tau"])
    @pytest.mark.parametrize(
        "value, problem",
        [
            (float("nan"), "be finite"),
            (float("inf"), "be finite"),
            # a string raised a TypeError that named no field, and True was taken as 1.0
            ("1", "be a number, got '1'"),
            (True, "be a number, got True"),
        ],
        ids=["nan", "inf", "string", "true"],
    )
    def test_config_rejects_non_finite_naming_field(self, field, value, problem):
        with pytest.raises(ValueError, match=f"{field} must {problem}"):
            ScoringConfig(**{field: value})

    def test_config_keeps_numbers_as_floats(self):
        config = ScoringConfig(action_weight=2, motion_weight=np.float32(0.5), sigma=np.int64(3), tau=0.25)
        assert config == ScoringConfig(2.0, 0.5, 3.0, 0.25)
        assert all(type(v) is float for v in vars(config).values())

    def test_candidate_validation(self):
        pose = facing_x_pose()
        with pytest.raises(ValueError):
            CandidateObservation(0, [pose] * 8, [])
        with pytest.raises(ValueError):
            static_candidate(pose, valid=[True] * 5)
