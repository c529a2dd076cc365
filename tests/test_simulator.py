"""Simulator tests: determinism, exact round-trips, occlusion scheduling."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

import crossview as cv
from crossview.motion import bbox_trajectory, integrate_ego_motion
from crossview.simulator import (
    GRID,
    Crossing,
    GaitParams,
    NoiseParams,
    PersonSpec,
    Scenario,
    clip_from_obj,
    clip_to_obj,
    ego_deltas_from_truth,
    generate_scene,
    load_scene,
    load_scenario,
    save_scenario,
    save_scene,
    scenario_from_json,
    scenario_to_json,
    skeleton_at,
)
from crossview.skeleton import Joint19Pose, body_frame, integrate_pose_deltas

RNG = np.random.default_rng(77)

GOLDEN = json.loads((Path(__file__).parent / "golden" / "metrics.json").read_text())


def single_person_scenario(speed=0.0, duration=16, seed=0, noise=None):
    spec = PersonSpec(0, ((1.0, 2.0), (5.0, 2.0)), speed, GaitParams(), is_wearer=True)
    return Scenario(seed, duration, (spec,), noise or NoiseParams())


class TestSkeletonAt:
    def test_joints_on_binary_grid(self):
        pose = skeleton_at((1.234, -0.567), 0.8, GaitParams(), 3.21)
        scaled = pose.joints / GRID
        np.testing.assert_array_equal(scaled, np.round(scaled))

    def test_planar_extent_centered_on_path_position(self):
        for heading in (0.0, 0.4, 2.0, -1.3):
            pose = skeleton_at((2.5, -1.5), heading, GaitParams(), 1.7)
            xy = pose.joints[:, :2]
            center = (xy.min(axis=0) + xy.max(axis=0)) / 2.0
            np.testing.assert_allclose(center, [2.5, -1.5], atol=1e-9)

    def test_standing_person_is_static(self):
        a = skeleton_at((0.0, 0.0), 0.0, GaitParams(), 0.0)
        b = skeleton_at((0.0, 0.0), 0.0, GaitParams(), 0.0)
        np.testing.assert_array_equal(a.joints, b.joints)


class TestEgoDeltasFromTruth:
    def test_identical_frames_give_identity(self):
        frame = skeleton_at((0.0, 0.0), 0.0, GaitParams(), 0.0)
        pose_deltas, motion_deltas = ego_deltas_from_truth([frame] * 8)
        np.testing.assert_array_equal(pose_deltas, np.zeros((7, 19, 3)))
        np.testing.assert_allclose(motion_deltas, np.zeros((7, 2, 3)), atol=1e-12)

    def test_rigid_translation(self):
        base = skeleton_at((0.0, 0.0), 0.7, GaitParams(), 0.5)
        step = np.array([0.3, 0.0, 0.0])
        frames = [Joint19Pose(base.joints + k * step) for k in range(8)]
        pose_deltas, motion_deltas = ego_deltas_from_truth(frames)
        r_init = body_frame(frames[0]).rotation.to_matrix()
        expected = r_init.T @ step
        for rotation, translation in motion_deltas:
            np.testing.assert_allclose(rotation, np.zeros(3), atol=1e-9)
            np.testing.assert_allclose(translation, expected, atol=1e-9)
        np.testing.assert_allclose(pose_deltas, np.tile(step, (7, 19, 1)), atol=1e-12)

    def test_pure_spin_about_body_axis(self):
        # frames built so consecutive body frames differ by a 0.1 rad turn
        # about the body frame's third axis
        base = skeleton_at((0.0, 0.0), 0.3, GaitParams(), 0.2)
        t0 = body_frame(base)
        r0 = t0.rotation.to_matrix()
        c0 = t0.translation
        frames = [base]
        for k in range(1, 8):
            spin = Rotation.from_rotvec([0.0, 0.0, 0.1 * k]).as_matrix()
            world = r0 @ spin @ r0.T
            frames.append(Joint19Pose((base.joints - c0) @ world.T + c0))
        _, motion_deltas = ego_deltas_from_truth(frames)
        from crossview.geometry import error_quaternion

        expected = error_quaternion([0.0, 0.0, 0.1])
        for rotation, translation in motion_deltas:
            np.testing.assert_allclose(translation, np.zeros(3), atol=1e-9)
            np.testing.assert_allclose(
                error_quaternion(rotation).to_matrix(), expected.to_matrix(), atol=1e-9
            )

    def test_wrong_frame_count_rejected(self):
        frame = skeleton_at((0.0, 0.0), 0.0, GaitParams(), 0.0)
        with pytest.raises(ValueError):
            ego_deltas_from_truth([frame] * 7)


class TestGenerateScene:
    def test_static_person_zero_observables(self):
        clips = generate_scene(single_person_scenario(speed=0.0))
        for clip in clips:
            traj = bbox_trajectory(clip.candidates[0].boxes)
            np.testing.assert_array_equal(traj, np.zeros((8, 2)))
            np.testing.assert_array_equal(clip.ego.pose_deltas, np.zeros((7, 19, 3)))
            np.testing.assert_allclose(clip.ego.motion_deltas, np.zeros((7, 2, 3)), atol=1e-12)

    def test_clip_count_and_ids(self):
        scenario = cv.two_person_scenario(duration=30)
        clips = generate_scene(scenario)
        assert len(clips) == 30 - 7
        assert [c.clip_id for c in clips] == list(range(23))

    def test_time_offset_shrinks_clip_range(self):
        scenario = cv.two_person_scenario(duration=30)
        for offset in (-3, 2):
            shifted = Scenario(
                scenario.seed,
                scenario.duration,
                scenario.persons,
                scenario.noise,
                scenario.crossings,
                time_offset=offset,
            )
            clips = generate_scene(shifted)
            assert len(clips) == 30 - 7 - abs(offset)

    def test_pose_reintegration_is_bit_exact(self):
        scenario = cv.two_person_scenario(duration=24, seed=9)
        for clip in generate_scene(scenario):
            wearer = next(c for c in clip.candidates if c.person_id == clip.ground_truth_wearer)
            rebuilt = integrate_pose_deltas(wearer.poses[0], clip.ego.pose_deltas)
            for got, want in zip(rebuilt, wearer.poses):
                np.testing.assert_array_equal(got.joints, want.joints)

    def test_track_equality_zero_noise(self):
        scenario = cv.three_person_scenario(duration=24, seed=2)
        for clip in generate_scene(scenario):
            wearer = next(c for c in clip.candidates if c.person_id == clip.ground_truth_wearer)
            ego = integrate_ego_motion(body_frame(wearer.poses[0]), clip.ego.motion_deltas)
            np.testing.assert_allclose(ego, bbox_trajectory(wearer.boxes), atol=1e-9)

    def test_occlusion_flags_follow_schedule(self):
        scenario = cv.two_person_scenario(crossing=True, duration=88, seed=4)
        window = scenario.crossings[0]
        clips = generate_scene(scenario)
        for clip in clips:
            for cand in clip.candidates:
                for i, frame in enumerate(range(clip.clip_id, clip.clip_id + 8)):
                    expected = window.start <= frame < window.end
                    assert cand.valid[i] == (not expected)

    def test_noise_perturbs_observations(self):
        noisy = cv.two_person_scenario(
            duration=16, seed=1, noise=NoiseParams(sigma_pose=0.05, sigma_bbox=0.02)
        )
        clean = cv.two_person_scenario(duration=16, seed=1)
        noisy_clip = generate_scene(noisy)[0]
        clean_clip = generate_scene(clean)[0]
        delta = np.abs(noisy_clip.candidates[0].poses[0].joints - clean_clip.candidates[0].poses[0].joints)
        assert delta.max() > 1e-4

    def test_same_seed_reproduces_scene_exactly(self):
        noise = NoiseParams(sigma_pose=0.03, sigma_odo_trans=0.01, sigma_odo_rot=0.02, sigma_bbox=0.01)
        scenario = cv.three_person_scenario(crossing=True, duration=24, seed=11, noise=noise)
        a = generate_scene(scenario)
        b = generate_scene(scenario)
        assert [clip_to_obj(x) for x in a] == [clip_to_obj(y) for y in b]

    def test_noise_stream_matches_golden(self):
        # every noise kind is on, so dropping or reordering any draw moves
        # at least one of these sums of absolute values
        noise = NoiseParams(sigma_pose=0.03, sigma_odo_trans=0.01, sigma_odo_rot=0.02, sigma_bbox=0.01)
        clips = generate_scene(cv.three_person_scenario(crossing=True, duration=24, seed=11, noise=noise))
        for name, clip in (("first", clips[0]), ("last", clips[-1])):
            got = {
                "candidate_joints": sum(np.abs(p.joints).sum() for c in clip.candidates for p in c.poses),
                "box_corners": sum(np.abs(b.corners()).sum() for c in clip.candidates for b in c.boxes),
                "pose_deltas": sum(np.abs(d).sum() for d in clip.ego.pose_deltas),
                "motion_rotations": sum(np.abs(r).sum() for r, _ in clip.ego.motion_deltas),
                "motion_translations": sum(np.abs(t).sum() for _, t in clip.ego.motion_deltas),
            }
            for key, want in GOLDEN["noise_stream"][name].items():
                assert got[key] == pytest.approx(want, rel=1e-12, abs=0.0), (name, key)

    def test_clip_file_bytes_match_golden(self):
        # the clip files of a noisy scene with occluded frames: any change
        # to the file format or to the noise stream fails here
        noise = NoiseParams(sigma_pose=0.03, sigma_odo_trans=0.01, sigma_odo_rot=0.02, sigma_bbox=0.01)
        clips = generate_scene(cv.three_person_scenario(crossing=True, duration=60, seed=11, noise=noise))
        assert any(not all(c.valid) for clip in clips for c in clip.candidates)
        text = "\n".join(json.dumps(clip_to_obj(clip)) for clip in clips)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN["clip_files"]["sha256"]

    def test_different_seeds_differ(self):
        noise = NoiseParams(sigma_pose=0.03)
        a = generate_scene(cv.two_person_scenario(duration=16, seed=0, noise=noise))
        b = generate_scene(cv.two_person_scenario(duration=16, seed=1, noise=noise))
        assert clip_to_obj(a[0]) != clip_to_obj(b[0])


class TestScenarioValidation:
    def test_requires_exactly_one_wearer(self):
        p0 = PersonSpec(0, ((0.0, 0.0),), 0.0)
        p1 = PersonSpec(1, ((1.0, 0.0),), 0.0)
        with pytest.raises(ValueError):
            Scenario(0, 16, (p0, p1))

    def test_rejects_duplicate_ids(self):
        p0 = PersonSpec(0, ((0.0, 0.0),), 0.0, is_wearer=True)
        p1 = PersonSpec(0, ((1.0, 0.0),), 0.0)
        with pytest.raises(ValueError):
            Scenario(0, 16, (p0, p1))

    def test_rejects_short_duration(self):
        p0 = PersonSpec(0, ((0.0, 0.0),), 0.0, is_wearer=True)
        with pytest.raises(ValueError):
            Scenario(0, 7, (p0,))

    def test_rejects_negative_seed_and_noise(self):
        p0 = PersonSpec(0, ((0.0, 0.0),), 0.0, is_wearer=True)
        with pytest.raises(ValueError):
            Scenario(-1, 16, (p0,))
        with pytest.raises(ValueError):
            NoiseParams(sigma_pose=-0.1)

    def test_rejects_unknown_crossing_person(self):
        p0 = PersonSpec(0, ((0.0, 0.0),), 0.0, is_wearer=True)
        with pytest.raises(ValueError):
            Scenario(0, 16, (p0,), crossings=(Crossing(0, 5, 2, 4),))

    def test_rejects_out_of_range_crossing(self):
        p0 = PersonSpec(0, ((0.0, 0.0),), 0.0, is_wearer=True)
        p1 = PersonSpec(1, ((1.0, 0.0),), 0.0)
        with pytest.raises(ValueError):
            Scenario(0, 16, (p0, p1), crossings=(Crossing(0, 1, 10, 20),))

    def test_gait_validation(self):
        with pytest.raises(ValueError):
            GaitParams(stride_length=0.0)
        with pytest.raises(ValueError):
            GaitParams(arm_amplitude=-0.1)

    @pytest.mark.parametrize("field", ["arm_amplitude", "leg_amplitude", "stride_length", "phase"])
    def test_gait_rejects_nan_naming_field(self, field):
        with pytest.raises(ValueError, match=field):
            GaitParams(**{field: float("nan")})

    @pytest.mark.parametrize("field", ["sigma_pose", "sigma_odo_trans", "sigma_odo_rot", "sigma_bbox"])
    def test_noise_rejects_nan_naming_field(self, field):
        with pytest.raises(ValueError, match=field):
            NoiseParams(**{field: float("nan")})

    @pytest.mark.parametrize(
        "waypoints, speed, heading, field",
        [
            (((0.0, 0.0), (1.0, 0.0)), float("nan"), 0.0, "speed"),
            (((0.0, 0.0),), 0.0, float("nan"), "heading"),
            (((0.0, 0.0), (float("nan"), 0.0)), 0.1, 0.0, "waypoints"),
        ],
    )
    def test_person_rejects_nan_naming_field(self, waypoints, speed, heading, field):
        with pytest.raises(ValueError, match=field):
            PersonSpec(0, waypoints, speed, heading=heading, is_wearer=True)


class TestSerialization:
    def test_scenario_json_round_trip(self):
        scenario = cv.three_person_scenario(
            crossing=True, duration=40, seed=5, noise=NoiseParams(sigma_pose=0.01)
        )
        restored = scenario_from_json(scenario_to_json(scenario))
        assert restored == scenario

    def test_scenario_file_round_trip(self, tmp_path):
        scenario = cv.two_person_scenario(duration=20, seed=3)
        path = tmp_path / "scenario.json"
        save_scenario(scenario, path)
        assert load_scenario(path) == scenario

    def test_load_scenario_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_scenario(tmp_path / "missing.json")

    def test_load_scenario_rejects_other_schema_version(self, tmp_path):
        obj = json.loads(scenario_to_json(cv.two_person_scenario(duration=20, seed=3)))
        obj["schema_version"] = 99
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match="schema_version"):
            load_scenario(path)

    def test_load_scenario_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            load_scenario(path)

    def test_clip_round_trip_is_exact(self):
        noise = NoiseParams(sigma_pose=0.02, sigma_odo_trans=0.01, sigma_odo_rot=0.01, sigma_bbox=0.01)
        scenario = cv.two_person_scenario(crossing=True, duration=80, seed=6, noise=noise)
        clip = generate_scene(scenario)[70]  # overlaps the occlusion window
        restored = clip_from_obj(json.loads(json.dumps(clip_to_obj(clip))))
        assert clip_to_obj(restored) == clip_to_obj(clip)
        assert any(not v for v in restored.candidates[0].valid)

    def test_clip_with_ego_start_pose_and_transform_still_loads(self):
        # clip files once also stored ego.handoff_pose and ego.motion.t_init
        noise = NoiseParams(sigma_pose=0.02, sigma_odo_trans=0.01, sigma_odo_rot=0.01, sigma_bbox=0.01)
        clip = generate_scene(cv.two_person_scenario(duration=16, seed=6, noise=noise))[3]
        obj = json.loads(json.dumps(clip_to_obj(clip)))
        older = json.loads(json.dumps(obj))
        older["ego"]["handoff_pose"] = clip.candidates[0].poses[0].to_list()
        older["ego"]["motion"]["t_init"] = {"quaternion": [1.0, 0.0, 0.0, 0.0], "translation": [0.0, 0.0, 0.0]}
        assert clip_to_obj(clip_from_obj(older)) == obj == clip_to_obj(clip)
        assert set(obj["ego"]) == {"pose_deltas", "motion"}
        assert set(obj["ego"]["motion"]) == {"deltas"}

    @pytest.mark.parametrize("rotation", [[1.0, 2.0], ["x", 0.0, 0.0]])
    def test_malformed_ego_increment_named(self, rotation):
        clip = generate_scene(cv.two_person_scenario(duration=16, seed=6))[0]
        obj = json.loads(json.dumps(clip_to_obj(clip)))
        obj["ego"]["motion"]["deltas"][2]["rotation"] = rotation
        with pytest.raises(ValueError, match="motion_deltas must be a numeric array of shape"):
            clip_from_obj(obj)

    def test_scene_directory_round_trip(self, tmp_path):
        scenario = cv.two_person_scenario(duration=16, seed=8)
        clips = generate_scene(scenario)
        save_scene(clips, tmp_path / "scene", scenario)
        restored = load_scene(tmp_path / "scene")
        assert [clip_to_obj(c) for c in restored] == [clip_to_obj(c) for c in clips]
        manifest = json.loads((tmp_path / "scene" / "manifest.json").read_text())
        assert manifest["clip_count"] == len(clips)
        assert manifest["seed"] == 8
        assert len(manifest["config_hash"]) == 64


class TestPathWalking:
    def test_person_stops_at_final_waypoint(self):
        spec = PersonSpec(0, ((0.0, 0.0), (1.0, 0.0)), 0.5, GaitParams(), is_wearer=True)
        scenario = Scenario(0, 12, (spec,))
        clips = generate_scene(scenario)
        final_pose = clips[-1].candidates[0].poses[-1]
        from crossview.skeleton import body_center

        assert abs(body_center(final_pose)[0] - 1.0) < 0.2

    def test_multi_segment_path_turns(self):
        spec = PersonSpec(0, ((0.0, 0.0), (2.0, 0.0), (2.0, 2.0)), 0.25, GaitParams(), is_wearer=True)
        scenario = Scenario(0, 17, (spec,))
        clips = generate_scene(scenario)
        last = clips[-1].candidates[0]
        from crossview.skeleton import body_center

        c = body_center(last.poses[-1])
        assert c[0] > 1.5 and c[1] > 1.0
