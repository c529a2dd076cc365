"""Simulator tests: determinism, exact round-trips, occlusion scheduling."""

import hashlib
import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.transform import Rotation

import crossview as cv
from crossview.motion import BoundingBox, bbox_trajectory, integrate_ego_motion
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
    scene_arrays,
    _skeletons,
)
from crossview.geometry import (
    error_quaternion,
    rotate_points,
    rotation_matrices,
    rotation_vectors,
    se3_compose,
    unit_quaternions,
)
from crossview.skeleton import (
    LEFT_SHOULDER,
    RIGHT_SHOULDER,
    DegeneratePoseError,
    body_axes,
    body_centers,
    body_frame,
    integrate_pose_deltas,
)

RNG = np.random.default_rng(77)

GOLDEN = json.loads((Path(__file__).parent / "golden" / "metrics.json").read_text())


def clip_objs(scene):
    """Every clip of a Scene as its clip file's JSON object."""
    return [clip_to_obj(scene, i) for i in range(scene.clip_ids.size)]


def assert_same_scene(got, want):
    """Equal Scenes, array for array and bit for bit (-0.0 and 0.0 differ)."""
    assert got.wearer == want.wearer
    for name in ("poses", "corners", "valid", "pose_deltas", "motion_deltas", "person_ids", "clip_ids"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def with_leaf(array, value):
    """An array's nested lists with value as the first leaf."""
    nested = array.tolist()
    row = nested
    while isinstance(row[0], list):
        row = row[0]
    row[0] = value
    return nested


def pose_at(center_xy, heading, gait, travelled):
    """The grid-snapped (19, 3) pose at one planar position, heading and distance travelled."""
    return _skeletons(np.array([center_xy], dtype=float), [heading], gait, np.array([float(travelled)]))[0]


def single_person_scenario(speed=0.0, duration=16, seed=0, noise=None):
    spec = PersonSpec(0, ((1.0, 2.0), (5.0, 2.0)), speed, GaitParams(), is_wearer=True)
    return Scenario(seed, duration, (spec,), noise or NoiseParams())


class TestSkeletons:
    def test_joints_on_binary_grid(self):
        pose = pose_at((1.234, -0.567), 0.8, GaitParams(), 3.21)
        scaled = pose / GRID
        np.testing.assert_array_equal(scaled, np.round(scaled))

    def test_planar_extent_centered_on_path_position(self):
        for heading in (0.0, 0.4, 2.0, -1.3):
            pose = pose_at((2.5, -1.5), heading, GaitParams(), 1.7)
            xy = pose[:, :2]
            center = (xy.min(axis=0) + xy.max(axis=0)) / 2.0
            np.testing.assert_allclose(center, [2.5, -1.5], atol=1e-9)

    def test_standing_person_is_static(self):
        a = pose_at((0.0, 0.0), 0.0, GaitParams(), 0.0)
        b = pose_at((0.0, 0.0), 0.0, GaitParams(), 0.0)
        np.testing.assert_array_equal(a, b)


class TestEgoDeltasFromTruth:
    def test_identical_frames_give_identity(self):
        frame = pose_at((0.0, 0.0), 0.0, GaitParams(), 0.0)
        pose_deltas, motion_deltas = ego_deltas_from_truth([frame] * 8)
        np.testing.assert_array_equal(pose_deltas, np.zeros((7, 19, 3)))
        np.testing.assert_allclose(motion_deltas, np.zeros((7, 2, 3)), atol=1e-12)

    def test_rigid_translation(self):
        base = pose_at((0.0, 0.0), 0.7, GaitParams(), 0.5)
        step = np.array([0.3, 0.0, 0.0])
        frames = [base + k * step for k in range(8)]
        pose_deltas, motion_deltas = ego_deltas_from_truth(frames)
        r_init = rotation_matrices(body_frame(frames[0])[0][None])[0]
        expected = r_init.T @ step
        for rotation, translation in motion_deltas:
            np.testing.assert_allclose(rotation, np.zeros(3), atol=1e-9)
            np.testing.assert_allclose(translation, expected, atol=1e-9)
        np.testing.assert_allclose(pose_deltas, np.tile(step, (7, 19, 1)), atol=1e-12)

    def test_pure_spin_about_body_axis(self):
        # frames built so consecutive body frames differ by a 0.1 rad turn
        # about the body frame's third axis
        base = pose_at((0.0, 0.0), 0.3, GaitParams(), 0.2)
        q0, c0 = body_frame(base)
        r0 = rotation_matrices(q0[None])[0]
        frames = [base]
        for k in range(1, 8):
            spin = Rotation.from_rotvec([0.0, 0.0, 0.1 * k]).as_matrix()
            world = r0 @ spin @ r0.T
            frames.append((base - c0) @ world.T + c0)
        _, motion_deltas = ego_deltas_from_truth(frames)
        expected = rotation_matrices(error_quaternion([0.0, 0.0, 0.1])[None])[0]
        for rotation, translation in motion_deltas:
            np.testing.assert_allclose(translation, np.zeros(3), atol=1e-9)
            np.testing.assert_allclose(rotation_matrices(error_quaternion(rotation)[None])[0], expected, atol=1e-9)

    def test_wrong_frame_count_rejected(self):
        frame = pose_at((0.0, 0.0), 0.0, GaitParams(), 0.0)
        with pytest.raises(ValueError):
            ego_deltas_from_truth([frame] * 7)


def inverse(transform):
    """The inverse of a (rotation, translation) pair: the renormalized conjugate, and minus its turn of t."""
    rotation, translation = transform
    conjugate = unit_quaternions(rotation[None] * [1.0, -1.0, -1.0, -1.0])
    return conjugate[0], -rotate_points(conjugate, translation[None])[0]


def per_frame_chain(frames):
    """The ego increments one frame at a time, through se3_compose."""
    transforms = [body_frame(f) for f in frames]
    steps = [se3_compose(inverse(a), b) for a, b in zip(transforms, transforms[1:])]
    return np.array([(rotation_vectors(rotation[None])[0], translation) for rotation, translation in steps])


def from_matrix_branch(m):
    if m[0, 0] + m[1, 1] + m[2, 2] > 0.0:
        return 0
    if m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
        return 1
    return 2 if m[1, 1] >= m[2, 2] else 3


def posed_frames(body_rotations, shifts):
    """One walker pose turned so that its body axes are each given rotation, then shifted."""
    base = pose_at((0.0, 0.0), 0.0, GaitParams(), 0.3)
    axes, centre = body_axes(base)[0], body_centers(base)
    return np.stack([(base - centre) @ (r @ axes.T).T + shift for r, shift in zip(body_rotations, shifts)])


class TestEgoStepsMatchPerFrameChain:
    """The array pass over all frames gives the per-frame transform chain's bits."""

    def assert_same_bits(self, got, want):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_poses_turned_through_every_from_matrix_branch(self):
        # negative traces with the largest diagonal term at m00, m11 and m22,
        # each body z axis kept upward so the z flip leaves the target alone
        turn = math.acos(-0.6)
        targets = [np.eye(3), Rotation.from_rotvec([0.0, 0.0, 3.0]).as_matrix()]
        targets += [Rotation.from_rotvec(np.array(a) * turn).as_matrix() for a in ([0.76, 0, 0.65], [0, 0.76, 0.65])]
        targets += [r for r in Rotation.random(60, rng=np.random.default_rng(2)).as_matrix() if r[2, 2] > 0.1][:12]
        frames = posed_frames(targets, np.random.default_rng(3).normal(size=(len(targets), 3)))
        assert {from_matrix_branch(m) for m in body_axes(frames)[0]} == {0, 1, 2, 3}
        for start in range(0, len(frames) - 7, 4):
            window = frames[start : start + 8]
            pose_deltas, motion_deltas = ego_deltas_from_truth(window)
            self.assert_same_bits(motion_deltas, per_frame_chain(window))
            self.assert_same_bits(pose_deltas, np.diff(window, axis=0))

    def test_scene_increments_match_chain_on_every_window(self):
        # no crossings, so at zero noise each wearer candidate holds the truth
        for scenario in (cv.two_person_scenario(duration=40, seed=1), cv.group_scenario(4, duration=30, seed=2)):
            scenario = Scenario(scenario.seed, scenario.duration, scenario.persons, NoiseParams(), (), 0)
            for clip in generate_scene(scenario):
                wearer = next(c for c in clip.candidates if c.person_id == clip.ground_truth_wearer)
                self.assert_same_bits(clip.ego.motion_deltas, per_frame_chain(wearer.poses))

    def test_standing_person_takes_the_first_order_log(self):
        # identical body frames compose to a quaternion whose vector part is
        # exactly zero, below the log's 1e-12 cut
        for clip in generate_scene(single_person_scenario(speed=0.0)):
            poses = clip.candidates[0].poses
            self.assert_same_bits(clip.ego.motion_deltas, per_frame_chain(poses))
            assert not clip.ego.motion_deltas.any()

    def test_degenerate_torso_names_first_frame(self):
        frames = posed_frames([np.eye(3)] * 8, np.zeros((8, 3)))
        for k in (5, 6):
            frames[k, LEFT_SHOULDER] = frames[k, RIGHT_SHOULDER]
        with pytest.raises(DegeneratePoseError, match="frame 5"):
            ego_deltas_from_truth(frames)

    @pytest.mark.parametrize("shape", [(7, 19, 3), (8, 18, 3), (9, 19, 3)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="frames must have shape"):
            ego_deltas_from_truth(np.zeros(shape))

    @pytest.mark.parametrize("value, kind", [("0.5", "str"), (True, "bool"), (None, "NoneType")])
    def test_misread_frame_rejected_naming_it(self, value, kind):
        frames = posed_frames([np.eye(3)] * 8, np.zeros((8, 3))).tolist()
        frames[3][4][2] = value
        with pytest.raises(ValueError, match=f"frames must hold numbers, got {kind}"):
            ego_deltas_from_truth(frames)


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
            np.testing.assert_array_equal(rebuilt, wearer.poses)

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
        delta = np.abs(noisy_clip.candidates[0].poses[0] - clean_clip.candidates[0].poses[0])
        assert delta.max() > 1e-4

    def test_same_seed_reproduces_scene_exactly(self):
        noise = NoiseParams(sigma_pose=0.03, sigma_odo_trans=0.01, sigma_odo_rot=0.02, sigma_bbox=0.01)
        scenario = cv.three_person_scenario(crossing=True, duration=24, seed=11, noise=noise)
        a = scene_arrays(scenario)
        b = scene_arrays(scenario)
        assert clip_objs(a) == clip_objs(b)

    def test_noise_stream_matches_golden(self):
        # every noise kind is on, so dropping or reordering any draw moves
        # at least one of these sums of absolute values
        noise = NoiseParams(sigma_pose=0.03, sigma_odo_trans=0.01, sigma_odo_rot=0.02, sigma_bbox=0.01)
        clips = generate_scene(cv.three_person_scenario(crossing=True, duration=24, seed=11, noise=noise))
        for name, clip in (("first", clips[0]), ("last", clips[-1])):
            got = {
                "candidate_joints": sum(np.abs(p).sum() for c in clip.candidates for p in c.poses),
                "box_corners": sum(np.abs(b.corners()).sum() for c in clip.candidates for b in c.boxes),
                "pose_deltas": sum(np.abs(d).sum() for d in clip.ego.pose_deltas),
                "motion_rotations": sum(np.abs(r).sum() for r, _ in clip.ego.motion_deltas),
                "motion_translations": sum(np.abs(t).sum() for _, t in clip.ego.motion_deltas),
            }
            for key, want in GOLDEN["noise_stream"][name].items():
                assert got[key] == pytest.approx(want, rel=1e-12, abs=0.0), (name, key)

    @pytest.mark.parametrize("variant", [None, *GOLDEN["clip_files"]["variants"]], ids=lambda v: v or "all_noise")
    def test_clip_file_bytes_match_golden(self, variant, tmp_path):
        # the clip files of a noisy scene with occluded frames: any change
        # to the file format, to the noise stream or to the writer fails here.
        # Each variant turns one noise kind off (or all of them), some with a
        # time offset, so every column group of the per-clip draw is dropped
        # in turn and the skipping is pinned too.
        noise = {"sigma_pose": 0.03, "sigma_odo_trans": 0.01, "sigma_odo_rot": 0.02, "sigma_bbox": 0.01}
        time_offset = 0
        want = GOLDEN["clip_files"]["sha256"]
        if variant is not None:
            spec = GOLDEN["clip_files"]["variants"][variant]
            noise.update(spec["noise"])
            time_offset = spec["time_offset"]
            want = spec["sha256"]
        scenario = cv.three_person_scenario(
            crossing=True, duration=60, seed=11, noise=NoiseParams(**noise), time_offset=time_offset
        )
        scene = scene_arrays(scenario)
        assert not scene.valid.all()
        text = "\n".join(json.dumps(obj) for obj in clip_objs(scene))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == want
        save_scene(scene, tmp_path)
        paths = [tmp_path / f"clip_{clip_id:05d}.json" for clip_id in scene.clip_ids.tolist()]
        written = "\n".join(path.read_text("utf-8") for path in paths)
        assert hashlib.sha256(written.encode("utf-8")).hexdigest() == want
        # and the directory loads back to the same Scene, bit for bit
        assert_same_scene(load_scene(tmp_path), scene)

    def test_different_seeds_differ(self):
        noise = NoiseParams(sigma_pose=0.03)
        a = scene_arrays(cv.two_person_scenario(duration=16, seed=0, noise=noise))
        b = scene_arrays(cv.two_person_scenario(duration=16, seed=1, noise=noise))
        assert clip_to_obj(a, 0) != clip_to_obj(b, 0)


NOISE = NoiseParams(sigma_pose=0.02, sigma_odo_trans=0.01, sigma_odo_rot=0.01, sigma_bbox=0.01)


SCENE_SHA256 = json.loads((Path(__file__).parent / "golden" / "scene_field_sha256.json").read_text())


class TestSceneArrays:
    """scene_arrays and generate_scene share one generation pass; the arrays hold the objects' bits."""

    @pytest.mark.parametrize("case", sorted(SCENE_SHA256))
    def test_fields_keep_their_pinned_bytes(self, case):
        # the sha256 of each field, recorded when every clip drew its normals
        # in separate calls: the crossing3 and group8 benchmark scenes at two
        # seeds, with NOISE (the benchmark's), with every sigma 0, and with
        # each sigma 0 alone, whose draws are skipped; and crossing3 at two
        # time offsets
        scene, seed, label, *offset = case.split("/")
        if label == "bench":
            noise = NOISE
        elif label == "all_zero":
            noise = NoiseParams()
        else:
            noise = replace(NOISE, **{label.removesuffix("_zero"): 0.0})
        kwargs = {"seed": int(seed), "noise": noise}
        if scene == "crossing3":
            time_offset = int(offset[0].removeprefix("offset")) if offset else 0
            scenario = cv.three_person_scenario(crossing=True, duration=207, time_offset=time_offset, **kwargs)
        else:
            scenario = cv.group_scenario(8, duration=400, **kwargs)
        arrays = scene_arrays(scenario)
        got = {name: hashlib.sha256(getattr(arrays, name).tobytes()).hexdigest() for name in SCENE_SHA256[case]}
        assert got == SCENE_SHA256[case]

    @pytest.mark.parametrize(
        "scenario",
        [
            cv.three_person_scenario(crossing=True, duration=207, seed=7, noise=NOISE),
            cv.group_scenario(8, duration=120, noise=NOISE),
            cv.three_person_scenario(crossing=True, duration=60, seed=11, noise=NOISE, time_offset=-3),
            cv.three_person_scenario(crossing=True, duration=60, seed=11),
            cv.two_person_scenario(noise=NOISE),
            cv.three_person_scenario(crossing=True, noise=NOISE),
            cv.group_scenario(8, duration=400, seed=7, noise=NOISE),
        ],
        ids=["crossing3_seed7", "group8", "time_offset", "zero_noise", "two_person", "crossing3", "group8_bench"],
    )
    def test_each_array_equals_the_stacked_object_fields(self, scenario):
        scene = scene_arrays(scenario)
        clips = generate_scene(scenario)
        candidates = [clip.candidates for clip in clips]
        stacked = {
            "poses": [[c.poses for c in row] for row in candidates],
            "corners": [[[b.corners() for b in c.boxes] for c in row] for row in candidates],
            "valid": [[c.valid for c in row] for row in candidates],
            "pose_deltas": [clip.ego.pose_deltas for clip in clips],
            "motion_deltas": [clip.ego.motion_deltas for clip in clips],
            "person_ids": [c.person_id for c in clips[0].candidates],
            "clip_ids": [clip.clip_id for clip in clips],
        }
        for name, want in stacked.items():
            got = getattr(scene, name)
            want = np.array(want, dtype=got.dtype)
            assert got.shape == want.shape, name
            # equal bytes: -0.0 and 0.0 differ here, as they do in a clip file
            assert got.tobytes() == want.tobytes(), name
            assert not got.flags.writeable, name
        assert all(clip.ground_truth_wearer == scene.wearer for clip in clips)
        assert all([c.person_id for c in clip.candidates] == stacked["person_ids"] for clip in clips)
        # each object holds a read-only view of one scene-wide array, as the first clip's does, not a copy of its own
        ego, poses = clips[0].ego, clips[0].candidates[0].poses
        for clip in clips:
            held = [(clip.ego.pose_deltas, ego.pose_deltas), (clip.ego.motion_deltas, ego.motion_deltas)]
            for array, first in held + [(c.poses, poses) for c in clip.candidates]:
                assert not array.flags.writeable and array.base is not None and array.base is first.base
            assert all(type(b) is BoundingBox for c in clip.candidates for b in c.boxes)

    def test_lists_of_arrays_give_the_scene_of_the_arrays(self):
        scene = scene_arrays(cv.two_person_scenario(duration=16))
        names = ("poses", "corners", "valid", "pose_deltas", "motion_deltas")
        listed = replace(scene, **{name: [list(clip) for clip in getattr(scene, name)] for name in names})
        assert_same_scene(listed, scene)

    def test_arrays_are_read_only_views_of_the_callers_arrays(self):
        scene = scene_arrays(cv.two_person_scenario(duration=16))
        poses = np.array(scene.poses)
        copy = replace(scene, poses=poses)
        assert np.shares_memory(copy.poses, poses)
        assert poses.flags.writeable and not copy.poses.flags.writeable
        with pytest.raises(ValueError):
            copy.poses[0, 0, 0, 0, 0] = 1.0

    def test_occlusion_from_frame_zero_reports_the_first_visible_pose(self):
        # no preset occludes from frame 0: with no earlier pose to hold, the
        # tracker reports the first visible one
        clean = cv.two_person_scenario(duration=24, seed=2)
        want = scene_arrays(clean)
        got = scene_arrays(replace(clean, crossings=(Crossing(0, 1, 0, 5),)))
        assert not np.array_equal(want.poses[0, :, 0], want.poses[0, :, 5])
        assert not got.valid[0, :, :5].any() and got.valid[0, :, 5:].all()
        assert np.array_equal(got.poses[0, :, :5], np.repeat(want.poses[0, :, 5:6], 5, axis=1))
        assert np.array_equal(got.poses[0, :, 5:], want.poses[0, :, 5:])
        assert np.array_equal(got.poses[5:], want.poses[5:])

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("poses", lambda s: s.poses[:, :, :7], "poses"),
            ("corners", lambda s: np.where(True, np.nan, s.corners), "corners"),
            ("corners", lambda s: s.corners[..., [2, 1, 0, 3]], "corners"),
            ("valid", lambda s: s.valid[0], "valid"),
            ("valid", lambda s: s.valid[:, :0], r"valid must have shape \(C, N, 8\), C, N >= 1"),
            ("pose_deltas", lambda s: s.pose_deltas[:-1], "pose_deltas"),
            ("motion_deltas", lambda s: np.full(s.motion_deltas.shape, np.inf), "motion_deltas"),
            ("person_ids", lambda s: [0, 0], "person_ids"),
            ("clip_ids", lambda s: s.clip_ids[:-1], "clip_ids"),
            ("wearer", lambda s: 5, "wearer"),
            ("wearer", lambda s: "0", "wearer must be a number, got '0'"),
            ("wearer", lambda s: 0.9, "wearer must be an integer, got 0.9"),
            ("wearer", lambda s: None, "wearer must be a number, got None"),
            ("wearer", lambda s: True, "wearer must be a number, got True"),
            ("pose_deltas", lambda s: with_leaf(s.pose_deltas, "0.5"), "pose_deltas must hold numbers, got str"),
            ("motion_deltas", lambda s: with_leaf(s.motion_deltas, True), "motion_deltas must hold numbers, got bool"),
            ("corners", lambda s: with_leaf(s.corners, None), "corners must hold numbers, got NoneType"),
            ("valid", lambda s: with_leaf(s.valid, "no"), "valid must hold true or false, got str"),
            ("person_ids", lambda s: [0, True], "person_ids must hold integers, got bool"),
            ("clip_ids", lambda s: with_leaf(s.clip_ids, 0.0), "clip_ids must hold integers, got float"),
            ("poses", lambda s: s.poses > 0.0, "poses must hold numbers, got bool"),
            ("valid", lambda s: s.valid.astype(float), "valid must hold true or false, got float64"),
            ("corners", lambda s: s.corners.astype(str), "corners must hold numbers, got str_"),
            # arrays in a list are checked by their dtype, as an array is
            ("poses", lambda s: [*s.poses[:-1], s.poses[-1].astype(str)], "poses must hold numbers, got str_"),
            ("corners", lambda s: [*s.corners[:-1], s.corners[-1] > 0.0], "corners must hold numbers, got bool"),
            ("valid", lambda s: list(s.valid.astype(float)), "valid must hold true or false, got float64$"),
        ],
    )
    def test_malformed_field_rejected_naming_it(self, field, value, match):
        scene = scene_arrays(cv.two_person_scenario(duration=16))
        fields = dict(scene.__dict__)
        fields[field] = value(scene)
        with pytest.raises(ValueError, match=match):
            cv.Scene(**fields)

    @pytest.mark.parametrize("wearer", [0.0, np.float64(0.0), np.int32(0)])
    def test_whole_number_wearer_is_read_as_an_int(self, wearer):
        # the wearer is an id like a candidate's or a JSON file's, which
        # _number reads: a whole float is taken as its int
        scene = scene_arrays(cv.two_person_scenario(duration=16))
        fields = dict(scene.__dict__, wearer=wearer)
        got = cv.Scene(**fields).wearer
        assert got == 0 and type(got) is int


class TestScenarioValidation:
    @pytest.mark.parametrize(
        "waypoints, speed, text",
        [((), 0.0, "waypoints must have shape"), (((0.0, 0.0), (0.0, 0.0)), 0.1, "waypoints")],
        ids=["empty", "repeated"],
    )
    def test_person_rejects_waypoints_naming_them(self, waypoints, speed, text):
        with pytest.raises(ValueError, match=text):
            PersonSpec(0, waypoints, speed, is_wearer=True)

    def test_rejects_no_person(self):
        with pytest.raises(ValueError, match="at least one person"):
            Scenario(0, 16, ())

    def test_rejects_time_offset_beyond_the_clip_window(self):
        p0 = PersonSpec(0, ((0.0, 0.0),), 0.0, is_wearer=True)
        with pytest.raises(ValueError, match="time_offset"):
            Scenario(0, 16, (p0,), time_offset=9)

    def test_person_occluded_for_the_whole_scenario_rejected(self):
        scenario = replace(cv.two_person_scenario(duration=16), crossings=(Crossing(0, 1, 0, 16),))
        with pytest.raises(ValueError, match="occluded for the entire scenario"):
            scene_arrays(scenario)

    def test_group_needs_two_people(self):
        with pytest.raises(ValueError, match="n_persons must be at least 2, got 1"):
            cv.group_scenario(1)

    def test_same_gait_gives_every_person_the_wearer_gait(self):
        for build in (cv.two_person_scenario, cv.three_person_scenario):
            assert {p.gait for p in build(same_gait=True).persons} == {build().persons[0].gait}
            assert len({p.gait for p in build().persons}) == len(build().persons)

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

    @pytest.mark.parametrize(
        "build, text",
        [
            # each was accepted, or raised a TypeError that names no field
            (lambda p0: NoiseParams(sigma_pose=True), "sigma_pose must be a number, got True"),
            (lambda p0: GaitParams(phase="0"), "phase must be a number, got '0'"),
            (lambda p0: PersonSpec(1.5, ((0.0, 0.0),), 0.0), "person_id must be an integer, got 1.5"),
            (lambda p0: PersonSpec(0, ((0.0, 0.0),), 0.0, is_wearer=1), "is_wearer must be true or false, got 1"),
            (lambda p0: Scenario(0.5, 16, (p0,)), "seed must be an integer, got 0.5"),
            (lambda p0: Scenario(0, "16", (p0,)), "duration must be a number, got '16'"),
            (lambda p0: Scenario(0, 16, (p0,), time_offset=None), "time_offset must be a number, got None"),
            (lambda p0: Crossing(0, 1, 2.5, 6), "start must be an integer, got 2.5"),
            (lambda p0: Crossing(0, True, 2, 6), "person_b must be a number, got True"),
        ],
        ids=[
            "true_noise",
            "string_gait",
            "fractional_id",
            "int_wearer_flag",
            "fractional_seed",
            "string_duration",
            "null_time_offset",
            "fractional_start",
            "true_person",
        ],
    )
    def test_misread_number_rejected_naming_field(self, build, text):
        with pytest.raises(ValueError, match=text):
            build(PersonSpec(0, ((0.0, 0.0),), 0.0, is_wearer=True))

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
            (((0.0, 0.0), (1.0, 0.0)), "0.1", 0.0, "speed"),
            (((0.0, 0.0),), 0.0, True, "heading"),
            ((("0", 0.0),), 0.0, 0.0, "waypoints"),
            (((0.0, 0.0, 1.0),), 0.0, 0.0, "waypoints"),
        ],
    )
    def test_person_rejects_nan_naming_field(self, waypoints, speed, heading, field):
        with pytest.raises(ValueError, match=field):
            PersonSpec(0, waypoints, speed, heading=heading, is_wearer=True)


# a number as a caller may pass it: a Python or numpy int or float
def as_any_number(draw, value):
    return draw(st.sampled_from([int, float, np.int64, np.float64] if value == int(value) else [float, np.float64]))(value)


# values no field should be read as, and some that one field or another takes
PROBES = [True, False, "1", None, math.nan, math.inf, -1, 0.5, 2.0, np.bool_(True), np.float32(0.25), np.int64(3)]


@st.composite
def scenario_parts(draw):
    """The keyword arguments of a Scenario, its persons, gait, noise and crossings as dicts, maybe with one probe."""
    number = lambda low, high: as_any_number(draw, draw(st.floats(low, high)))  # noqa: E731
    whole = lambda low, high: as_any_number(draw, draw(st.integers(low, high)))  # noqa: E731
    ids = draw(st.lists(st.integers(0, 9), min_size=1, max_size=3, unique=True))
    duration = draw(st.integers(8, 30))
    persons = [
        {
            "person_id": as_any_number(draw, pid),
            "waypoints": [[number(-5.0, 5.0), number(-5.0, 5.0)] for _ in range(draw(st.integers(1, 3)))],
            "speed": number(0.0, 1.0),
            "heading": number(-3.0, 3.0),
            "is_wearer": row == 0,
            "gait": {"arm_amplitude": number(0.0, 0.5), "phase": number(-3.0, 3.0), "stride_length": number(0.1, 2.0)},
        }
        for row, pid in enumerate(ids)
    ]
    crossings = []
    for _ in range(draw(st.integers(0, 2))):
        start = draw(st.integers(0, duration - 1))
        pair = [as_any_number(draw, pid) for pid in draw(st.lists(st.sampled_from(ids), min_size=2, max_size=2))]
        crossings.append({"person_a": pair[0], "person_b": pair[1], "start": start, "end": whole(start + 1, duration)})
    parts = {
        "seed": whole(0, 99),
        "duration": as_any_number(draw, duration),
        "time_offset": whole(8 - duration, duration - 8),
        "noise": {name: number(0.0, 0.1) for name in ("sigma_pose", "sigma_odo_trans", "sigma_odo_rot", "sigma_bbox")},
        "persons": persons,
        "crossings": crossings,
    }
    if draw(st.booleans()):  # one field, or one waypoint coordinate, gets a probe
        container = draw(st.sampled_from([parts, parts["noise"], *persons, *(p["gait"] for p in persons), *crossings]))
        keys = [k for k in container if k not in ("noise", "persons", "crossings", "gait")]
        key = draw(st.sampled_from(keys))
        if key == "waypoints":
            container, key = draw(st.sampled_from(container["waypoints"])), draw(st.integers(0, 1))
        container[key] = draw(st.sampled_from(PROBES))
    return parts


def scenario_of(parts):
    persons = [PersonSpec(**{**p, "gait": GaitParams(**p["gait"])}) for p in parts["persons"]]
    crossings = [Crossing(**c) for c in parts["crossings"]]
    return Scenario(**{**parts, "noise": NoiseParams(**parts["noise"]), "persons": persons, "crossings": crossings})


def set_at(obj, path, value):
    """Set the element of nested JSON containers that path of keys and indices leads to."""
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value


NUMBER_MISREADS = [("0.5", "str"), (True, "bool"), (None, "NoneType")]
# per array field of a clip file: the path to one of its leaves, the name its
# errors give, the word for what it holds, and the misreads put there
CLIP_FILE_LEAVES = [
    (("candidates", 1, "poses", 3, 4, 2), "poses", "numbers", NUMBER_MISREADS),
    (("candidates", 1, "boxes", 3, 2), "boxes", "numbers", NUMBER_MISREADS),
    (("candidates", 1, "valid", 5), "valid", "true or false", [("no", "str"), (1, "int"), (None, "NoneType")]),
    (("ego", "pose_deltas", 2, 4, 1), "pose_deltas", "numbers", NUMBER_MISREADS),
    (("ego", "motion", "deltas", 2, "translation", 1), "motion_deltas", "numbers", NUMBER_MISREADS),
]


class TestSerialization:
    def test_scenario_json_round_trip(self):
        scenario = cv.three_person_scenario(
            crossing=True, duration=40, seed=5, noise=NoiseParams(sigma_pose=0.01)
        )
        restored = scenario_from_json(scenario_to_json(scenario))
        assert restored == scenario

    @pytest.mark.parametrize(
        "scenario",
        [
            cv.two_person_scenario(),
            cv.two_person_scenario(crossing=True, duration=88, seed=4),
            cv.three_person_scenario(crossing=True, duration=88),
            cv.group_scenario(8, duration=120, seed=19),
        ],
        ids=["two", "two_crossing", "three_crossing", "group8"],
    )
    def test_preset_text_loads_equal_and_writes_same_bytes(self, scenario):
        text = scenario_to_json(scenario)
        restored = scenario_from_json(text)
        assert restored == scenario
        assert scenario_to_json(restored) == text

    @pytest.mark.parametrize(
        "keys",
        [(), ("persons", 0), ("crossings", 0), ("noise",), ("persons", 1, "gait")],
        ids=["scenario", "person", "crossing", "noise", "gait"],
    )
    def test_unknown_key_rejected_naming_it(self, keys):
        obj = json.loads(scenario_to_json(cv.three_person_scenario(crossing=True, duration=88)))
        target = obj
        for key in keys:
            target = target[key]
        target["extra"] = 1
        with pytest.raises(ValueError, match="unknown keys 'extra'"):
            scenario_from_json(json.dumps(obj))

    @pytest.mark.parametrize(
        "keys, text",
        [
            (("seed",), "a scenario lacks the key 'seed'"),
            (("duration",), "a scenario lacks the key 'duration'"),
            (("persons",), "a scenario lacks the key 'persons'"),
            (("persons", 1, "id"), "a person lacks the key 'id'"),
            (("persons", 1, "waypoints"), "a person lacks the key 'waypoints'"),
            (("persons", 1, "speed"), "a person lacks the key 'speed'"),
            (("crossings", 0, "pair"), "a crossing lacks the key 'pair'"),
            (("crossings", 0, "start"), "a crossing lacks the key 'start'"),
            (("crossings", 0, "end"), "a crossing lacks the key 'end'"),
        ],
    )
    def test_missing_scenario_key_rejected_naming_it(self, keys, text):
        obj = json.loads(scenario_to_json(cv.three_person_scenario(crossing=True, duration=88)))
        target = obj
        for key in keys[:-1]:
            target = target[key]
        del target[keys[-1]]
        with pytest.raises(ValueError, match=text):
            scenario_from_json(json.dumps(obj))

    @pytest.mark.parametrize(
        "keys, value, text",
        [
            (("persons",), 5, "persons must be a list"),
            (("crossings",), {}, "crossings must be a list"),
            (("persons", 0, "waypoints"), 3, "waypoints must be a list"),
            (("noise",), [0.1], "noise must be an object"),
            (("persons", 0, "gait"), None, "gait must be an object"),
        ],
    )
    def test_wrong_container_rejected_naming_it(self, keys, value, text):
        obj = json.loads(scenario_to_json(cv.three_person_scenario(crossing=True, duration=88)))
        target = obj
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        with pytest.raises(ValueError, match=text):
            scenario_from_json(json.dumps(obj))

    @settings(max_examples=300, deadline=None)
    @given(scenario_parts())
    def test_every_scenario_the_constructors_accept_survives_a_file(self, parts):
        # the constructors check each field as load_scenario does, so no
        # numpy number, bool or fractional id gets into a file the loader rejects
        try:
            scenario = scenario_of(parts)
        except ValueError:
            return
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "scenario.json"
            save_scenario(scenario, path)
            assert load_scenario(path) == scenario
            assert path.read_text() == scenario_to_json(load_scenario(path))

    def test_scenario_file_round_trip(self, tmp_path):
        scenario = cv.two_person_scenario(duration=20, seed=3)
        path = tmp_path / "scenario.json"
        save_scenario(scenario, path)
        assert load_scenario(path) == scenario

    def test_load_scenario_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_scenario(tmp_path / "missing.json")

    @pytest.mark.parametrize("version", [99, True, 1.0])
    def test_load_scenario_rejects_other_schema_version(self, tmp_path, version):
        obj = json.loads(scenario_to_json(cv.two_person_scenario(duration=20, seed=3)))
        obj["schema_version"] = version
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match=f"schema_version must be 1, got {version!r}"):
            load_scenario(path)

    def test_load_scenario_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            load_scenario(path)

    def test_clip_round_trip_is_exact(self):
        noise = NoiseParams(sigma_pose=0.02, sigma_odo_trans=0.01, sigma_odo_rot=0.01, sigma_bbox=0.01)
        scenario = cv.two_person_scenario(crossing=True, duration=80, seed=6, noise=noise)
        obj = clip_to_obj(scene_arrays(scenario), 70)  # overlaps the occlusion window
        restored = clip_from_obj(json.loads(json.dumps(obj)))
        assert clip_to_obj(restored, 0) == obj
        assert not restored.valid[0, 0].all()

    def test_clip_with_ego_start_pose_and_transform_still_loads(self):
        # clip files once also stored ego.handoff_pose and ego.motion.t_init
        noise = NoiseParams(sigma_pose=0.02, sigma_odo_trans=0.01, sigma_odo_rot=0.01, sigma_bbox=0.01)
        scene = scene_arrays(cv.two_person_scenario(duration=16, seed=6, noise=noise))
        obj = json.loads(json.dumps(clip_to_obj(scene, 3)))
        older = json.loads(json.dumps(obj))
        older["ego"]["handoff_pose"] = scene.poses[3, 0, 0].tolist()
        older["ego"]["motion"]["t_init"] = {"quaternion": [1.0, 0.0, 0.0, 0.0], "translation": [0.0, 0.0, 0.0]}
        assert clip_to_obj(clip_from_obj(older), 0) == obj == clip_to_obj(scene, 3)
        assert set(obj["ego"]) == {"pose_deltas", "motion"}
        assert set(obj["ego"]["motion"]) == {"deltas"}

    @pytest.mark.parametrize(
        "rotation, text",
        [
            ([1.0, 2.0], "motion_deltas must be an array of numbers of shape"),
            (["x", 0.0, 0.0], "motion_deltas must hold numbers, got str"),
        ],
    )
    def test_malformed_ego_increment_named(self, rotation, text):
        obj = json.loads(json.dumps(clip_to_obj(scene_arrays(cv.two_person_scenario(duration=16, seed=6)), 0)))
        obj["ego"]["motion"]["deltas"][2]["rotation"] = rotation
        with pytest.raises(ValueError, match=text):
            clip_from_obj(obj)

    @pytest.mark.parametrize("frames", [list(range(3, 11)), [2, 3, 4, 5, 5, 7, 8, 9], list(range(2, 9))])
    def test_mismatched_frames_rejected_naming_field(self, frames):
        obj = json.loads(json.dumps(clip_to_obj(scene_arrays(cv.two_person_scenario(duration=16, seed=6)), 2)))
        assert obj["candidates"][1]["frames"] == list(range(2, 10))
        obj["candidates"][1]["frames"] = frames
        with pytest.raises(ValueError, match=r"candidate 1 frames must be \[2, 3, 4, 5, 6, 7, 8, 9\]"):
            clip_from_obj(obj)

    @pytest.mark.parametrize(
        "misread, text",
        [
            (lambda obj: obj.update(clip_id=2.7), "clip_id must be an integer, got 2.7"),
            (lambda obj: obj["candidates"][1].update(person_id=1.7), "person_id must be an integer, got 1.7"),
            (lambda obj: obj.update(ground_truth_wearer=0.7), "ground_truth_wearer must be an integer, got 0.7"),
            (lambda obj: obj["candidates"][1].update(valid=["false"] * 8), "valid must hold true or false, got str"),
            (lambda obj: obj["candidates"][1]["boxes"][3].pop(), r"boxes must be an array of numbers of shape \(2, 8"),
            *(
                (lambda obj, path=path, value=value: set_at(obj, path, value), f"{name} must hold {noun}, got {kind}")
                for path, name, noun, values in CLIP_FILE_LEAVES
                for value, kind in values
            ),
        ],
        ids=[
            "fractional_clip_id",
            "fractional_person_id",
            "fractional_wearer",
            "string_valid",
            "three_number_box",
            *(f"{name}_{kind}" for _, name, _, values in CLIP_FILE_LEAVES for _, kind in values),
        ],
    )
    def test_misread_field_rejected_naming_it(self, misread, text):
        obj = clip_to_obj(scene_arrays(cv.two_person_scenario(duration=16, seed=6)), 2)
        misread(obj)
        with pytest.raises(ValueError, match=text):
            clip_from_obj(obj)

    @pytest.mark.parametrize(
        "part, key",
        [
            ("candidate", "boxes"),
            ("candidate", "poses"),
            ("candidate", "valid"),
            ("candidate", "frames"),
            ("ego", "pose_deltas"),
            ("ego", "motion"),
        ],
    )
    def test_missing_key_rejected_naming_it(self, tmp_path, part, key):
        scenario = cv.two_person_scenario(duration=16, seed=6)
        scene = scene_arrays(scenario)
        obj = json.loads(json.dumps(clip_to_obj(scene, 2)))
        del (obj["candidates"][1] if part == "candidate" else obj["ego"])[key]
        with pytest.raises(ValueError, match=f"lacks the key '{key}'"):
            clip_from_obj(obj)
        # load_scene reads every clip file through clip_from_obj
        save_scene(scene, tmp_path / "scene", scenario)
        (tmp_path / "scene" / "clip_00002.json").write_text(json.dumps(obj))
        with pytest.raises(ValueError, match=f"lacks the key '{key}'"):
            load_scene(tmp_path / "scene")

    @pytest.mark.parametrize(
        "misread, text",
        [
            (lambda obj: obj["candidates"].append([1, 2]), "a candidate must be an object, got \\[1, 2\\]"),
            (lambda obj: obj.update(ego=[1, 2]), "ego must be an object, got \\[1, 2\\]"),
            (lambda obj: obj["ego"].update(motion=3), "ego.motion must be an object, got 3"),
        ],
        ids=["list_candidate", "list_ego", "number_motion"],
    )
    def test_non_object_field_rejected_naming_it(self, tmp_path, misread, text):
        scenario = cv.two_person_scenario(duration=16, seed=6)
        scene = scene_arrays(scenario)
        obj = json.loads(json.dumps(clip_to_obj(scene, 2)))
        misread(obj)
        with pytest.raises(ValueError, match=text):
            clip_from_obj(obj)
        save_scene(scene, tmp_path / "scene", scenario)
        (tmp_path / "scene" / "clip_00002.json").write_text(json.dumps(obj))
        with pytest.raises(ValueError, match=text):
            load_scene(tmp_path / "scene")

    def test_scene_directory_round_trip(self, tmp_path):
        scenario = cv.two_person_scenario(duration=16, seed=8)
        scene = scene_arrays(scenario)
        save_scene(scene, tmp_path / "scene", scenario)
        restored = load_scene(tmp_path / "scene")
        assert clip_objs(restored) == clip_objs(scene)
        manifest = json.loads((tmp_path / "scene" / "manifest.json").read_text())
        assert manifest["clip_count"] == scene.clip_ids.size
        assert manifest["seed"] == 8
        assert len(manifest["config_hash"]) == 64

    def test_group_scene_directory_loads_bit_for_bit(self, tmp_path):
        scene = scene_arrays(cv.group_scenario(8, duration=120, seed=7, noise=NOISE))
        save_scene(scene, tmp_path)
        assert_same_scene(load_scene(tmp_path), scene)

    @pytest.mark.parametrize(
        "change, text",
        [
            (lambda obj: obj["candidates"][1].update(person_id=5), r"\(\[0, 5\], 0\), but the manifest"),
            (lambda obj: obj.update(ground_truth_wearer=1), r"\(\[0, 1\], 1\), but the manifest lists clip_id 2"),
            (lambda obj: obj.update(ground_truth_wearer=7), "person_ids must be distinct and hold the wearer 7"),
            (lambda obj: obj.update(clip_id=3), "holds clip_id 3 and .* manifest lists clip_id 2"),
        ],
        ids=["other_candidates", "other_wearer", "wearer_not_a_candidate", "other_clip_id"],
    )
    def test_clip_unlike_the_first_rejected_naming_both_files(self, tmp_path, change, text):
        scene = scene_arrays(cv.two_person_scenario(duration=16, seed=6))
        save_scene(scene, tmp_path)
        obj = clip_to_obj(scene, 2)
        change(obj)
        obj["candidates"] = [dict(c, frames=list(range(obj["clip_id"], obj["clip_id"] + 8))) for c in obj["candidates"]]
        path = tmp_path / "clip_00002.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match=text) as info:
            load_scene(tmp_path)
        assert str(path) in str(info.value)
        if "manifest" in text:
            assert str(tmp_path / "clip_00000.json") in str(info.value)

    @pytest.mark.parametrize(
        "change, text",
        [
            ({"schema_version": 99}, "schema_version must be 1, got 99"),
            ({"schema_version": True}, "schema_version must be 1, got True"),
            ({"schema_version": 1.0}, "schema_version must be 1, got 1.0"),
            ({"clip_count": 5}, "clip_count is 5, but clip_ids lists 9 clips"),
            ({"clip_count": 9.5}, "clip_count must be an integer, got 9.5"),
        ],
        ids=[
            "other_schema_version",
            "bool_schema_version",
            "float_schema_version",
            "other_clip_count",
            "fractional_clip_count",
        ],
    )
    def test_misread_manifest_rejected_naming_file_and_field(self, tmp_path, change, text):
        save_scene(scene_arrays(cv.two_person_scenario(duration=16, seed=6)), tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        assert manifest["clip_count"] == 9
        path.write_text(json.dumps(dict(manifest, **change)))
        with pytest.raises(ValueError, match=text) as info:
            load_scene(tmp_path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("version", [99, True, 1.0])
    def test_clip_file_of_other_schema_version_rejected_naming_it(self, tmp_path, version):
        scene = scene_arrays(cv.two_person_scenario(duration=16, seed=6))
        save_scene(scene, tmp_path)
        obj = clip_to_obj(scene, 2)
        text = f"schema_version must be 1, got {version!r}"
        with pytest.raises(ValueError, match=text):
            clip_from_obj(dict(obj, schema_version=version))
        path = tmp_path / "clip_00002.json"
        path.write_text(json.dumps(dict(obj, schema_version=version)))
        with pytest.raises(ValueError, match=text) as info:
            load_scene(tmp_path)
        assert str(path) in str(info.value)

    def test_manifest_listing_no_clip_rejected(self, tmp_path):
        save_scene(scene_arrays(cv.two_person_scenario(duration=16, seed=6)), tmp_path)
        (tmp_path / "manifest.json").write_text(json.dumps({"clip_ids": []}))
        with pytest.raises(ValueError, match="clip_ids must list at least one clip"):
            load_scene(tmp_path)


class TestPathWalking:
    def test_person_stops_at_final_waypoint(self):
        spec = PersonSpec(0, ((0.0, 0.0), (1.0, 0.0)), 0.5, GaitParams(), is_wearer=True)
        scenario = Scenario(0, 12, (spec,))
        clips = generate_scene(scenario)
        final_pose = clips[-1].candidates[0].poses[-1]
        assert abs(body_centers(final_pose)[0] - 1.0) < 0.2

    def test_multi_segment_path_turns(self):
        spec = PersonSpec(0, ((0.0, 0.0), (2.0, 0.0), (2.0, 2.0)), 0.25, GaitParams(), is_wearer=True)
        scenario = Scenario(0, 17, (spec,))
        clips = generate_scene(scenario)
        last = clips[-1].candidates[0]
        c = body_centers(last.poses[-1])
        assert c[0] > 1.5 and c[1] > 1.0
