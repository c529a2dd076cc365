"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Golden values live in tests/golden/metrics.json and were pinned from
the first oracle run of the corresponding configurations.
"""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
from scipy.spatial.transform import Rotation

import crossview as cv
from crossview import bayes_filter
from crossview.action_codebook import (
    ActionCodebook,
    action_agreement,
    fit_codebook,
)
from crossview.cli import RunConfig, run_evaluation
from crossview.geometry import (
    RotationDelta,
    error_quaternion,
    quaternion_products,
    rotation_matrices,
    se3_compose,
    unit_quaternions,
)
from crossview.motion import bbox_trajectory, integrate_ego_motion
from crossview.simulator import save_scenario
from crossview.skeleton import body_frame, integrate_pose_deltas
from crossview.verification import ScoringConfig, localize, verify_pair

GOLDEN = json.loads((Path(__file__).parent / "golden" / "metrics.json").read_text())

SUITE_START = time.perf_counter()

# the acceptance noise configuration: 2 cm pose noise, 1 cm / 0.01 rad odometry
NOISE = cv.NoiseParams(sigma_pose=0.02, sigma_odo_trans=0.01, sigma_odo_rot=0.01, sigma_bbox=0.01)

GRID = 2.0 ** -10  # binary grid for exact-arithmetic test inputs


def homogeneous(transform):
    """The 4x4 matrix of a (rotation, translation) pair."""
    m = np.eye(4)
    m[:3, :3] = rotation_matrices(transform[0][None])[0]
    m[:3, 3] = transform[1]
    return m


def test_criterion_1_geometry_oracles():
    """Quaternion/SE(3) ops match matrix oracles on 10,000 random inputs."""
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    n = 10_000

    # quaternion exponential vs rotation-vector matrix exponential
    rotvecs = rng.normal(size=(n, 3)) * rng.uniform(0.0, math.pi - 1e-3, size=(n, 1))
    mine = rotation_matrices(np.array([error_quaternion(RotationDelta(v)) for v in rotvecs]))
    oracle = Rotation.from_rotvec(rotvecs).as_matrix()
    err_exp = np.abs(mine - oracle).max()
    assert err_exp < 1e-9

    # zero branch is exactly the identity quaternion
    q0 = error_quaternion(RotationDelta([0.0, 0.0, 0.0]))
    assert tuple(q0) == (1.0, 0.0, 0.0, 0.0)

    # quaternion composition vs rotation-matrix product
    raw = rng.normal(size=(2 * n, 4))
    quats = unit_quaternions(raw)
    mats = rotation_matrices(quats)
    composed = rotation_matrices(quaternion_products(quats[0::2], quats[1::2]))
    oracle = np.einsum("nij,njk->nik", mats[0::2], mats[1::2])
    err_quat = np.abs(composed - oracle).max()
    assert err_quat < 1e-9

    # rigid-transform composition vs homogeneous 4x4 product
    transforms = [(unit_quaternions(rng.normal(size=(1, 4)))[0], rng.normal(size=3)) for _ in range(2 * n)]
    hom = np.array([homogeneous(t) for t in transforms])
    composed = np.array([homogeneous(se3_compose(transforms[2 * i], transforms[2 * i + 1])) for i in range(n)])
    oracle = np.einsum("nij,njk->nik", hom[0::2], hom[1::2])
    err_se3 = np.abs(composed - oracle).max()
    assert err_se3 < 1e-9

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(
        f"PASS criterion 1: geometry oracles on {n} inputs "
        f"(exp {err_exp:.2e}, compose {err_quat:.2e}, se3 {err_se3:.2e}; {elapsed:.1f}s < 10s)"
    )


def test_criterion_2_zero_noise_cross_view_equality():
    """1,000 clean clips: exact pose equality, 1e-9 track equality, accuracy 1."""
    scenarios = [
        cv.two_person_scenario(crossing=False, duration=207, seed=0),
        cv.two_person_scenario(crossing=False, duration=207, seed=1),
        cv.three_person_scenario(crossing=False, duration=207, seed=2),
        cv.three_person_scenario(crossing=False, duration=207, seed=3),
        cv.three_person_scenario(crossing=False, duration=207, seed=4),
    ]
    total_clips = 0
    correct = 0
    worst_track = 0.0
    for scenario in scenarios:
        clips = cv.generate_scene(scenario)
        codebook = fit_codebook([c.poses for clip in clips for c in clip.candidates], k=16, seed=scenario.seed)
        for clip in clips:
            total_clips += 1
            wearer = next(c for c in clip.candidates if c.person_id == clip.ground_truth_wearer)

            rebuilt = integrate_pose_deltas(wearer.poses[0], clip.ego.pose_deltas)
            assert np.array_equal(rebuilt, wearer.poses)  # bit-exact

            ego_track = integrate_ego_motion(body_frame(wearer.poses[0]), clip.ego.motion_deltas)
            gap = np.abs(ego_track - bbox_trajectory(wearer.boxes)).max()
            worst_track = max(worst_track, gap)
            assert gap < 1e-9

            predicted, _ = localize(clip.ego, clip.candidates, codebook)
            correct += int(predicted == clip.ground_truth_wearer)

    assert total_clips >= 1000
    accuracy = correct / total_clips
    assert accuracy == 1.0
    print(
        f"PASS criterion 2: {total_clips} zero-noise clips, poses bit-exact, "
        f"worst track gap {worst_track:.2e} < 1e-9, accuracy {accuracy}"
    )


def test_criterion_3_initial_pose_dependence():
    """Same deltas from two starts: exact constant offset, different labels."""
    rng = np.random.default_rng(33)
    region_gap = np.array([10.0, 0.0, 0.0])  # exactly representable

    def grid(shape, scale):
        return rng.integers(-scale, scale, size=shape) * GRID

    def random_clip_near(base):
        init = base + grid((19, 3), 512)
        deltas = [grid((19, 3), 32) for _ in range(7)]
        return integrate_pose_deltas(init, deltas)

    base_a = np.zeros((19, 3))
    base_b = base_a + region_gap
    corpus = [random_clip_near(base_a) for _ in range(30)] + [random_clip_near(base_b) for _ in range(30)]
    codebook = fit_codebook(corpus, k=2, seed=0)

    def label(clip):  # the nearest centroid
        return int(np.argmin(np.linalg.norm(codebook.centroids - clip.reshape(-1), axis=1)))

    for _ in range(100):
        p1 = base_a + grid((19, 3), 512)
        p2 = p1 + region_gap
        deltas = [grid((19, 3), 32) for _ in range(7)]
        seq1 = integrate_pose_deltas(p1, deltas)
        seq2 = integrate_pose_deltas(p2, deltas)
        offset = p1 - p2
        for a, b in zip(seq1, seq2):
            assert np.array_equal(a - b, offset)  # exact at every frame
        assert label(seq1) != label(seq2)

    print("PASS criterion 3: 100 start-pose pairs, constant offset exact, labels differ across cells")


def test_criterion_4_kmeans_behaviour():
    """Lloyd SSE monotone over 100 seeded fits; exact on 4-point instances."""
    rng = np.random.default_rng(4)

    def clip_from_vector(vector):
        return np.asarray(vector).reshape(8, 19, 3)

    monotone_checked = 0
    for seed in range(100):
        local = np.random.default_rng(seed)
        clips = [
            clip_from_vector(local.normal(loc=3.0 * local.integers(4), scale=0.5, size=456))
            for _ in range(24)
        ]
        cb = fit_codebook(clips, k=5, seed=seed)
        history = cb.sse_history
        assert all(later <= earlier for earlier, later in zip(history, history[1:]))
        monotone_checked += len(history)

    # exhaustive two-cluster oracle on well-separated pairs
    for trial in range(20):
        local = np.random.default_rng(trial)
        base = local.normal(size=456)
        vectors = np.stack(
            [
                base + local.normal(scale=0.05, size=456),
                base + local.normal(scale=0.05, size=456),
                base + 100.0 + local.normal(scale=0.05, size=456),
                base + 100.0 + local.normal(scale=0.05, size=456),
            ]
        )
        best_sse, best_centroids = None, None
        for mask in itertools.product([0, 1], repeat=4):
            if len(set(mask)) < 2:
                continue
            sse = 0.0
            centroids = []
            for label in (0, 1):
                members = vectors[[m == label for m in mask]]
                mean = members.mean(axis=0)
                centroids.append(mean)
                sse += ((members - mean) ** 2).sum()
            if best_sse is None or sse < best_sse:
                best_sse, best_centroids = sse, np.array(centroids)
        cb = fit_codebook([clip_from_vector(v) for v in vectors], k=2, seed=trial)
        assert abs(cb.sse_history[-1] - best_sse) < 1e-9 * max(1.0, best_sse)
        got = cb.centroids[np.argsort(cb.centroids[:, 0])]
        want = best_centroids[np.argsort(best_centroids[:, 0])]
        assert np.array_equal(got, want)

    # determinism under a fixed seed
    clips = [clip_from_vector(rng.normal(size=456)) for _ in range(20)]
    first = fit_codebook(clips, k=4, seed=123)
    second = fit_codebook(clips, k=4, seed=123)
    assert np.array_equal(first.centroids, second.centroids)

    print(
        f"PASS criterion 4: SSE monotone over 100 fits ({monotone_checked} iterations), "
        "4-point instances match the exhaustive oracle, deterministic under seed"
    )


def test_criterion_5_bayes_filter():
    """Reference recursion to 1e-12; filtered >= raw on 20 crossing scenes."""
    # part 1: vectorized filter vs hand-rolled recursion, 50 steps
    rng = np.random.default_rng(1234)
    n = 3
    alpha, beta, sigma_p, dt = 0.05, 0.7, 0.5, 1.0
    state = bayes_filter.init_filter(range(n), np.zeros((n, 2)))
    ref_w = [1.0 / n] * n
    ref_pos = [[0.0, 0.0] for _ in range(n)]
    ref_vel = [[0.0, 0.0] for _ in range(n)]
    for _ in range(50):
        scores = rng.random(n)
        observed = rng.normal(size=(n, 2), scale=0.3) + np.array(ref_pos)
        occluded = rng.random(n) < 0.2
        state = bayes_filter.predict(state, dt=dt, alpha=alpha)
        state = bayes_filter.update(state, scores, observed, occluded=occluded, beta=beta, sigma_p=sigma_p, dt=dt)

        ref_w = [(1.0 - alpha) * w + alpha / n for w in ref_w]
        total = sum(ref_w)
        ref_w = [w / total for w in ref_w]
        pred = [[p[0] + v[0] * dt, p[1] + v[1] * dt] for p, v in zip(ref_pos, ref_vel)]
        like = []
        for i in range(n):
            gap2 = (observed[i][0] - pred[i][0]) ** 2 + (observed[i][1] - pred[i][1]) ** 2
            kernel = math.exp(-gap2 / (2.0 * sigma_p**2))
            like.append(kernel if occluded[i] else scores[i] * kernel)
        unnorm = [w * l for w, l in zip(ref_w, like)]
        mass = sum(unnorm)
        if mass > 0.0:
            ref_w = [u / mass for u in unnorm]
        for i in range(n):
            fd = [
                (observed[i][0] - pred[i][0]) / dt + ref_vel[i][0],
                (observed[i][1] - pred[i][1]) / dt + ref_vel[i][1],
            ]
            ref_vel[i] = [beta * ref_vel[i][0] + (1 - beta) * fd[0], beta * ref_vel[i][1] + (1 - beta) * fd[1]]
            ref_pos[i] = list(observed[i])
        assert np.abs(state.weights - np.array(ref_w)).max() < 1e-12
        assert np.abs(state.positions - np.array(ref_pos)).max() < 1e-12
        assert np.abs(state.velocities - np.array(ref_vel)).max() < 1e-12

    # part 2: filtering never hurts accuracy on seeded crossing scenes
    config = ScoringConfig()
    results = []
    for seed in range(10):
        for build in (cv.two_person_scenario, cv.three_person_scenario):
            scenario = build(crossing=True, duration=88, seed=seed, noise=NOISE)
            clips = cv.generate_scene(scenario)
            codebook = fit_codebook(
                [c.poses for clip in clips for c in clip.candidates], k=128, seed=seed
            )
            ids = [c.person_id for c in clips[0].candidates]
            state = bayes_filter.init_filter(ids, [c.boxes[-1].center for c in clips[0].candidates])
            raw = filtered = 0
            for clip in clips:
                predicted, scores = localize(clip.ego, clip.candidates, codebook, config)
                raw += int(predicted == clip.ground_truth_wearer)
                state = bayes_filter.predict(state)
                state = bayes_filter.update(
                    state,
                    [s.match_probability for s in scores],
                    [c.boxes[-1].center for c in clip.candidates],
                    occluded=[not c.fully_valid() for c in clip.candidates],
                )
                filtered += int(bayes_filter.map_identity(state) == clip.ground_truth_wearer)
            results.append((raw / len(clips), filtered / len(clips)))

    assert len(results) == 20
    assert all(filtered >= raw for raw, filtered in results)
    improved = sum(1 for raw, filtered in results if filtered > raw)
    mean_raw = sum(r for r, _ in results) / len(results)
    mean_filtered = sum(f for _, f in results) / len(results)
    print(
        f"PASS criterion 5: recursion matches reference to 1e-12; filtered >= raw on 20/20 "
        f"crossing scenes (mean {mean_raw:.3f} -> {mean_filtered:.3f}, strictly better on {improved})"
    )


def test_criterion_6_noise_robustness_sweep():
    """Pinned accuracy >= 0.95 at the 2 cm / 1 cm noise point; sweep monotone."""
    golden = GOLDEN["noise_sweep"]
    config = ScoringConfig()
    accuracies = []
    for sigma_pose in golden["sigma_pose"]:
        noise = cv.NoiseParams(
            sigma_pose=sigma_pose, sigma_odo_trans=0.01, sigma_odo_rot=0.01, sigma_bbox=0.01
        )
        scenario = cv.three_person_scenario(crossing=False, duration=207, seed=7, noise=noise)
        clips = cv.generate_scene(scenario)
        assert len(clips) == 200
        codebook = fit_codebook([c.poses for clip in clips for c in clip.candidates], k=400, seed=7)
        correct = sum(
            int(localize(clip.ego, clip.candidates, codebook, config)[0] == clip.ground_truth_wearer)
            for clip in clips
        )
        accuracies.append(correct / len(clips))

    for got, want in zip(accuracies, golden["accuracy"]):
        assert abs(got - want) < 1e-12
    noise_point = accuracies[golden["sigma_pose"].index(0.02)]
    assert noise_point >= 0.95
    assert all(later <= earlier for earlier, later in zip(accuracies, accuracies[1:]))
    print(
        f"PASS criterion 6: accuracy {noise_point} >= 0.95 at 2cm/1cm noise; "
        f"sweep {accuracies} non-increasing and matches golden"
    )


def test_criterion_7_loss_bookkeeping():
    """Exact four-term decomposition; uniform-vs-one-hot CE equals log 400."""
    scenario = cv.three_person_scenario(crossing=True, duration=40, seed=0, noise=NOISE)
    clips = cv.generate_scene(scenario)
    codebook = fit_codebook([c.poses for clip in clips for c in clip.candidates], k=32, seed=0)
    config = ScoringConfig(action_weight=1.25, motion_weight=0.75)
    checked = 0
    for clip in clips:
        for candidate in clip.candidates:
            s = verify_pair(clip.ego, candidate, codebook, config)
            expected = 1.25 * (s.action_ego_ce + s.action_third_ce) + 0.75 * (s.motion_ego_l1 + s.motion_third_l1)
            assert s.total == expected  # exact, by construction
            checked += 1

    k = 400
    big = ActionCodebook(np.random.default_rng(0).normal(size=(k, 456)))
    uniform = np.full(k, 1.0 / k)
    one_hot = np.zeros(k)
    one_hot[0] = 1.0
    ego_ce, _ = action_agreement(uniform, one_hot, big)
    assert abs(ego_ce - math.log(400)) < 1e-9
    print(
        f"PASS criterion 7: decomposition exact on {checked} scored pairs; "
        f"CE(uniform, one-hot@400) = {ego_ce:.10f} = log(400) within 1e-9"
    )


def test_criterion_8_reproducibility(tmp_path):
    """Identical config and seed produce byte-identical report files."""
    scenario = cv.three_person_scenario(crossing=True, duration=64, seed=9, noise=NOISE)
    path = tmp_path / "scenario.json"
    save_scenario(scenario, path)
    config = RunConfig(scenario=str(path), out_dir=str(tmp_path / "out"), codebook_k=64)
    run_evaluation(config)
    first = (tmp_path / "out" / "report.json").read_bytes()
    run_evaluation(config)
    second = (tmp_path / "out" / "report.json").read_bytes()
    assert first == second

    elapsed = time.perf_counter() - SUITE_START
    assert elapsed < 240.0  # leaves headroom inside the 5-minute budget
    print(
        f"PASS criterion 8: byte-identical reports ({len(first)} bytes); "
        f"acceptance module finished in {elapsed:.0f}s"
    )
