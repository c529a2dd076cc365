"""Codebook tests: Lloyd fitting against exhaustive oracles, labels, cross-entropies."""

import itertools
import json
import math

import numpy as np
import pytest

import crossview as cv
from crossview.action_codebook import (
    _EXP_CUT,
    CLIP_DIM,
    DEFAULT_TAU,
    ActionCodebook,
    action_agreement,
    assign_label,
    cross_entropies,
    fit_codebook,
    label_scores,
    load_codebook,
    save_codebook,
    _row_scores,
)
from crossview.simulator import NoiseParams, generate_scene
from crossview.skeleton import pose_clip_vector

RNG = np.random.default_rng(2024)


def clip_from_vector(vector):
    return np.asarray(vector).reshape(8, 19, 3)


def random_clip(rng, center=0.0, spread=1.0):
    return clip_from_vector(rng.normal(loc=center, scale=spread, size=CLIP_DIM))


def exhaustive_two_cluster_sse(vectors):
    """Best 2-partition by brute force over all non-trivial splits."""
    n = len(vectors)
    best = (math.inf, None)
    for mask in itertools.product([0, 1], repeat=n):
        if len(set(mask)) < 2:
            continue
        sse = 0.0
        centroids = []
        for label in (0, 1):
            members = vectors[[m == label for m in mask]]
            mean = members.mean(axis=0)
            centroids.append(mean)
            sse += ((members - mean) ** 2).sum()
        if sse < best[0]:
            best = (sse, np.array(centroids))
    return best


def duplicate_heavy_vectors(seed):
    """Two tight clumps of 8 and 2 near-duplicate rows, 50 apart per axis."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=CLIP_DIM)
    vectors = [base + rng.normal(scale=1e-6, size=CLIP_DIM) for _ in range(8)]
    vectors += [base + 50.0 + rng.normal(scale=1e-6, size=CLIP_DIM) for _ in range(2)]
    return np.stack(vectors)


def oracle_sq_distances(a, b):
    # the expansion |a|^2 + |b|^2 - 2 a.b with both norms recomputed on every
    # call, in the operand order the fit and the scorer must reproduce
    d2 = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.maximum(d2, 0.0)


def oracle_fit(vectors, k, seed, max_iters=300):
    """fit_codebook step by step on oracle_sq_distances.

    Returns (centroids, sse_history, reseeds, moved): reseeds is the number
    of empty clusters refilled, moved the number of clusters that a row left
    or joined in each pass after the first. Every mean is recomputed on
    every pass.
    """
    n = vectors.shape[0]
    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(n))]
    d2 = oracle_sq_distances(vectors, vectors[chosen[-1]][None, :])[:, 0]
    for _ in range(1, k):
        total = float(d2.sum())
        idx = int(rng.choice(n, p=d2 / total)) if total > 0.0 else int(rng.integers(n))
        chosen.append(idx)
        d2 = np.minimum(d2, oracle_sq_distances(vectors, vectors[idx][None, :])[:, 0])
    centroids = vectors[chosen].copy()

    history = []
    previous = None
    reseeds = 0
    moved = []
    for _ in range(max_iters):
        d2 = oracle_sq_distances(vectors, centroids)
        labels = np.argmin(d2, axis=1)
        history.append(float(((vectors - centroids[labels]) ** 2).sum()))
        if previous is not None and np.array_equal(labels, previous):
            break
        if previous is not None:
            changed = labels != previous
            moved.append(len(set(labels[changed]) | set(previous[changed])))
        previous = labels
        new_centroids = centroids.copy()
        counts = np.bincount(labels, minlength=k)
        for j in np.flatnonzero(counts > 0):
            new_centroids[j] = vectors[labels == j].mean(axis=0)
        empty = np.flatnonzero(counts == 0)
        order = np.argsort(-d2[np.arange(n), labels], kind="stable")
        for j, idx in zip(empty, order):
            new_centroids[j] = vectors[idx]
        reseeds += empty.size
        centroids = new_centroids
    return centroids, history, reseeds, moved


def oracle_scores(centroids, vectors, tau=DEFAULT_TAU):
    d = np.sqrt(oracle_sq_distances(vectors, centroids))
    w = np.exp(-(d - d.min(axis=1, keepdims=True)) / tau)
    return w / w.sum(axis=1, keepdims=True)


class TestFit:
    def test_two_separated_pairs_match_exhaustive_oracle(self):
        for trial in range(10):
            rng = np.random.default_rng(trial)
            base = rng.normal(size=CLIP_DIM)
            far = base + 100.0
            vectors = np.stack(
                [
                    base + rng.normal(scale=0.05, size=CLIP_DIM),
                    base + rng.normal(scale=0.05, size=CLIP_DIM),
                    far + rng.normal(scale=0.05, size=CLIP_DIM),
                    far + rng.normal(scale=0.05, size=CLIP_DIM),
                ]
            )
            oracle_sse, oracle_centroids = exhaustive_two_cluster_sse(vectors)
            cb = fit_codebook([clip_from_vector(v) for v in vectors], k=2, seed=trial)
            assert cb.sse_history[-1] == pytest.approx(oracle_sse, rel=1e-12)
            got = cb.centroids[np.argsort(cb.centroids[:, 0])]
            want = oracle_centroids[np.argsort(oracle_centroids[:, 0])]
            np.testing.assert_array_equal(got, want)

    def test_k_equals_n_gives_zero_sse(self):
        clips = [random_clip(np.random.default_rng(i), center=10.0 * i) for i in range(5)]
        cb = fit_codebook(clips, k=5, seed=0)
        assert cb.sse_history[-1] == 0.0

    def test_deterministic_under_seed(self):
        clips = [random_clip(np.random.default_rng(i)) for i in range(30)]
        a = fit_codebook(clips, k=4, seed=17)
        b = fit_codebook(clips, k=4, seed=17)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        assert a.sse_history == b.sse_history

    def test_different_seeds_allowed_to_differ(self):
        clips = [random_clip(np.random.default_rng(i)) for i in range(30)]
        a = fit_codebook(clips, k=4, seed=1)
        b = fit_codebook(clips, k=4, seed=2)
        # no assertion on equality; both must still be valid codebooks
        assert a.k == b.k == 4

    def test_sse_non_increasing(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            clips = [random_clip(rng, center=rng.integers(4) * 3.0, spread=0.5) for _ in range(24)]
            cb = fit_codebook(clips, k=5, seed=seed)
            history = cb.sse_history
            assert all(later <= earlier for earlier, later in zip(history, history[1:]))

    def test_duplicate_heavy_data_keeps_invariants(self):
        # fewer clumps than clusters, so clusters split a clump of
        # near-duplicates; no cluster empties on this data, the reseed path is
        # covered by test_fit_with_empty_cluster_reseed_matches_oracle
        for seed in range(10):
            vectors = duplicate_heavy_vectors(seed)
            cb = fit_codebook([clip_from_vector(v) for v in vectors], k=4, seed=seed)
            history = cb.sse_history
            assert all(later <= earlier for earlier, later in zip(history, history[1:]))
            assert cb.k == 4

    def test_too_few_clips_rejected(self):
        clips = [random_clip(RNG) for _ in range(3)]
        with pytest.raises(ValueError):
            fit_codebook(clips, k=4, seed=0)

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            fit_codebook([random_clip(RNG)], k=0, seed=0)

    @pytest.mark.parametrize("max_iters", [0, -3])
    def test_max_iters_below_one_rejected(self, max_iters):
        clips = [random_clip(np.random.default_rng(i)) for i in range(6)]
        with pytest.raises(ValueError, match="max_iters"):
            fit_codebook(clips, k=2, seed=0, max_iters=max_iters)

    def test_fewer_distinct_clips_than_k_rejected(self):
        # three copies each of two clips; small integers keep every distance
        # exact, so seeding runs out of positive weight after two draws
        clips = [clip_from_vector(np.full(CLIP_DIM, value)) for value in (1.0, 3.0) * 3]
        with pytest.raises(ValueError, match="need at least 4 distinct clips to fit 4 clusters, got 2"):
            fit_codebook(clips, k=4, seed=0)

    def test_repeated_random_clips_fewer_than_k_rejected(self):
        # three copies each of five random clips: the norm expansion leaves
        # rounding residue for a row's own copies, so the seeding weight need
        # not sum to exactly 0 and only a count of the distinct rows catches this
        rng = np.random.default_rng(5)
        clips = [random_clip(rng) for _ in range(5)] * 3
        for seed in range(20):
            with pytest.raises(ValueError, match="need at least 6 distinct clips to fit 6 clusters, got 5"):
                fit_codebook(clips, k=6, seed=seed)


class TestNormCacheEquivalence:
    """Norms computed once give the same bits as norms recomputed per call."""

    def test_fit_on_noisy_scene_matches_oracle(self):
        noise = NoiseParams(sigma_pose=0.03, sigma_odo_trans=0.01, sigma_odo_rot=0.02, sigma_bbox=0.01)
        scene = generate_scene(cv.three_person_scenario(crossing=True, duration=60, seed=11, noise=noise))
        clips = [cand.poses for clip in scene for cand in clip.candidates]
        vectors = np.stack([pose_clip_vector(c) for c in clips])
        cb = fit_codebook(clips, k=16, seed=11)
        centroids, history, _, _ = oracle_fit(vectors, k=16, seed=11)
        assert np.array_equal(cb.centroids, centroids)
        assert cb.sse_history == tuple(history)

    def test_fit_on_duplicate_heavy_data_matches_oracle(self):
        for seed in range(10):
            vectors = duplicate_heavy_vectors(seed)
            cb = fit_codebook([clip_from_vector(v) for v in vectors], k=4, seed=seed)
            centroids, history, _, _ = oracle_fit(vectors, k=4, seed=seed)
            assert np.array_equal(cb.centroids, centroids), seed
            assert cb.sse_history == tuple(history), seed

    def test_fit_with_empty_cluster_reseed_matches_oracle(self):
        # 14 rows in three Gaussian clumps; at k=4 and seed 170 a Lloyd
        # update leaves one cluster empty, so the reseed path runs
        rng = np.random.default_rng(170)
        vectors = []
        for _ in range(3):
            centre = rng.normal(scale=3.0, size=CLIP_DIM)
            vectors += [centre + rng.normal(size=CLIP_DIM) for _ in range(rng.integers(2, 8))]
        vectors = np.stack(vectors)
        cb = fit_codebook([clip_from_vector(v) for v in vectors], k=4, seed=170)
        centroids, history, reseeds, _ = oracle_fit(vectors, k=4, seed=170)
        assert reseeds > 0
        assert np.array_equal(cb.centroids, centroids)
        assert cb.sse_history == tuple(history)

    def test_fit_recomputing_only_moved_means_matches_oracle(self):
        # rows spread mostly along three directions: rows keep changing
        # clusters for several passes while most clusters keep their members,
        # so most means are reused
        rng = np.random.default_rng(41)
        vectors = rng.normal(size=(240, 3)) @ rng.normal(size=(3, CLIP_DIM)) + 0.3 * rng.normal(size=(240, CLIP_DIM))
        cb = fit_codebook([clip_from_vector(v) for v in vectors], k=30, seed=41)
        centroids, history, reseeds, moved = oracle_fit(vectors, k=30, seed=41)
        assert reseeds == 0 and len(moved) >= 3
        assert any(0 < m < 30 for m in moved)
        assert np.array_equal(cb.centroids, centroids)
        assert cb.sse_history == tuple(history)

    def assert_scores_match_oracle(self, cb, rows):
        n = len(rows) // 2
        scores = oracle_scores(cb.centroids, rows)
        labels = scores.argmax(axis=1)
        want_ego = -np.log(np.maximum(scores[np.arange(n), labels[n:]], 1e-12))
        want_third = -np.log(np.maximum(scores[n + np.arange(n), labels[:n]], 1e-12))
        ego_ce, third_ce = cross_entropies(cb, rows[:n], rows[n:])
        assert np.array_equal(ego_ce, want_ego)
        assert np.array_equal(third_ce, want_third)
        for i, row in enumerate(rows):
            want = oracle_scores(cb.centroids, row[None, :])[0]
            assert np.array_equal(label_scores(cb, clip_from_vector(row)), want)
            assert np.array_equal(cb.distances(row), np.sqrt(oracle_sq_distances(row[None, :], cb.centroids)[0]))

    def test_scores_match_oracle(self):
        rng = np.random.default_rng(31)
        cb = ActionCodebook(rng.normal(size=(24, CLIP_DIM)))
        self.assert_scores_match_oracle(cb, rng.normal(size=(10, CLIP_DIM)))

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_stacked_pairs_get_the_bits_of_separate_calls(self, n):
        # each (n, CLIP_DIM) array of a stack gets a distance product of its
        # own shape, so the bits do not depend on the stack
        rng = np.random.default_rng(43)
        cb = ActionCodebook(rng.normal(size=(64, CLIP_DIM)))
        ego, third = rng.normal(size=(2, 5, n, CLIP_DIM))
        ego_ce, third_ce = cross_entropies(cb, ego, third)
        assert ego_ce.shape == third_ce.shape == (5, n)
        for i in range(5):
            want_ego, want_third = cross_entropies(cb, ego[i], third[i])
            assert np.array_equal(ego_ce[i], want_ego)
            assert np.array_equal(third_ce[i], want_third)

    def test_scores_through_the_underflow_cut_match_oracle(self):
        # centroids on one axis put the softmax arguments -(d - d_min) / tau
        # over [-2000, 0], densely through the band where exp is subnormal
        # (about -745.1 to -708.4) and past the cut at -746
        rng = np.random.default_rng(41)
        radii = np.unique(np.concatenate([rng.uniform(0.0, 2000.0, 600), rng.uniform(700.0, 750.0, 600), [0.0]]))
        centroids = np.zeros((len(radii), CLIP_DIM))
        centroids[:, 0] = radii
        cb = ActionCodebook(centroids)
        rows = np.concatenate([np.zeros((1, CLIP_DIM)), rng.normal(scale=1e-3, size=(5, CLIP_DIM))])
        want = oracle_scores(cb.centroids, rows, tau=1.0)
        assert ((want > 0.0) & (want < np.finfo(float).tiny)).sum() > 100
        assert (want == 0.0).sum() > 100
        assert _row_scores(cb, rows, 1.0).tobytes() == want.tobytes()
        for row, expected in zip(rows, want):
            assert label_scores(cb, clip_from_vector(row), tau=1.0).tobytes() == expected.tobytes()

    def test_exp_below_the_cut_is_plus_zero(self):
        # _row_scores writes +0.0 for every argument below _EXP_CUT without
        # calling exp; a numpy whose exp gave anything else there fails here
        below = np.concatenate([np.linspace(-5000.0, np.nextafter(_EXP_CUT, -np.inf), 1_000_001), [-1e300, -np.inf]])
        values = np.exp(below)
        assert (values == 0.0).all() and not np.signbit(values).any()

    def test_scores_after_round_trip_match_oracle(self, tmp_path):
        rng = np.random.default_rng(37)
        cb = fit_codebook([random_clip(rng) for _ in range(40)], k=12, seed=37)
        path = tmp_path / "codebook.json"
        save_codebook(cb, path)
        restored = load_codebook(path)
        self.assert_scores_match_oracle(restored, rng.normal(size=(10, CLIP_DIM)))


class TestAssign:
    def make_codebook(self):
        centroids = np.stack([np.full(CLIP_DIM, 10.0 * j) for j in range(4)])
        return ActionCodebook(centroids)

    def test_centroid_maps_to_own_label(self):
        cb = self.make_codebook()
        for j in range(4):
            assert assign_label(cb, clip_from_vector(cb.centroids[j])) == j

    def test_tie_breaks_to_lowest_index(self):
        cb = self.make_codebook()
        midpoint = clip_from_vector(np.full(CLIP_DIM, 15.0))  # between centroids 1 and 2
        assert assign_label(cb, midpoint) == 1

    def test_matches_linear_scan(self):
        cb = ActionCodebook(RNG.normal(size=(10, CLIP_DIM)))
        for _ in range(20):
            clip = random_clip(RNG)
            d = np.linalg.norm(cb.centroids - pose_clip_vector(clip), axis=1)
            assert assign_label(cb, clip) == int(np.argmin(d))

    def test_permutation_equivariant(self):
        cb = ActionCodebook(RNG.normal(size=(6, CLIP_DIM)))
        perm = np.array([3, 0, 5, 1, 4, 2])
        permuted = ActionCodebook(cb.centroids[perm])
        for _ in range(10):
            clip = random_clip(RNG)
            original = assign_label(cb, clip)
            assert perm[assign_label(permuted, clip)] == original


class TestScores:
    def test_scores_sum_to_one(self):
        cb = ActionCodebook(RNG.normal(size=(7, CLIP_DIM)))
        s = label_scores(cb, random_clip(RNG))
        assert s.shape == (7,)
        assert s.sum() == pytest.approx(1.0, abs=1e-12)
        assert (s >= 0.0).all()

    def test_sharpness_grows_as_tau_shrinks(self):
        cb = ActionCodebook(np.stack([np.zeros(CLIP_DIM), np.full(CLIP_DIM, 1.0)]))
        clip = clip_from_vector(np.full(CLIP_DIM, 0.2))
        sharp = label_scores(cb, clip, tau=0.05)
        soft = label_scores(cb, clip, tau=5.0)
        assert sharp.max() > soft.max()

    def test_bad_tau_rejected(self):
        cb = ActionCodebook(RNG.normal(size=(3, CLIP_DIM)))
        with pytest.raises(ValueError):
            label_scores(cb, random_clip(RNG), tau=0.0)


class TestAgreement:
    def one_hot(self, k, i):
        v = np.zeros(k)
        v[i] = 1.0
        return v

    def test_identical_one_hots(self):
        cb = ActionCodebook(RNG.normal(size=(10, CLIP_DIM)))
        ego_ce, third_ce = action_agreement(self.one_hot(10, 3), self.one_hot(10, 3), cb)
        assert ego_ce <= 1e-9
        assert third_ce <= 1e-9

    def test_disjoint_one_hots_clamp(self):
        cb = ActionCodebook(RNG.normal(size=(10, CLIP_DIM)))
        ego_ce, third_ce = action_agreement(self.one_hot(10, 3), self.one_hot(10, 7), cb)
        assert ego_ce == pytest.approx(-math.log(1e-12), rel=1e-12)
        assert third_ce == pytest.approx(-math.log(1e-12), rel=1e-12)

    def test_uniform_vs_one_hot_is_log_k(self):
        k = 400
        cb = ActionCodebook(RNG.normal(size=(k, CLIP_DIM)))
        uniform = np.full(k, 1.0 / k)
        ego_ce, third_ce = action_agreement(uniform, self.one_hot(k, 0), cb)
        assert abs(ego_ce - math.log(400)) < 1e-9
        # the one-hot names class 0, which is also uniform's argmax
        assert third_ce <= 1e-9

    def test_cross_entropy_non_negative(self):
        cb = ActionCodebook(RNG.normal(size=(5, CLIP_DIM)))
        for _ in range(20):
            a = RNG.random(5)
            a /= a.sum()
            b = RNG.random(5)
            b /= b.sum()
            ego_ce, third_ce = action_agreement(a, b, cb)
            assert ego_ce >= 0.0
            assert third_ce >= 0.0

    def test_unnormalized_rejected(self):
        cb = ActionCodebook(RNG.normal(size=(4, CLIP_DIM)))
        with pytest.raises(ValueError):
            action_agreement(np.full(4, 0.3), np.full(4, 0.25), cb)
        with pytest.raises(ValueError):
            action_agreement(np.array([1.2, -0.2, 0.0, 0.0]), np.full(4, 0.25), cb)


class TestSceneInput:
    def test_scene_array_fits_the_codebook_of_the_list_of_poses(self):
        noise = NoiseParams(sigma_pose=0.02, sigma_odo_trans=0.01, sigma_odo_rot=0.01, sigma_bbox=0.01)
        scenario = cv.three_person_scenario(crossing=True, duration=64, seed=7, noise=noise)
        poses = cv.scene_arrays(scenario).poses.reshape(-1, 8, 19, 3)
        from_array = fit_codebook(poses, k=64, seed=7)
        from_list = fit_codebook([c.poses for clip in generate_scene(scenario) for c in clip.candidates], k=64, seed=7)
        assert from_array.centroids.tobytes() == from_list.centroids.tobytes()
        assert from_array.sse_history == from_list.sse_history
        assert not poses.flags.writeable  # read in place

    def test_clips_of_another_shape_rejected(self):
        with pytest.raises(ValueError, match="clips must each have shape"):
            fit_codebook(np.zeros((4, 8, 19, 2)), k=2, seed=0)


class TestPersistence:
    def test_save_load_round_trip_bit_exact(self, tmp_path):
        clips = [random_clip(np.random.default_rng(i)) for i in range(12)]
        cb = fit_codebook(clips, k=3, seed=5)
        path = tmp_path / "codebook.json"
        save_codebook(cb, path)
        restored = load_codebook(path)
        np.testing.assert_array_equal(restored.centroids, cb.centroids)
        assert restored.seed == cb.seed
        assert restored.k == cb.k

    def test_load_rejects_other_files(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"kind": "something-else"}')
        with pytest.raises(ValueError):
            load_codebook(path)

    @pytest.mark.parametrize(
        "change, text",
        [
            ({"k": 3}, "k is 3, but the file holds 2 centroids"),
            ({"seed": [1]}, "seed must be a number, got \\[1\\]"),
            ({"seed": 1.5}, "seed must be an integer, got 1.5"),
            ({"dim": 10}, "codebook dimension 10 does not match 456"),
            ({"dim": None}, "dim must be a number, got None"),
        ],
        ids=["k_not_the_centroid_count", "list_seed", "fractional_seed", "other_dim", "null_dim"],
    )
    def test_misread_field_rejected_naming_file_and_field(self, tmp_path, change, text):
        path = tmp_path / "codebook.json"
        save_codebook(ActionCodebook(np.stack([np.zeros(CLIP_DIM), np.ones(CLIP_DIM)]), seed=4), path)
        payload = json.loads(path.read_text())
        payload.update(change)
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=text) as info:
            load_codebook(path)
        assert str(path) in str(info.value)

    def test_null_seed_loads(self, tmp_path):
        path = tmp_path / "codebook.json"
        save_codebook(ActionCodebook(np.ones((1, CLIP_DIM))), path)
        assert load_codebook(path).seed is None


class TestCodebookType:
    def test_distances_reject_a_vector_of_another_length(self):
        with pytest.raises(ValueError, match="clip vector must have 456 components"):
            ActionCodebook(np.ones((1, CLIP_DIM))).distances(np.zeros(3))

    def test_agreement_rejects_scores_of_another_length(self):
        codebook = ActionCodebook(np.stack([np.zeros(CLIP_DIM), np.ones(CLIP_DIM)]))
        with pytest.raises(ValueError, match="ego_label_scores must have 2 entries"):
            action_agreement(np.full(3, 1.0 / 3.0), np.array([0.5, 0.5]), codebook)

    def test_rows_that_differ_only_in_the_sign_of_zero_are_not_distinct(self):
        row = RNG.normal(size=CLIP_DIM)
        row[[3, 7]] = 0.0
        negative = row.copy()
        negative[[3, 7]] = -0.0
        assert row.tobytes() != negative.tobytes()
        with pytest.raises(ValueError, match="pairwise distinct"):
            ActionCodebook(np.stack([row, negative]))
        clips = [clip_from_vector(row), clip_from_vector(negative)]
        with pytest.raises(ValueError, match="need at least 2 distinct clips to fit 2 clusters, got 1"):
            fit_codebook(clips, k=2, seed=0)

    def test_rejects_duplicate_centroids(self):
        row = RNG.normal(size=CLIP_DIM)
        with pytest.raises(ValueError):
            ActionCodebook(np.stack([row, row]))

    def test_rejects_wrong_dim(self):
        with pytest.raises(ValueError):
            ActionCodebook(RNG.normal(size=(3, 10)))

    def test_rejects_non_finite(self):
        c = RNG.normal(size=(3, CLIP_DIM))
        c[1, 5] = np.inf
        with pytest.raises(ValueError):
            ActionCodebook(c)
