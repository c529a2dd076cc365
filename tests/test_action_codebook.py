"""Codebook tests: Lloyd fitting against exhaustive oracles, labels, cross-entropies."""

import itertools
import math

import numpy as np
import pytest

from crossview.action_codebook import (
    CLIP_DIM,
    ActionCodebook,
    action_agreement,
    assign_label,
    fit_codebook,
    label_scores,
    load_codebook,
    save_codebook,
)
from crossview.skeleton import Joint19Pose, PoseSequence, pose_clip_vector

RNG = np.random.default_rng(2024)


def clip_from_vector(vector):
    return PoseSequence([Joint19Pose(f) for f in np.asarray(vector).reshape(8, 19, 3)])


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
        # clumped data exercises the empty-cluster reseed policy
        for seed in range(10):
            rng = np.random.default_rng(seed)
            base = rng.normal(size=CLIP_DIM)
            vectors = [base + rng.normal(scale=1e-6, size=CLIP_DIM) for _ in range(8)]
            vectors += [base + 50.0 + rng.normal(scale=1e-6, size=CLIP_DIM) for _ in range(2)]
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


class TestCodebookType:
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
