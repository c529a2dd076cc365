"""Codebook tests: Lloyd fitting against exhaustive oracles, labels, cross-entropies."""

import errno
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

import crossview as cv
from crossview import action_codebook
from crossview.action_codebook import (
    _EXP_CUT,
    CLIP_DIM,
    DEFAULT_TAU,
    ActionCodebook,
    action_agreement,
    fit_codebook,
    label_scores,
    load_codebook,
    save_codebook,
    _cross_entropies,
    _draw,
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

    @pytest.mark.parametrize("n, k", [(500, 460), (24, 24)], ids=["k_above_clip_dim", "k_equals_n"])
    def test_fit_at_buffer_edges_matches_oracle(self, n, k):
        # above k = 456 the spare buffer is widened to k columns for the norm
        # sums, and the SSE differences use only its first n * 456 floats
        vectors = np.random.default_rng(n + k).normal(size=(n, CLIP_DIM))
        cb = fit_codebook(vectors.reshape(n, 8, 19, 3), k=k, seed=3)
        centroids, history, _, _ = oracle_fit(vectors, k=k, seed=3)
        assert np.array_equal(cb.centroids, centroids)
        assert cb.sse_history == tuple(history)

    def test_fit_working_memory_is_distances_and_the_larger_scratch(self):
        # the traced peak of a fit is its (n, k) distance buffer plus the
        # larger of the seeding's gather of n // 2 rows and the Lloyd passes'
        # block scratch, plus a slack for the centroids and one temporary of
        # their size (their norms) and 1 MiB for index arrays and interpreter
        # objects; a corpus-sized temporary in a Lloyd pass, or a spare of
        # n * max(k, 456) floats, would exceed it
        n, k = 1000, 100
        clips = np.random.default_rng(5).normal(size=(n, 8, 19, 3))
        fit_codebook(clips, k=k, seed=1, max_iters=3)  # lazy imports are not the fit's
        tracemalloc.start()
        try:
            fit_codebook(clips, k=k, seed=1, max_iters=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        gather = n // 2 * CLIP_DIM
        scratch = min(n, action_codebook._BLOCK_ROWS) * max(k, CLIP_DIM)
        assert peak <= (n * k + max(gather, scratch)) * 8 + 2 * k * CLIP_DIM * 8 + 2**20

    def assert_scores_match_oracle(self, cb, rows):
        n = len(rows) // 2
        scores = oracle_scores(cb.centroids, rows)
        labels = scores.argmax(axis=1)
        want_ego = -np.log(np.maximum(scores[np.arange(n), labels[n:]], 1e-12))
        want_third = -np.log(np.maximum(scores[n + np.arange(n), labels[:n]], 1e-12))
        ego_ce, third_ce = _cross_entropies(cb, rows, DEFAULT_TAU)  # the n ego rows first
        assert np.array_equal(ego_ce, want_ego)
        assert np.array_equal(third_ce, want_third)
        for i, row in enumerate(rows):
            want = oracle_scores(cb.centroids, row[None, :])[0]
            assert np.array_equal(label_scores(cb, clip_from_vector(row)), want)

    def test_scores_match_oracle(self):
        rng = np.random.default_rng(31)
        cb = ActionCodebook(rng.normal(size=(24, CLIP_DIM)))
        self.assert_scores_match_oracle(cb, rng.normal(size=(10, CLIP_DIM)))

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_stacked_pairs_get_the_bits_of_separate_calls(self, n):
        # each (2n, CLIP_DIM) array of a stack gets a distance product of its
        # own shape, so the bits do not depend on the stack
        rng = np.random.default_rng(43)
        cb = ActionCodebook(rng.normal(size=(64, CLIP_DIM)))
        ego, third = rng.normal(size=(2, 5, n, CLIP_DIM))
        ego_ce, third_ce = _cross_entropies(cb, np.concatenate([ego, third], axis=-2), DEFAULT_TAU)
        assert ego_ce.shape == third_ce.shape == (5, n)
        for i in range(5):
            want_ego, want_third = _cross_entropies(cb, np.concatenate([ego[i], third[i]]), DEFAULT_TAU)
            assert np.array_equal(ego_ce[i], want_ego)
            assert np.array_equal(third_ce[i], want_third)

    def test_rows_are_not_written(self):
        rng = np.random.default_rng(53)
        cb = ActionCodebook(rng.normal(size=(16, CLIP_DIM)))
        rows = rng.normal(size=(2, 6, CLIP_DIM))
        kept = rows.copy()
        _cross_entropies(cb, rows, DEFAULT_TAU)
        assert rows.tobytes() == kept.tobytes()

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


class TestBlockedSse:
    """The SSE summed leaf by leaf as numpy's pairwise tree, against np.add.reduce over one contiguous buffer."""

    LEAF = action_codebook._LEAF

    @staticmethod
    def tree_sum(x, most):
        return action_codebook._tree_sum(lambda start, end: np.add.reduce(x[start:end]), x.size, most=most)

    @pytest.mark.parametrize(
        "sizes",
        [
            range(1, 301),
            [m + d for m in (8 * 17, 128, 256, 1024, 4096, 128 * 129) for d in range(-9, 10)],
            [m + d for m in (LEAF, 2 * LEAF, 3 * LEAF) for d in (-9, -8, -1, 0, 1, 7, 8, 9)],
        ],
        ids=["flat_1_to_300", "around_multiples_of_8_and_128", "around_the_leaf"],
    )
    def test_tree_of_leaves_is_the_full_reduce(self, sizes):
        # leaves of 128 elements, the smallest numpy does not split, also
        # split the small sizes; values over 16 binary orders of magnitude
        # make the sum depend on its order
        rng = np.random.default_rng(len(sizes))
        for size in sizes:
            x = rng.random(size) ** 2 * 2.0 ** rng.integers(-8, 8, size)
            want = float(np.add.reduce(x))
            for most in (128, 136, self.LEAF):
                assert float(self.tree_sum(x, most)) == want, (size, most)

    @pytest.mark.parametrize("n", [*range(1, 41), 71, 72, 73, 74, 145, 146, 3144])
    def test_sse_is_the_reduce_of_the_full_difference_buffer(self, n):
        # n x 456 rows with random labels, over 16 binary orders of magnitude;
        # 3144 is group8's pose clip count
        rng = np.random.default_rng(n)
        k = 400 if n == 3144 else max(1, n // 3)
        vectors = rng.normal(size=(n, CLIP_DIM)) * 2.0 ** rng.integers(-8, 8, size=(n, CLIP_DIM))
        centroids = rng.normal(size=(k, CLIP_DIM))
        labels = rng.integers(k, size=n)
        diff = (vectors - centroids[labels]) ** 2
        scratch = np.empty(min(n, action_codebook._BLOCK_ROWS) * max(k, CLIP_DIM))
        got = action_codebook._sse(vectors, centroids, labels, scratch)
        assert got == float(np.add.reduce(diff, axis=None)) == float(diff.sum())


class TestCertifiedFit:
    """The pruned seeding, the incremental Lloyd passes and each fallback, against oracle_fit."""

    @staticmethod
    def fit_counting(monkeypatch, vectors, k, seed):
        """fit_codebook, with a record of what its certified loops did.

        Returns the codebook and a dict: "rows", the row count of each
        product over gathered rows in the seeding; "uncertified_draws", the
        number of draws _draw could not certify; "prunes", for each accepted
        draw in order, "norm" when the seeding skipped rows by their norms
        alone, "gap" when it also ran the owner-gap product over the seeds,
        and "none" after an uncertified draw restarted it on full products;
        "seeds", the seeded
        centroids; "seeded", whether the seeding certified pass 1's labels;
        "passes", in order, "full" for each full product of a Lloyd pass,
        and for each pass that tried to recompute only the moved centroids,
        "uncertified" when its labels could not be certified, "emptied" when
        they left a cluster empty, else "certified".
        """
        n = len(vectors)
        seen = {"rows": [], "uncertified_draws": 0, "prunes": [], "passes": []}
        product = action_codebook._pairwise_sq_distances
        draw = action_codebook._draw
        certify = action_codebook._certified_labels
        seed_centroids = action_codebook._seed_centroids

        def counting_product(a, a_sq, b, b_sq, out=None, sums=None):
            # only the gathered seeding products have fewer than n rows
            # and a buffer to write to
            if out is not None and a.shape[0] < n:
                seen["rows"].append(a.shape[0])
            # the owner-gap product is the fit's only one without a buffer
            if out is None:
                seen["prunes"][-1] = "gap"
            if a.shape[0] == n and b.shape[0] == k:
                seen["passes"].append("full")
            return product(a, a_sq, b, b_sq, out, sums)

        def counting_draw(rng, d2, slack):
            idx = draw(rng, d2, slack)
            seen["uncertified_draws"] += idx is None
            if idx is not None:
                seen["prunes"].append("none" if seen["uncertified_draws"] else "norm")
            return idx

        def counting_certify(*args):
            labels = certify(*args)
            if labels is None:
                seen["passes"].append("uncertified")
            elif np.bincount(labels, minlength=k).min() == 0:
                seen["passes"].append("emptied")
            else:
                seen["passes"].append("certified")
            return labels

        def recording_seeding(*args):
            centroids, labels = seed_centroids(*args)
            seen["seeds"], seen["seeded"] = centroids.copy(), labels is not None
            return centroids, labels

        monkeypatch.setattr(action_codebook, "_seed_centroids", recording_seeding)
        monkeypatch.setattr(action_codebook, "_pairwise_sq_distances", counting_product)
        monkeypatch.setattr(action_codebook, "_draw", counting_draw)
        monkeypatch.setattr(action_codebook, "_certified_labels", counting_certify)
        codebook = fit_codebook(vectors.reshape(n, 8, 19, 3), k=k, seed=seed)
        monkeypatch.undo()
        return codebook, seen

    @staticmethod
    def assert_matches_oracle(codebook, vectors, k, seed):
        centroids, history, _, _ = oracle_fit(vectors, k=k, seed=seed)
        assert np.array_equal(codebook.centroids, centroids)
        assert codebook.sse_history == tuple(history)

    def test_uncertified_draws_restart_the_seeding_on_the_full_product(self, monkeypatch):
        # near-duplicates lie closer than the rounding bound of their
        # distances, so a gathered product leaves draws uncertified
        uncertified = 0
        for seed in range(10):
            vectors = duplicate_heavy_vectors(seed)
            codebook, seen = self.fit_counting(monkeypatch, vectors, 4, seed)
            uncertified += seen["uncertified_draws"]
            self.assert_matches_oracle(codebook, vectors, 4, seed)
        assert uncertified > 0

    def test_distance_ties_run_the_full_pass(self, monkeypatch):
        # rows of one small integer in every coordinate: a row midway
        # between two centroids is at exactly the same distance from both
        rng = np.random.default_rng(32)
        vectors = np.repeat(rng.integers(0, 20, size=(150, 1)).astype(float), CLIP_DIM, axis=1)
        codebook, seen = self.fit_counting(monkeypatch, vectors, 12, 32)
        passes = seen["passes"]
        assert ("uncertified", "full") in zip(passes, passes[1:])
        self.assert_matches_oracle(codebook, vectors, 12, 32)

    def test_cluster_emptied_after_an_incremental_pass_runs_the_full_pass(self, monkeypatch):
        # 120 points on a line, denser near 0: the first pass takes the
        # seeding's labels and runs no product, the second runs the full one,
        # the third recomputes a few moved centroids, and the fourth, which
        # does too, leaves a cluster empty, so its reseed needs the full
        # product's distances
        rng = np.random.default_rng(19638)
        vectors = np.zeros((120, CLIP_DIM))
        vectors[:, 0] = 10.0 * rng.random(120) ** 1.5
        codebook, seen = self.fit_counting(monkeypatch, vectors, 30, 19638)
        assert seen["passes"][:4] == ["full", "certified", "emptied", "full"]
        self.assert_matches_oracle(codebook, vectors, 30, 19638)

    @pytest.mark.parametrize("offset, seeded", [(2.0**-42, False), (2.0**-20, True)])
    def test_row_equidistant_from_two_seeds_runs_the_full_first_pass(self, monkeypatch, offset, seeded):
        # at seed 6 the rows at 0 and 2 are the seeds, and the third row, at
        # 1 + offset, is for the smaller offset closer to equidistant from
        # both than the rounding bound: its pass-1 label is not certified, so
        # pass 1 runs the full product. At k=2 every later pass does too.
        vectors = np.zeros((3, CLIP_DIM))
        vectors[:, 0] = [0.0, 2.0, 1.0 + offset]
        codebook, seen = self.fit_counting(monkeypatch, vectors, 2, 6)
        assert sorted(seen["seeds"][:, 0]) == [0.0, 2.0]
        assert seen["seeded"] is seeded
        assert seen["passes"] == ["full"] * (len(codebook.sse_history) - seeded)
        self.assert_matches_oracle(codebook, vectors, 2, 6)

    def test_tie_in_a_gathered_product_runs_the_full_first_pass(self, monkeypatch):
        # distinct even integers on one axis: a row midway between two seeds
        # is exactly as far from both, and as the seeding skips most rows,
        # such ties show up in products over gathered rows
        vectors = np.zeros((120, CLIP_DIM))
        vectors[:, 0] = np.random.default_rng(0).choice(np.arange(0, 400, 2), size=120, replace=False)
        codebook, seen = self.fit_counting(monkeypatch, vectors, 10, 0)
        assert seen["rows"] and not seen["seeded"]
        self.assert_matches_oracle(codebook, vectors, 10, 0)

    def test_exactly_k_distinct_rows_then_repeats_fit(self):
        # the distinct count stops at the k-th distinct row, which is the
        # last row before the repeats; one cluster more counts every row
        rows = np.random.default_rng(8).normal(size=(6, CLIP_DIM))
        vectors = np.concatenate([rows, rows[::-1], rows[:4]])
        codebook = fit_codebook(vectors.reshape(-1, 8, 19, 3), k=6, seed=8)
        self.assert_matches_oracle(codebook, vectors, 6, 8)
        with pytest.raises(ValueError, match="need at least 7 distinct clips to fit 7 clusters, got 6"):
            fit_codebook(vectors.reshape(-1, 8, 19, 3), k=7, seed=8)

    @pytest.mark.parametrize("offset, certified", [(1e-12, False), (1e-6, True)])
    def test_labels_closer_than_the_rounding_bound_are_not_certified(self, offset, certified):
        # the first row is 1 from centroid 0 and 1 + offset from centroid 1,
        # which is recomputed: within the rounding bound of the partial
        # product, the two distances could rank either way
        vectors = np.zeros((3, CLIP_DIM))
        vectors[:, 0] = [1.0, 10.0, -10.0]
        centroids = np.zeros((4, CLIP_DIM))
        centroids[:, 0] = [0.0, 2.0 + offset, 10.0, -10.0]
        sq = (vectors * vectors).sum(axis=1)
        d2 = oracle_sq_distances(vectors, centroids)
        spare = np.empty(3 * CLIP_DIM)
        bound = action_codebook._ROUNDING * 4.0 * float(sq.max())
        labels = action_codebook._certified_labels(vectors, sq, centroids, np.array([1]), bound, d2, spare)
        if certified:
            np.testing.assert_array_equal(labels, np.argmin(oracle_sq_distances(vectors, centroids), axis=1))
        else:
            assert labels is None

    @pytest.mark.parametrize("n", [1001, 1002, 1003])
    def test_row_counts_off_whole_groups_of_four_match_oracle(self, monkeypatch, n):
        # rows spread mostly along three directions: the seeding skips rows
        # and gathers the others, in counts that are not all multiples of 4,
        # and later Lloyd passes recompute only the moved centroids
        rng = np.random.default_rng(n)
        vectors = rng.normal(size=(n, 3)) @ rng.normal(size=(3, CLIP_DIM)) + 0.3 * rng.normal(size=(n, CLIP_DIM))
        codebook, seen = self.fit_counting(monkeypatch, vectors, 40, 1)
        assert seen["seeded"]
        assert any(rows % 4 for rows in seen["rows"])
        assert "certified" in seen["passes"]
        self.assert_matches_oracle(codebook, vectors, 40, 1)

    def test_rows_differing_mostly_in_norm_run_both_prunes(self, monkeypatch):
        # multiples of one direction, from 1 to 10 times, plus a little
        # noise: the norm gap skips most rows of most draws, and the owner-gap
        # product runs where it leaves many. At k = 2n/3 most clusters hold
        # one row.
        rng = np.random.default_rng(5)
        vectors = rng.uniform(1.0, 10.0, size=(90, 1)) * rng.normal(size=CLIP_DIM) + 0.05 * rng.normal(size=(90, CLIP_DIM))
        codebook, seen = self.fit_counting(monkeypatch, vectors, 60, 5)
        assert seen["uncertified_draws"] == 0
        assert {"norm", "gap"} <= set(seen["prunes"])
        assert seen["prunes"].count("norm") > seen["prunes"].count("gap")
        assert seen["rows"]
        self.assert_matches_oracle(codebook, vectors, 60, 5)

    def test_rows_of_one_norm_fall_back_to_the_owner_gap(self, monkeypatch):
        # clumps on a sphere: every row has the same norm, so the norm gap
        # skips no row and every draw runs the owner-gap product, which
        # skips the clumps far from the new seed
        rng = np.random.default_rng(6)
        centers = rng.normal(size=(12, CLIP_DIM))
        vectors = centers[rng.integers(12, size=150)] + 0.1 * rng.normal(size=(150, CLIP_DIM))
        vectors *= 30.0 / np.sqrt((vectors * vectors).sum(axis=1, keepdims=True))
        codebook, seen = self.fit_counting(monkeypatch, vectors, 20, 6)
        assert seen["uncertified_draws"] == 0
        assert set(seen["prunes"]) == {"gap"}
        assert seen["rows"]
        self.assert_matches_oracle(codebook, vectors, 20, 6)

    def test_one_row_clusters_are_their_row_plus_zero(self, monkeypatch):
        # five clumps of six rows and five lone rows, far apart, at k = 10:
        # each lone row is a cluster of its own. Its coordinates but the
        # first are -0.0, and the mean of one row, like any mean, sums from
        # +0.0, so its centroid holds +0.0 there, as oracle_fit's mean does.
        rng = np.random.default_rng(7)
        clumps = np.repeat(100.0 * rng.normal(size=(5, CLIP_DIM)), 6, axis=0) + rng.normal(size=(30, CLIP_DIM))
        lone = np.full((5, CLIP_DIM), -0.0)
        lone[:, 0] = 1000.0 * np.arange(1, 6)
        vectors = np.concatenate([clumps, lone])
        codebook, seen = self.fit_counting(monkeypatch, vectors, 10, 7)
        centroids, history, _, _ = oracle_fit(vectors, k=10, seed=7)
        assert codebook.centroids.tobytes() == centroids.tobytes()
        assert codebook.sse_history == tuple(history)
        lone_centroids = codebook.centroids[np.isin(codebook.centroids[:, 0], lone[:, 0])]
        lone_centroids = lone_centroids[np.argsort(lone_centroids[:, 0])]
        assert lone_centroids.tobytes() == (lone + 0.0).tobytes()
        assert seen["seeded"]


class TestDraw:
    @pytest.mark.parametrize("zeros", [False, True], ids=["positive", "with_zeros"])
    def test_certified_draw_is_choices_draw(self, zeros):
        # _draw gets weights within slack of p's; when it certifies a draw,
        # its index is the one choice draws from p, and it has taken the
        # same one double from the generator
        certified = 0
        for trial in range(400):
            rng = np.random.default_rng(trial)
            n = int(rng.integers(1, 80))
            p = rng.random(n) ** 3
            if zeros:
                p[rng.random(n) < 0.5] = 0.0
                p[rng.integers(n)] = 1.0
            slack = float(p.sum()) * 10.0 ** rng.uniform(-12.0, -0.5)
            delta = rng.uniform(-1.0, 1.0, n)
            weights = np.maximum(p + delta * (slack / np.abs(delta).sum()), 0.0)
            ours, theirs = np.random.default_rng(trial + 1000), np.random.default_rng(trial + 1000)
            idx = _draw(ours, weights, slack)
            want = int(theirs.choice(n, p=p / float(p.sum())))
            if idx is not None:
                certified += 1
                assert idx == want, trial
                assert ours.bit_generator.state == theirs.bit_generator.state
        assert certified > 300

    def test_exact_draw_is_choices_draw(self):
        # with no slack the weights are choice's, including weights that
        # are all 0, for which the seeding draws a uniform index
        for trial, p in enumerate([np.array([0.0, 2.0, 0.0, 1.0]), np.zeros(5), np.random.default_rng(3).random(50)]):
            ours, theirs = np.random.default_rng(trial), np.random.default_rng(trial)
            total = float(p.sum())
            want = int(theirs.choice(len(p), p=p / total)) if total > 0.0 else int(theirs.integers(len(p)))
            assert _draw(ours, p, 0.0) == want
            assert ours.bit_generator.state == theirs.bit_generator.state


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

    @pytest.mark.parametrize("tau, text", [("0.1", "tau must be a number"), (math.nan, "tau must be finite")])
    def test_misread_tau_rejected_naming_it(self, tau, text):
        cb = ActionCodebook(RNG.normal(size=(3, CLIP_DIM)))
        with pytest.raises(ValueError, match=text):
            label_scores(cb, random_clip(RNG), tau=tau)

    @pytest.mark.parametrize(
        "tau, text",
        [
            (-1.0, "tau must be positive, got -1.0"),
            (0.0, "tau must be positive, got 0.0"),
            (math.nan, "tau must be finite"),
            (math.inf, "tau must be finite"),
            (True, "tau must be a number, got True"),
            ("0.1", "tau must be a number, got '0.1'"),
        ],
        ids=["negative", "zero", "nan", "inf", "true", "string"],
    )
    def test_tau_rejected_by_the_scalar_rule(self, tau, text):
        codebook = ActionCodebook(np.random.default_rng(47).normal(size=(16, CLIP_DIM)))
        clip = clip_from_vector(np.random.default_rng(53).normal(size=(2, 3, CLIP_DIM))[0, 0])
        with pytest.raises(ValueError, match=text):
            label_scores(codebook, clip, tau=tau)


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

    @pytest.mark.parametrize(
        "scores, text",
        [
            (["0.25"] * 4, "third_label_scores must hold numbers, got str"),
            ([True, False, False, False], "third_label_scores must hold numbers, got bool"),
            ([math.nan, 0.5, 0.5, 0.0], "third_label_scores must be finite"),
            ([1.5, -0.5, 0.0, 0.0], "third_label_scores must be non-negative"),
        ],
        ids=["string", "bool", "nan", "negative"],
    )
    def test_misread_scores_rejected_naming_them(self, scores, text):
        cb = ActionCodebook(RNG.normal(size=(4, CLIP_DIM)))
        with pytest.raises(ValueError, match=text):
            action_agreement(np.full(4, 0.25), scores, cb)


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
        with pytest.raises(ValueError, match="clips must have shape"):
            fit_codebook(np.zeros((4, 8, 19, 2)), k=2, seed=0)

    @staticmethod
    def with_leaf(clips, value):
        clips[2][5][7][1] = value
        return clips

    @pytest.mark.parametrize(
        "clips, arguments, text",
        [
            # numpy reads "0.5" and True as numbers
            (lambda c: TestSceneInput.with_leaf(c.tolist(), "0.5"), {}, "clips must hold numbers, got str"),
            (lambda c: TestSceneInput.with_leaf(c.tolist(), True), {}, "clips must hold numbers, got bool"),
            (lambda c: [*c[:-1], c[-1].astype(str)], {}, "clips must hold numbers, got str_"),
            (lambda c: [*c[:-1], c[-1] > 0.0], {}, "clips must hold numbers, got bool"),
            (lambda c: c > 0.0, {}, "clips must hold numbers, got bool"),
            (lambda c: c, {"k": "2"}, "k must be a number, got '2'"),
            (lambda c: c, {"max_iters": 2.5}, "max_iters must be an integer, got 2.5"),
        ],
        ids=[
            "string_leaf",
            "true_leaf",
            "string_array",
            "bool_array",
            "bool_corpus",
            "string_k",
            "fractional_max_iters",
        ],
    )
    def test_misread_argument_rejected_naming_it(self, clips, arguments, text):
        corpus = np.random.default_rng(3).normal(size=(6, 8, 19, 3))
        with pytest.raises(ValueError, match=text):
            fit_codebook(clips(corpus), **{"k": 2, "seed": 0, **arguments})

    def test_list_of_float_and_int_arrays_fits_like_the_array(self):
        corpus = np.random.default_rng(3).integers(-5, 5, size=(6, 8, 19, 3))
        clips = [clip.astype(float) if i % 2 else clip for i, clip in enumerate(corpus)]
        want = fit_codebook(corpus.astype(float), k=3, seed=0)
        assert fit_codebook(clips, k=3, seed=0).centroids.tobytes() == want.centroids.tobytes()


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
            ({"schema_version": 99}, "schema_version must be 1, got 99"),
            ({"schema_version": True}, "schema_version must be 1, got True"),
            ({"schema_version": 1.0}, "schema_version must be 1, got 1.0"),
            ({"centroids": [[0.0] * 455 + ["1"], [1.0] * 456]}, "centroids must hold numbers, got str"),
            ({"centroids": [[0.0] * 456, [True] + [1.0] * 455]}, "centroids must hold numbers, got bool"),
            ({"centroids": [[0.0] * 456, [1.0] * 455 + [None]]}, "centroids must hold numbers, got NoneType"),
            ({"centroids": [[0.0] * 455 + [[1.0]], [1.0] * 456]}, "centroids must hold numbers, got list"),
            ({"centroids": [[0.0] * 455 + ["]"], [1.0] * 456]}, "centroids must hold numbers, got str"),
            ({"centroids": [[0.0] * 456, [False] + [1.0] * 455]}, "centroids must hold numbers, got bool"),
            ({"centroids": [[0.0] * 455 + [{}], [1.0] * 456]}, "centroids must hold numbers, got dict"),
            ({"meta": {"centroids": [[2.0] * 456]}}, "the key 'centroids' is given more than once"),
        ],
        ids=[
            "k_not_the_centroid_count",
            "list_seed",
            "fractional_seed",
            "other_dim",
            "null_dim",
            "other_schema_version",
            "bool_schema_version",
            "float_schema_version",
            "string_centroid",
            "true_centroid",
            "null_centroid",
            "nested_list_in_a_row",
            "string_holding_a_bracket_in_a_row",
            "false_centroid",
            "empty_object_in_a_row",
            "nested_centroids_key",
        ],
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

    @pytest.mark.parametrize(
        "edit, text",
        [
            (lambda b: b.replace(b"0.0, ", b"0.0\xff, ", 1), "is not UTF-8 text"),
            (lambda b: b[:-1] + b', "centroids": ' + json.dumps([[2.0] * 456] * 2).encode() + b"}",
             "the key 'centroids' is given more than once"),
            (lambda b: b[:-1] + b', "centroids": [[], []]}', "the key 'centroids' is given more than once"),
            (lambda b: b.replace(b'"centroids": [', b'"meta": {"centroids": [').replace(b"]]}", b"]]}}"),
             "lacks the key 'centroids'"),
            (lambda b: b.replace(b"]]}", b"], ]}"), "Expecting value"),
            (lambda b: b.replace(b"], [", b"] x [", 1), "Expecting ',' delimiter: line 1 column"),
        ],
        ids=[
            "non_utf8_byte_in_a_row",
            "second_top_level_key",
            "second_top_level_key_of_empty_rows",
            "centroids_key_only_in_a_nested_object",
            "trailing_comma_after_the_rows",
            "garbage_between_rows",
        ],
    )
    def test_malformed_bytes_rejected_naming_the_file(self, tmp_path, edit, text):
        path = tmp_path / "codebook.json"
        save_codebook(ActionCodebook(np.stack([np.zeros(CLIP_DIM), np.ones(CLIP_DIM)]), seed=4), path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(ValueError, match=text) as info:
            load_codebook(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("layout", ["indent_2", "centroids_first", "crlf", "int_and_exponent_forms"])
    def test_other_layouts_load_the_bits_of_the_compact_file(self, tmp_path, layout):
        rows = np.random.default_rng(6).normal(size=(3, CLIP_DIM))
        rows[1, [0, 455]] = -0.0
        rows[2, 1:4] = [5e-324, 2.0**53 + 2.0, 1e150]  # a subnormal, an integer beyond 2**53 and a large float
        compact = tmp_path / "compact.json"
        save_codebook(ActionCodebook(rows, seed=2), compact)
        payload = json.loads(compact.read_bytes())
        if layout == "indent_2":
            text = json.dumps(payload, indent=2)
        elif layout == "centroids_first":
            text = json.dumps({"centroids": payload.pop("centroids"), **payload})
        elif layout == "crlf":
            text = json.dumps(payload, indent=2).replace("\n", "\r\n")
        else:  # JSON numbers as int and exponent forms, each read as json.load reads it
            text = compact.read_text().replace("9007199254740994.0", "9007199254740994").replace("1e+150", "1E150")
            assert text != compact.read_text()
        path = tmp_path / "codebook.json"
        path.write_bytes(text.encode())
        restored = load_codebook(path)
        want = np.asarray(json.loads(text)["centroids"], dtype=float)
        assert restored.centroids.tobytes() == want.tobytes() == load_codebook(compact).centroids.tobytes()
        assert (restored.k, restored.seed) == (3, 2)

    def test_load_peak_memory_is_the_file_and_two_copies_of_the_centroids(self, tmp_path):
        # the rows are parsed one at a time into one array, and the file's bytes are released before the codebook
        # copies the centroids; a tree of 182,400 Python floats, as json.load builds, would take about twice this
        path = tmp_path / "codebook.json"
        save_codebook(ActionCodebook(np.random.default_rng(7).normal(size=(400, CLIP_DIM))), path)
        load_codebook(path)  # lazy imports are not the load's
        tracemalloc.start()
        try:
            codebook = load_codebook(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size + 2 * codebook.centroids.nbytes

    @pytest.mark.parametrize("case", ["k1_null_seed", "fitted_k16", "negative_zero"])
    def test_file_is_json_dumps_of_the_payload(self, tmp_path, case):
        if case == "k1_null_seed":
            cb = ActionCodebook(RNG.normal(size=(1, CLIP_DIM)))
        elif case == "fitted_k16":
            cb = fit_codebook([random_clip(np.random.default_rng(i)) for i in range(40)], k=16, seed=9)
        else:
            rows = RNG.normal(size=(3, CLIP_DIM))
            rows[1, [0, 455]] = -0.0
            cb = ActionCodebook(rows, seed=2)
        payload = {
            "schema_version": 1,
            "kind": "action_codebook",
            "k": cb.k,
            "dim": CLIP_DIM,
            "seed": cb.seed,
            "centroids": cb.centroids.tolist(),
        }
        path = tmp_path / "codebook.json"
        save_codebook(cb, path)
        assert path.read_bytes() == json.dumps(payload).encode()
        if case == "negative_zero":  # the first and last coordinates of row 1
            assert b"], [-0.0, " in path.read_bytes() and b", -0.0], [" in path.read_bytes()
        assert np.array_equal(load_codebook(path).centroids, cb.centroids)

    def test_failed_write_leaves_no_temporary_and_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "codebook.json"
        save_codebook(ActionCodebook(np.ones((1, CLIP_DIM)), seed=1), path)
        before = path.read_bytes()

        class FullDisk:
            # writes a few characters of each write, then fails like a full disk
            def __init__(self, *args, **kwargs):
                self.fh = open(*args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[:5])
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(action_codebook, "open", FullDisk, raising=False)
        with pytest.raises(OSError, match="No space left"):
            save_codebook(ActionCodebook(np.zeros((2, CLIP_DIM)) + np.arange(2)[:, None], seed=2), path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["codebook.json"]
        assert path.read_bytes() == before

    def test_null_seed_loads(self, tmp_path):
        path = tmp_path / "codebook.json"
        save_codebook(ActionCodebook(np.ones((1, CLIP_DIM))), path)
        assert load_codebook(path).seed is None


class TestCodebookType:
    def test_agreement_rejects_scores_of_another_length(self):
        codebook = ActionCodebook(np.stack([np.zeros(CLIP_DIM), np.ones(CLIP_DIM)]))
        with pytest.raises(ValueError, match=r"ego_label_scores must have shape \(2,\)"):
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
