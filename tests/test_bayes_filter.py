"""Bayes filter tests: the recursion against a hand-rolled reference."""

import math

import numpy as np
import pytest

from crossview.bayes_filter import (
    FilterState,
    init_filter,
    map_identity,
    predict,
    update,
)


def make_state(weights, positions=None, velocities=None, ids=None):
    n = len(weights)
    return FilterState(
        ids=tuple(ids or range(n)),
        weights=np.asarray(weights, dtype=float),
        positions=np.asarray(positions if positions is not None else np.zeros((n, 2)), dtype=float),
        velocities=np.asarray(velocities if velocities is not None else np.zeros((n, 2)), dtype=float),
    )


class TestPredict:
    def test_zero_velocity_keeps_positions(self):
        state = make_state([0.5, 0.5], positions=[[1.0, 2.0], [3.0, 4.0]])
        out = predict(state, dt=2.0)
        np.testing.assert_array_equal(out.positions, state.positions)

    def test_positions_advance_by_velocity(self):
        state = make_state([1.0], positions=[[1.0, 1.0]], velocities=[[0.5, -0.25]])
        out = predict(state, dt=2.0)
        np.testing.assert_array_equal(out.positions, [[2.0, 0.5]])

    def test_alpha_zero_keeps_weights(self):
        state = make_state([0.6, 0.4])
        out = predict(state, alpha=0.0)
        np.testing.assert_array_equal(out.weights, [0.6, 0.4])

    def test_uniform_mixing_example(self):
        state = make_state([1.0, 0.0])
        out = predict(state, alpha=0.05)
        np.testing.assert_array_equal(out.weights, [0.975, 0.025])

    def test_bad_alpha_rejected(self):
        with pytest.raises(ValueError):
            predict(make_state([1.0]), alpha=1.5)

    @pytest.mark.parametrize("dt", [float("nan"), float("inf")])
    def test_non_finite_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="dt must be finite"):
            predict(make_state([0.5, 0.5]), dt=dt)


class TestUpdate:
    def test_one_hot_score_gives_one_hot_posterior(self):
        state = make_state([0.25] * 4)
        out = update(state, [0.0, 1.0, 0.0, 0.0], np.zeros((4, 2)))
        np.testing.assert_array_equal(out.weights, [0.0, 1.0, 0.0, 0.0])

    def test_equal_evidence_keeps_prior(self):
        state = make_state([0.7, 0.3])
        out = update(state, [0.5, 0.5], np.zeros((2, 2)))
        np.testing.assert_allclose(out.weights, [0.7, 0.3], atol=1e-15)

    def test_bayes_rule_by_hand(self):
        state = make_state([0.5, 0.5])
        out = update(state, [0.8, 0.2], np.zeros((2, 2)))
        np.testing.assert_allclose(out.weights, [0.8, 0.2], atol=1e-12)

    def test_position_kernel_discounts_far_candidates(self):
        state = make_state([0.5, 0.5], positions=[[0.0, 0.0], [0.0, 0.0]])
        out = update(state, [0.5, 0.5], [[0.0, 0.0], [3.0, 0.0]], sigma_p=0.5)
        assert out.weights[0] > 0.99

    def test_occluded_candidate_uses_kernel_only(self):
        state = make_state([0.5, 0.5])
        # candidate 1 has a terrible clip score but is occluded: ignore the score
        out = update(state, [0.5, 1e-30], np.zeros((2, 2)), occluded=[False, True])
        np.testing.assert_allclose(out.weights, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)

    def test_zero_likelihood_falls_back_to_prior(self):
        state = make_state([0.7, 0.3])
        out = update(state, [0.0, 0.0], np.zeros((2, 2)))
        np.testing.assert_array_equal(out.weights, [0.7, 0.3])
        assert out.low_confidence

    def test_velocity_exponential_smoothing(self):
        state = make_state([1.0], positions=[[0.0, 0.0]], velocities=[[1.0, 0.0]])
        advanced = predict(state, dt=1.0)  # position -> (1, 0)
        out = update(advanced, [1.0], [[2.0, 0.0]], beta=0.7, dt=1.0)
        # finite difference (obs - pre-predict)/dt = 2.0; v = 0.7*1 + 0.3*2 = 1.3
        np.testing.assert_allclose(out.velocities, [[1.3, 0.0]], atol=1e-12)
        np.testing.assert_array_equal(out.positions, [[2.0, 0.0]])

    def test_posterior_stays_normalized(self):
        rng = np.random.default_rng(3)
        state = init_filter([0, 1, 2], rng.normal(size=(3, 2)))
        for _ in range(50):
            state = predict(state, alpha=0.05)
            state = update(state, rng.random(3), rng.normal(size=(3, 2), scale=0.1) + state.positions)
            assert abs(float(state.weights.sum()) - 1.0) < 1e-9
            assert (state.weights >= 0.0).all()

    def test_misaligned_inputs_rejected(self):
        state = make_state([0.5, 0.5])
        with pytest.raises(ValueError):
            update(state, [1.0], np.zeros((2, 2)))
        with pytest.raises(ValueError):
            update(state, [1.0, 1.0], np.zeros((3, 2)))

    @pytest.mark.parametrize("sigma_p", [0.0, float("nan"), float("inf")])
    def test_bad_sigma_p_rejected(self, sigma_p):
        state = make_state([0.5, 0.5])
        with pytest.raises(ValueError, match="sigma_p"):
            update(state, [0.5, 0.5], np.zeros((2, 2)), sigma_p=sigma_p)

    @pytest.mark.parametrize("dt", [float("nan"), float("inf")])
    def test_non_finite_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="dt must be finite"):
            update(make_state([0.5, 0.5]), [0.5, 0.5], np.zeros((2, 2)), dt=dt)

    def test_nan_clip_score_rejected(self):
        with pytest.raises(ValueError, match="clip_scores must be finite"):
            update(make_state([0.5, 0.5]), [float("nan"), 0.5], np.zeros((2, 2)))

    @pytest.mark.parametrize("scores", [[-0.5, 0.2], [-0.5, 0.9]], ids=["mass_negative", "weights_negative"])
    def test_negative_clip_score_rejected(self, scores):
        # a negative probability is a caller's error, not an underflowed likelihood
        with pytest.raises(ValueError, match="clip_scores must be finite and non-negative"):
            update(predict(init_filter([0, 1], np.zeros((2, 2)))), scores, np.zeros((2, 2)))

    def test_nan_observed_position_rejected(self):
        with pytest.raises(ValueError, match="observed_positions must be finite"):
            update(make_state([0.5, 0.5]), [0.5, 0.5], [[0.0, float("nan")], [0.0, 0.0]])


class TestMapIdentity:
    def test_one_hot(self):
        assert map_identity(make_state([0.0, 1.0, 0.0], ids=[7, 8, 9])) == 8

    def test_plain_argmax(self):
        assert map_identity(make_state([0.6, 0.4], ids=[2, 1])) == 2

    def test_exact_tie_takes_lowest_id(self):
        assert map_identity(make_state([0.5, 0.5], ids=[9, 3])) == 3


class TestReferenceRecursion:
    def test_matches_hand_rolled_recursion(self):
        """50 seeded steps, vectorized filter vs plain-Python reference."""
        rng = np.random.default_rng(1234)
        n = 3
        alpha, beta, sigma_p, dt = 0.05, 0.7, 0.5, 1.0

        state = init_filter(range(n), np.zeros((n, 2)))
        ref_w = [1.0 / n] * n
        ref_pos = [[0.0, 0.0] for _ in range(n)]
        ref_vel = [[0.0, 0.0] for _ in range(n)]

        for step in range(50):
            scores = rng.random(n)
            observed = rng.normal(size=(n, 2), scale=0.3) + np.array(ref_pos)
            occluded = rng.random(n) < 0.2

            state = predict(state, dt=dt, alpha=alpha)
            state = update(state, scores, observed, occluded=occluded, beta=beta, sigma_p=sigma_p, dt=dt)

            # reference: same recursion written as scalar loops
            ref_w = [(1.0 - alpha) * w + alpha / n for w in ref_w]
            total = sum(ref_w)
            ref_w = [w / total for w in ref_w]
            pred = [[p[0] + v[0] * dt, p[1] + v[1] * dt] for p, v in zip(ref_pos, ref_vel)]
            likelihood = []
            for i in range(n):
                gap2 = (observed[i][0] - pred[i][0]) ** 2 + (observed[i][1] - pred[i][1]) ** 2
                kernel = math.exp(-gap2 / (2.0 * sigma_p**2))
                likelihood.append(kernel if occluded[i] else scores[i] * kernel)
            unnorm = [w * l for w, l in zip(ref_w, likelihood)]
            mass = sum(unnorm)
            if mass > 0.0:
                ref_w = [u / mass for u in unnorm]
            for i in range(n):
                fd = [
                    (observed[i][0] - pred[i][0]) / dt + ref_vel[i][0],
                    (observed[i][1] - pred[i][1]) / dt + ref_vel[i][1],
                ]
                ref_vel[i] = [beta * ref_vel[i][0] + (1 - beta) * fd[0], beta * ref_vel[i][1] + (1 - beta) * fd[1]]
                ref_pos[i] = [observed[i][0], observed[i][1]]

            np.testing.assert_allclose(state.weights, ref_w, atol=1e-12)
            np.testing.assert_allclose(state.positions, ref_pos, atol=1e-12)
            np.testing.assert_allclose(state.velocities, ref_vel, atol=1e-12)

    def test_converges_within_three_unambiguous_updates(self):
        state = init_filter([0, 1, 2], np.zeros((3, 2)))
        for step in range(10):
            state = predict(state)
            state = update(state, [1.0, 1e-12, 1e-12], np.zeros((3, 2)))
            if step >= 2:
                assert map_identity(state) == 0
                assert state.weights[0] > 0.9


class TestInit:
    def test_uniform_start(self):
        state = init_filter([4, 5], [[0.0, 0.0], [1.0, 1.0]])
        np.testing.assert_array_equal(state.weights, [0.5, 0.5])
        np.testing.assert_array_equal(state.velocities, np.zeros((2, 2)))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            init_filter([1, 1], np.zeros((2, 2)))

    def test_nan_position_rejected(self):
        with pytest.raises(ValueError, match="positions must be finite"):
            init_filter([1, 2], [[0.0, 0.0], [float("nan"), 1.0]])

    def test_invalid_distribution_rejected(self):
        with pytest.raises(ValueError):
            FilterState(ids=(0, 1), weights=np.array([0.6, 0.6]), positions=np.zeros((2, 2)), velocities=np.zeros((2, 2)))
