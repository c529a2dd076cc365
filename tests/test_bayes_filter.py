"""Bayes filter tests: the recursion against a hand-rolled reference."""

import math
import sys
import warnings
from dataclasses import fields

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

    @pytest.mark.parametrize(
        "change, text", [({"dt": "1"}, "dt must be a number, got '1'"), ({"alpha": True}, "alpha must be a number")]
    )
    def test_misread_argument_rejected_naming_it(self, change, text):
        with pytest.raises(ValueError, match=text):
            predict(make_state([0.5, 0.5]), **change)

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

    def test_sigma_p_whose_square_underflows_rejected(self):
        # 2 * 1e-200**2 is 0: the kernel of a candidate that did not move was 0 / -0.0, a NaN likelihood
        with pytest.raises(ValueError, match=r"sigma_p must be at least .*, got 1e-200"):
            update(make_state([0.5, 0.5]), [0.5, 0.5], np.zeros((2, 2)), sigma_p=1e-200)

    def test_kernel_that_overflows_to_zero_warns_nothing(self):
        # gap2 / (-2 sigma_p^2) overflows to -inf at sigma_p = 1e-160; its exp, 0, is the kernel
        state = predict(init_filter([0, 1], np.zeros((2, 2))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = update(state, [0.5, 0.5], [[0.5, 0.0], [1.0, 0.0]], sigma_p=1e-160)
        assert out.last_likelihood.tolist() == [0.0, 0.0] and out.low_confidence

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


class TestUpdateArguments:
    def test_occluded_mask_of_another_length_rejected(self):
        with pytest.raises(ValueError, match="occluded must have shape"):
            update(make_state([0.5, 0.5]), [0.5, 0.5], np.zeros((2, 2)), occluded=[False, False, True])

    @pytest.mark.parametrize("beta", [-0.1, 1.5])
    def test_beta_out_of_range_rejected(self, beta):
        with pytest.raises(ValueError, match="beta must be in"):
            update(make_state([0.5, 0.5]), [0.5, 0.5], np.zeros((2, 2)), beta=beta)

    @pytest.mark.parametrize(
        "change, text",
        [
            # numpy reads "False" as True and 2 as True
            ({"occluded": ["False", "False"]}, "occluded must hold true or false, got str"),
            ({"occluded": [0, 2]}, "occluded must hold true or false, got int"),
            ({"occluded": np.array([0.0, 1.0])}, "occluded must hold true or false, got float64"),
            ({"clip_scores": ["0.5", "0.5"]}, "clip_scores must hold numbers, got str"),
            ({"clip_scores": [True, 0.5]}, "clip_scores must hold numbers, got bool"),
            ({"observed_positions": [[0.0, None], [0.0, 0.0]]}, "observed_positions must hold numbers, got NoneType"),
            ({"beta": True}, "beta must be a number, got True"),
            ({"sigma_p": "0.5"}, "sigma_p must be a number, got '0.5'"),
            ({"dt": None}, "dt must be a number, got None"),
        ],
        ids=[
            "string_occluded",
            "int_occluded",
            "float_occluded_array",
            "string_scores",
            "true_score",
            "null_position",
            "true_beta",
            "string_sigma_p",
            "null_dt",
        ],
    )
    def test_misread_argument_rejected_naming_it(self, change, text):
        arguments = {"clip_scores": [0.5, 0.5], "observed_positions": np.zeros((2, 2)), **change}
        with pytest.raises(ValueError, match=text):
            update(predict(make_state([0.5, 0.5])), **arguments)

    def test_numpy_scalars_are_numbers(self):
        state = predict(make_state([0.5, 0.5]), dt=np.float32(1.0), alpha=np.float64(0.05))
        want = update(state, [0.8, 0.2], np.zeros((2, 2)), beta=0.7, sigma_p=0.5, dt=1.0)
        got = update(state, [0.8, 0.2], np.zeros((2, 2)), beta=np.float64(0.7), sigma_p=np.float32(0.5), dt=np.int64(1))
        assert got.weights.tobytes() == want.weights.tobytes()


class TestInit:
    def test_uniform_start(self):
        state = init_filter([4, 5], [[0.0, 0.0], [1.0, 1.0]])
        np.testing.assert_array_equal(state.weights, [0.5, 0.5])
        np.testing.assert_array_equal(state.velocities, np.zeros((2, 2)))

    def test_no_candidate_rejected(self):
        with pytest.raises(ValueError, match="at least one candidate"):
            init_filter([], np.zeros((0, 2)))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            init_filter([1, 1], np.zeros((2, 2)))

    def test_nan_position_rejected(self):
        with pytest.raises(ValueError, match="positions must be finite"):
            init_filter([1, 2], [[0.0, 0.0], [float("nan"), 1.0]])

    @pytest.mark.parametrize(
        "ids, positions, text",
        [
            ([0.5, 1.5], np.zeros((2, 2)), "ids must be an integer, got 0.5"),  # int() read them as 0 and 1
            ([0, "1"], np.zeros((2, 2)), "ids must be a number, got '1'"),
            ([0, True], np.zeros((2, 2)), "ids must be a number, got True"),
            ([0, 1], [["0.0", 0.0], [1.0, 1.0]], "positions must hold numbers, got str"),
            ([0, 1], np.zeros(4), r"positions must have shape \(2, 2\), got \(4,\)"),
        ],
    )
    def test_misread_argument_rejected_naming_it(self, ids, positions, text):
        with pytest.raises(ValueError, match=text):
            init_filter(ids, positions)

    def test_whole_number_ids_of_any_type_are_ints(self):
        state = init_filter((i for i in [np.int64(4), 5.0, 6]), np.zeros((3, 2)))
        assert state.ids == (4, 5, 6) and all(type(i) is int for i in state.ids)

    def test_invalid_distribution_rejected(self):
        with pytest.raises(ValueError):
            FilterState(ids=(0, 1), weights=np.array([0.6, 0.6]), positions=np.zeros((2, 2)), velocities=np.zeros((2, 2)))


class TestStatesBuiltOnce:
    """predict and update build states without re-running FilterState's checks; the checks would pass."""

    def assert_checked_state_equal(self, state):
        # the public constructor, from copies of the same arrays, accepts the
        # state and gives it back field for field, byte for byte
        values = {f.name: getattr(state, f.name) for f in fields(FilterState)}
        checked = FilterState(**{k: v.copy() if isinstance(v, np.ndarray) else v for k, v in values.items()})
        assert type(state) is FilterState
        for name, value in values.items():
            want = getattr(checked, name)
            if isinstance(want, np.ndarray):
                assert value.dtype == want.dtype == np.float64, name
                assert value.shape == want.shape and value.tobytes() == want.tobytes(), name
                assert not value.flags.writeable, name
            else:
                assert type(value) is type(want) and value == want, name

    def test_fifty_steps_with_occlusions_and_a_low_confidence_step(self):
        rng = np.random.default_rng(77)
        n = 5
        state = init_filter(range(10, 10 + n), rng.normal(size=(n, 2)))
        seen_low = seen_occluded = 0
        for step in range(50):
            scores = rng.random(n) * (step != 20)  # every likelihood 0 at step 20
            occluded = (rng.random(n) < 0.3) & (step != 20)
            observed = state.positions + rng.normal(scale=0.2, size=(n, 2))
            state = predict(state, dt=1.0, alpha=0.05)
            self.assert_checked_state_equal(state)
            state = update(state, scores, observed, occluded=occluded)
            self.assert_checked_state_equal(state)
            seen_low += state.low_confidence
            seen_occluded += occluded.any()
        assert seen_low == 1 and seen_occluded > 10

    def test_update_does_not_alias_its_inputs(self):
        observed = np.array([[1.0, 2.0], [3.0, 4.0]])
        state = update(predict(init_filter([0, 1], np.zeros((2, 2)))), [0.0, 0.0], observed)
        observed[0, 0] = 99.0
        assert state.low_confidence and state.positions[0, 0] == 1.0

    def test_overflowing_velocities_raise(self):
        state = predict(init_filter([0, 1], np.zeros((2, 2))))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="velocities must be finite"):
            update(state, [0.5, 0.5], [[1e308, 0.0], [0.0, 0.0]], dt=0.5)

    def test_overflowing_likelihood_mass_raises(self):
        # these weights sum to 1 but their products with the largest float
        # sum past it: every posterior weight would be 0
        state = make_state([0.07, 0.43, 0.19, 0.31000000000000005])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="weights must be a probability distribution"):
            update(state, [sys.float_info.max] * 4, np.zeros((4, 2)))

    @pytest.mark.parametrize(
        "weights, velocities, message",
        [
            ([0.5, 0.5, 0.0], np.zeros((2, 2)), "weights must have shape"),
            ([1.5, -0.5], np.zeros((2, 2)), "probability distribution"),
            ([0.5, 0.6], np.zeros((2, 2)), "probability distribution"),
            ([0.5, 0.5], [[0.0, math.inf], [0.0, 0.0]], "velocities must be finite"),
        ],
    )
    def test_public_constructor_keeps_every_check(self, weights, velocities, message):
        with pytest.raises(ValueError, match=message):
            FilterState((0, 1), np.array(weights), np.zeros((2, 2)), np.array(velocities))
