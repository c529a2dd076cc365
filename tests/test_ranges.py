"""The range half of the scalar rule: every bounded argument and field, checked by _files._number.

Each row calls one function or constructor with one scalar set to a value
just past its bound, which must raise a ValueError naming the field and the
value, and then set to the bound itself, which must be accepted.
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

import crossview as cv
from crossview import bayes_filter
from crossview.action_codebook import CLIP_DIM, ActionCodebook, fit_codebook, label_scores
from crossview.cli import RunConfig, run_sweep
from crossview.simulator import GaitParams, NoiseParams, PersonSpec, save_scenario
from crossview.skeleton import CLIP_LEN, N_JOINTS
from crossview.verification import ScoringConfig

TINY = math.ulp(0.0)  # the least positive float
ABOVE_ONE = math.nextafter(1.0, 2.0)
MIN_SIGMA_P = bayes_filter._MIN_SIGMA_P
BELOW_MIN_SIGMA_P = math.nextafter(MIN_SIGMA_P, 0.0)  # 2.0**-538, whose 2 sigma_p^2 is 0

CLIPS = np.random.default_rng(5).normal(size=(2, CLIP_LEN, N_JOINTS, 3))
# one centroid: every distance minus the least is 0, so a tau as small as TINY gives no overflow
ONE_CENTROID = ActionCodebook(np.random.default_rng(6).normal(size=(1, CLIP_DIM)))
# the candidates sit where they are observed, so a sigma_p or dt this small gives no overflow either
STATE = bayes_filter.init_filter((0, 1), np.zeros((2, 2)))
SCENARIO = cv.two_person_scenario(duration=24)


def update(**change):
    return bayes_filter.update(STATE, [0.5, 0.5], np.zeros((2, 2)), **change)


def validate(**change):
    return RunConfig(scenario="scenario.json", out_dir="out", **change).validate()


def sweep(sigma_pose):
    # run in the test's own directory
    save_scenario(SCENARIO, "scenario.json")
    return run_sweep(RunConfig(scenario="scenario.json", out_dir="sweep", codebook_k=8), [sigma_pose])


# (call with the value, field, value just past the bound, the bound), one row per bound
BOUNDS = [
    pytest.param(lambda v: fit_codebook(CLIPS, k=v, seed=0), "k", 0, 1, id="fit_codebook-k"),
    pytest.param(
        lambda v: fit_codebook(CLIPS, k=1, seed=0, max_iters=v),
        "max_iters", 0, 1, id="fit_codebook-max_iters",
    ),
    pytest.param(lambda v: label_scores(ONE_CENTROID, CLIPS[0], tau=v), "tau", 0.0, TINY, id="label_scores-tau"),
    pytest.param(lambda v: bayes_filter.predict(STATE, dt=v), "dt", 0.0, TINY, id="predict-dt"),
    pytest.param(lambda v: bayes_filter.predict(STATE, alpha=v), "alpha", -TINY, 0.0, id="predict-alpha-low"),
    pytest.param(lambda v: bayes_filter.predict(STATE, alpha=v), "alpha", ABOVE_ONE, 1.0, id="predict-alpha-high"),
    pytest.param(lambda v: update(beta=v), "beta", -TINY, 0.0, id="update-beta-low"),
    pytest.param(lambda v: update(beta=v), "beta", ABOVE_ONE, 1.0, id="update-beta-high"),
    pytest.param(lambda v: update(sigma_p=v), "sigma_p", BELOW_MIN_SIGMA_P, MIN_SIGMA_P, id="update-sigma_p"),
    pytest.param(lambda v: update(dt=v), "dt", 0.0, TINY, id="update-dt"),
    pytest.param(lambda v: validate(codebook_k=v), "codebook_k", 0, 1, id="RunConfig-codebook_k"),
    pytest.param(lambda v: validate(alpha=v), "alpha", -TINY, 0.0, id="RunConfig-alpha-low"),
    pytest.param(lambda v: validate(alpha=v), "alpha", ABOVE_ONE, 1.0, id="RunConfig-alpha-high"),
    pytest.param(lambda v: validate(beta=v), "beta", -TINY, 0.0, id="RunConfig-beta-low"),
    pytest.param(lambda v: validate(beta=v), "beta", ABOVE_ONE, 1.0, id="RunConfig-beta-high"),
    pytest.param(lambda v: validate(sigma_p=v), "sigma_p", BELOW_MIN_SIGMA_P, MIN_SIGMA_P, id="RunConfig-sigma_p"),
    pytest.param(lambda v: validate(seed=v), "seed", -1, 0, id="RunConfig-seed"),
    pytest.param(sweep, "sigma_pose", -TINY, 0.0, id="run_sweep-sigma_pose"),
    pytest.param(lambda v: GaitParams(arm_amplitude=v), "arm_amplitude", -TINY, 0.0, id="GaitParams-arm_amplitude"),
    pytest.param(lambda v: GaitParams(leg_amplitude=v), "leg_amplitude", -TINY, 0.0, id="GaitParams-leg_amplitude"),
    pytest.param(lambda v: GaitParams(stride_length=v), "stride_length", 0.0, TINY, id="GaitParams-stride_length"),
    pytest.param(lambda v: PersonSpec(0, ((0.0, 0.0), (1.0, 0.0)), v), "speed", -TINY, 0.0, id="PersonSpec-speed"),
    pytest.param(lambda v: NoiseParams(sigma_pose=v), "sigma_pose", -TINY, 0.0, id="NoiseParams-sigma_pose"),
    pytest.param(
        lambda v: NoiseParams(sigma_odo_trans=v),
        "sigma_odo_trans", -TINY, 0.0, id="NoiseParams-sigma_odo_trans",
    ),
    pytest.param(lambda v: NoiseParams(sigma_odo_rot=v), "sigma_odo_rot", -TINY, 0.0, id="NoiseParams-sigma_odo_rot"),
    pytest.param(lambda v: NoiseParams(sigma_bbox=v), "sigma_bbox", -TINY, 0.0, id="NoiseParams-sigma_bbox"),
    pytest.param(lambda v: replace(SCENARIO, seed=v), "seed", -1, 0, id="Scenario-seed"),
    pytest.param(
        lambda v: replace(SCENARIO, duration=v, crossings=()),
        "duration", CLIP_LEN - 1, CLIP_LEN, id="Scenario-duration",
    ),
    pytest.param(lambda v: cv.group_scenario(v), "n_persons", 1, 2, id="group_scenario-n_persons"),
    pytest.param(
        lambda v: ScoringConfig(action_weight=v),
        "action_weight", -TINY, 0.0, id="ScoringConfig-action_weight",
    ),
    pytest.param(
        lambda v: ScoringConfig(motion_weight=v),
        "motion_weight", -TINY, 0.0, id="ScoringConfig-motion_weight",
    ),
    pytest.param(lambda v: ScoringConfig(sigma=v), "sigma", 0.0, TINY, id="ScoringConfig-sigma"),
    pytest.param(lambda v: ScoringConfig(tau=v), "tau", 0.0, TINY, id="ScoringConfig-tau"),
]


@pytest.mark.parametrize("call, field, past, bound", BOUNDS)
def test_value_past_the_bound_rejected_naming_field_and_value_and_bound_accepted(
    tmp_path, monkeypatch, call, field, past, bound
):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError) as caught:
        call(past)
    message = str(caught.value)
    assert re.search(rf"\b{field}\b", message), message
    assert message.endswith(f", got {past!r}"), message
    call(bound)
