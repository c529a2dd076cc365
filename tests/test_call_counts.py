"""The calls one online decision, and the set-up per clip, make, counted by sys.setprofile (see callcount.py).

The bounds are upper bounds: a later Python, such as 3.12 with its inlined
comprehensions, makes fewer frames for the same code, never more.
"""

import numpy as np
import pytest

from callcount import count_calls, decide, setup_counts, stream_setup, totals
from crossview import bayes_filter, verification


@pytest.fixture(scope="module")
def group8():
    return stream_setup()


# crossview frames each call makes below its own, on one group8 clip of 8 candidates
BOUNDS = {"localize": 20, "predict": 5, "update": 12, "map_identity": 2}


def test_each_step_of_a_decision_stays_within_its_crossview_frames(group8):
    clips, codebook, state = group8
    clip = clips[3]
    assert len(clip.candidates) == 8
    (_, scores), localize = count_calls(verification.localize, clip.ego, clip.candidates, codebook)
    prior, predict = count_calls(bayes_filter.predict, state, dt=1.0, alpha=bayes_filter.DEFAULT_ALPHA)
    observed = np.array([c.boxes[-1].center for c in clip.candidates])
    occluded = [not c.fully_valid() for c in clip.candidates]
    probabilities = [s.match_probability for s in scores]
    posterior, update = count_calls(bayes_filter.update, prior, probabilities, observed, occluded=occluded)
    _, map_identity = count_calls(bayes_filter.map_identity, posterior)
    counts = {"localize": localize, "predict": predict, "update": update, "map_identity": map_identity}
    frames = {name: totals(c)["crossview"] for name, c in counts.items()}
    assert all(frames[name] <= bound for name, bound in BOUNDS.items()), frames


def test_counts_repeat_and_split_by_kind(group8):
    clips, codebook, state = group8
    scoring = verification.ScoringConfig()
    (raw, filtered, _), first = count_calls(decide, clips[3], state, codebook, scoring)
    (_, _, _), again = count_calls(decide, clips[3], state, codebook, scoring)
    assert first == again
    assert raw in {c.person_id for c in clips[3].candidates} and filtered in state.ids
    assert first["crossview", "verification.py", "_score_block"] == 1
    assert first["c", "ufunc", "ufunc.reduce"] > 0
    assert all(n > 0 for n in totals(first).values())


# generate_scene's calls per clip of the 24-frame group8 scene; each clip's objects were checked again at 115.7
# crossview frames and 339.5 C calls; of the 80.7 frames left, 64 are the boxes' BoundingBox._unchecked calls
SETUP_BOUNDS = {"crossview": 85, "c": 160}


def test_the_set_up_stays_within_its_calls_per_clip():
    clips, counts = setup_counts()
    assert len(clips) == 17 and setup_counts()[1] == counts
    per_clip = {kind: n / len(clips) for kind, n in totals(counts).items()}
    assert all(per_clip[kind] <= bound for kind, bound in SETUP_BOUNDS.items()), per_clip
    assert counts["crossview", "motion.py", "_unchecked"] == len(clips) * 8 * 8
