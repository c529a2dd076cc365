"""Count the calls one online decision, and the set-up per clip, make, by sys.setprofile.

A decision is the stream's per-clip step: localize over the clip's
candidates, predict, the lists update is handed, update and map_identity.
The set-up is generate_scene, which builds the clip objects the stream
reads; its calls are counted per clip of the scene it builds.
Every "call" event of a Python frame (a function call or a generator
resumption) is counted under its file and function, as a crossview frame
when its code lives in the crossview package and as another Python frame
otherwise; every "c_call" event is a C call. numpy operators on arrays make
no event, so ufunc dispatches are not counted.

The counts are exact and do not depend on the machine's load, only on the
Python and numpy versions: Python 3.12 inlines comprehensions, which only
lowers them. Run as a script to print the per-function tables of the
decisions over a group8 scene and of the generate_scene call that built it:

    PYTHONPATH=src python tests/callcount.py [--clips N] [--k K] [--seed S]
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter

import numpy as np

import crossview
from crossview import bayes_filter, verification
from crossview.action_codebook import fit_codebook
from crossview.simulator import NoiseParams, generate_scene, group_scenario

PACKAGE = os.path.dirname(os.path.abspath(crossview.__file__))
KINDS = ("crossview", "python", "c")
# the noise of the benchmark's scenes
NOISE = NoiseParams(sigma_pose=0.02, sigma_odo_trans=0.01, sigma_odo_rot=0.01, sigma_bbox=0.01)


def count_calls(fn, *args, **kwargs):
    """(fn's result, a Counter of (kind, where, name) over the calls fn makes); kind is one of KINDS."""
    counts = Counter()

    def profile(frame, event, arg):
        if event == "call":
            counts[_frame_key(frame.f_code)] += 1
        elif event == "c_call":
            counts["c", getattr(arg, "__module__", None) or type(arg.__self__).__name__, arg.__qualname__] += 1

    sys.setprofile(profile)
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    # fn's own frame and the setprofile(None) call
    counts[_frame_key(fn.__code__)] -= 1
    counts["c", "sys", "setprofile"] -= 1
    return result, +counts


def _frame_key(code):
    kind = "crossview" if code.co_filename.startswith(PACKAGE) else "python"
    return kind, os.path.basename(code.co_filename), code.co_name


def totals(counts):
    """{kind: number of calls} for each of KINDS."""
    out = dict.fromkeys(KINDS, 0)
    for (kind, _, _), n in counts.items():
        out[kind] += n
    return out


def decide(clip, state, codebook, scoring):
    """One filtered decision on a ClipObservation, as the stream makes it: (raw id, filtered id, next state)."""
    person_id, scores = verification.localize(clip.ego, clip.candidates, codebook, scoring)
    state = bayes_filter.predict(state, dt=1.0, alpha=bayes_filter.DEFAULT_ALPHA)
    observed = np.array([c.boxes[-1].center for c in clip.candidates])
    occluded = [not c.fully_valid() for c in clip.candidates]
    state = bayes_filter.update(
        state,
        [s.match_probability for s in scores],
        observed,
        occluded=occluded,
        beta=bayes_filter.DEFAULT_BETA,
        sigma_p=bayes_filter.DEFAULT_SIGMA_P,
    )
    return person_id, bayes_filter.map_identity(state), state


def setup_counts(n_persons=8, duration=24, seed=7):
    """(clips, the Counter of the calls of generate_scene) on a group scene with the benchmark's noise.

    A first, uncounted call leaves out what runs once per process, such as
    numpy's lazy imports.
    """
    scenario = group_scenario(n_persons, duration=duration, seed=seed, noise=NOISE)
    generate_scene(scenario)
    return count_calls(generate_scene, scenario)


def stream_setup(n_persons=8, duration=24, k=16, seed=7):
    """(clips, codebook, initial state) of a group scene with the benchmark's noise."""
    clips = generate_scene(group_scenario(n_persons, duration=duration, seed=seed, noise=NOISE))
    poses = np.array([[c.poses for c in clip.candidates] for clip in clips])
    codebook = fit_codebook(poses.reshape(-1, *poses.shape[2:]), k=k, seed=seed)
    first = clips[0].candidates
    state = bayes_filter.init_filter([c.person_id for c in first], [c.boxes[-1].center for c in first])
    return clips, codebook, state


def stream_counts(clips, codebook, state):
    """The Counter of the calls of every decision over clips, decided in order."""
    scoring = verification.ScoringConfig()
    counts = Counter()
    for clip in clips:
        (_, _, state), calls = count_calls(decide, clip, state, codebook, scoring)
        counts += calls
    return counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--clips", type=int, default=50, help="decisions to count (default 50)")
    parser.add_argument("--k", type=int, default=400, help="codebook size (default 400)")
    parser.add_argument("--seed", type=int, default=7, help="scene and codebook seed (default 7)")
    args = parser.parse_args(argv)
    duration = max(args.clips + 7, 64)
    clips, codebook, state = stream_setup(duration=duration, k=args.k, seed=args.seed)
    n = min(args.clips, len(clips))
    print(f"Python {sys.version.split()[0]}, numpy {np.__version__}")
    print(f"per decision over {n} group8 clips")
    _print_table(stream_counts(clips[: args.clips], codebook, state), n)
    print(f"set-up (generate_scene) per clip of the {len(clips)}-clip group8 scene")
    _print_table(setup_counts(duration=duration, seed=args.seed)[1], len(clips))


def _print_table(counts, n):
    for (kind, where, name), calls in sorted(counts.items(), key=lambda item: (KINDS.index(item[0][0]), -item[1])):
        print(f"{calls / n:8.2f}  {kind:9}  {where}:{name}")
    for kind, calls in totals(counts).items():
        print(f"{calls / n:8.2f}  {kind} total")


if __name__ == "__main__":
    main()
