"""One measurement in a fresh process.

Usage: python3 perfbench/child.py '<json spec>'

The spec's ``mode`` selects what runs: ``import`` (time ``import
crossview``), ``cli`` (time one ``crossview`` command through
``crossview.cli.main``), ``stream`` (set up, then decide clip by clip),
``stream_setup`` (set-up only), ``micro`` (kernel timings at fixed inputs)
or ``prepare`` (fit the codebook the stream workload loads). With ``trace`` set, the tracer is installed
around the measured call. The last line of stdout is a JSON result.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

NOISE = {"sigma_pose": 0.02, "sigma_odo_trans": 0.01, "sigma_odo_rot": 0.01, "sigma_bbox": 0.01}
K = 400
# Clips decided between two probe runs in the stream workload.
STREAM_BLOCK = 50


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def build_scenario(scene, seed):
    import crossview as cv

    noise = cv.NoiseParams(**NOISE)
    if scene == "crossing3":
        return cv.three_person_scenario(crossing=True, duration=207, seed=seed, noise=noise)
    if scene == "group8":
        return cv.group_scenario(8, duration=400, seed=seed, noise=noise)
    raise ValueError(f"unknown scene {scene!r}")


def _ids(values):
    return "".join(str(int(v)) for v in values)


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _bytes_under(path):
    if os.path.isfile(path):
        return os.path.getsize(path)
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files)


def _make_tracer():
    """Tracer with observers that collect per-layer counts into ``state``."""
    from tracer import Tracer

    state = {"occluded_pairs": 0, "low_confidence_steps": 0, "lloyd_iters": 0, "clips": 0}

    def on_verify(args, _result):
        state["occluded_pairs"] += int(not all(args[1].valid))

    def on_update(_args, result):
        state["low_confidence_steps"] += int(result.low_confidence)

    def on_fit(_args, result):
        state["lloyd_iters"] += len(result.sse_history)

    def on_generate(_args, result):
        state["clips"] += len(result)

    tracer = Tracer(
        {
            "verification.verify_pair": on_verify,
            "bayes_filter.update": on_update,
            "action_codebook.fit_codebook": on_fit,
            "simulator.generate_scene": on_generate,
        }
    )
    return tracer, state


def _layer_metrics(tracer, state, wall, wall_start, wall_end):
    from run import percentile

    stats = tracer.stats

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def seconds(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    pair_ms = [d * 1e3 for d in tracer.durations("verification.verify_pair")]
    layers = tracer.layer_self_seconds()
    metrics = {
        "verification.verify_pair.calls": calls("verification.verify_pair"),
        "verification.verify_pair.ms_p50": percentile(pair_ms, 50) if pair_ms else 0.0,
        "verification.verify_pair.ms_p99": percentile(pair_ms, 99) if pair_ms else 0.0,
        "verification.occluded_pairs": state["occluded_pairs"],
        "verification.localize.s": seconds("verification.localize"),
        "action_codebook.label_scores.calls": calls("action_codebook.label_scores"),
        "action_codebook.label_scores.s": seconds("action_codebook.label_scores"),
        "motion.integrate_ego_motion.s": seconds("motion.integrate_ego_motion"),
        "motion.trajectory_l1_loss.s": seconds("motion.trajectory_l1_loss"),
        "skeleton.integrate_pose_deltas.s": seconds("skeleton.integrate_pose_deltas"),
        "simulator.generate_scene.s": seconds("simulator.generate_scene"),
        "simulator.clips": state["clips"],
        "simulator.ego_deltas_from_truth.calls": calls("simulator.ego_deltas_from_truth"),
        "skeleton.body_frame.calls": calls("skeleton.body_frame"),
        "geometry.se3_compose.calls": calls("geometry.se3_compose"),
        "geometry.error_quaternion.calls": calls("geometry.error_quaternion"),
        "action_codebook.fit_codebook.s": seconds("action_codebook.fit_codebook"),
        "action_codebook.lloyd_iters": state["lloyd_iters"],
        "action_codebook.save_codebook.s": seconds("action_codebook.save_codebook"),
        "action_codebook.load_codebook.s": seconds("action_codebook.load_codebook"),
        "bayes_filter.steps": calls("bayes_filter.update"),
        "bayes_filter.predict.s": seconds("bayes_filter.predict"),
        "bayes_filter.update.s": seconds("bayes_filter.update"),
        "bayes_filter.low_confidence_steps": state["low_confidence_steps"],
        "cli.run_evaluation.self_s": stats.get("cli.run_evaluation", [0, 0.0, 0.0])[2],
        "cli.write_report.s": seconds("cli.write_report"),
        "cli.emit_plots.s": seconds("cli.emit_plots"),
        "trace.wall_s": wall,
        "trace.stage_coverage": tracer.stage_seconds(wall_start, wall_end) / wall,
    }
    for layer in ("simulator", "action_codebook", "verification", "motion", "geometry", "skeleton", "bayes_filter", "cli"):
        metrics[f"{layer}.self_s"] = layers.get(layer, 0.0)
    return metrics


def _normalized_report_sha(out_dir):
    with open(os.path.join(out_dir, "report.json"), "r", encoding="utf-8") as fh:
        report = json.load(fh)
    # these two fields hold the run's paths, which differ between runs
    report["config"]["out_dir"] = "<out_dir>"
    report["config"]["scenario"] = "<scenario>"
    text = json.dumps(report, sort_keys=True, indent=2)
    return report, hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cli(spec):
    from crossview import cli  # imported before timing; set-up is timed apart
    from crossview.simulator import save_scenario
    from crossview.skeleton import CLIP_LEN
    from probe import probe, speed_factor

    work = spec["work_dir"]
    os.makedirs(work, exist_ok=True)
    scenario_path = os.path.join(work, "scenario.json")
    scenario = build_scenario(spec["scene"], spec["seed"])
    save_scenario(scenario, scenario_path)
    if spec["command"] == "evaluate":
        out = os.path.join(work, "out")
        argv = ["evaluate", "--scenario", scenario_path, "--out", out]
    else:
        out = os.path.join(work, "codebook.json")
        argv = ["fit-codebook", "--scenario", scenario_path, "--k", str(K), "--out", out]

    tracer = state = None
    if spec.get("trace"):
        tracer, state = _make_tracer()
        tracer.install()
    before = probe()
    start = time.perf_counter()
    code = tracer.span("cli.main", cli.main, argv) if tracer else cli.main(argv)
    end = time.perf_counter()
    after = probe()
    if tracer:
        tracer.uninstall()
    if code != 0:
        raise RuntimeError(f"crossview {argv[0]} exited with {code}")

    wall = end - start
    result = {
        "wall_s": wall,
        "wall_scaled_s": wall / speed_factor(before, after),
        "probes": [before, after],
        "peak_rss_mb": _peak_rss_mb(),
    }
    if spec["command"] == "evaluate":
        report, sha = _normalized_report_sha(out)
        decisions = report["decisions"]
        result["fingerprint"] = {
            "report_sha256": sha,
            "raw": _ids(d["raw"] for d in decisions),
            "filtered": _ids(d["filtered"] for d in decisions),
            "truth": _ids(d["truth"] for d in decisions),
            "metrics": {k: report["metrics"][k] for k in ("accuracy", "filtered_accuracy", "average_precision", "average_recall")},
        }
        result["pairs"] = sum(len(d["probabilities"]) for d in decisions)
    else:
        from crossview.action_codebook import load_codebook

        codebook = load_codebook(out)
        result["fingerprint"] = {"codebook_sha256": _sha256(out), "k": codebook.k}
        # every (clip, candidate) pair contributes one clip vector to the fit
        result["pairs"] = (scenario.duration - CLIP_LEN + 1) * len(scenario.persons)
    if tracer:
        metrics = _layer_metrics(tracer, state, end - start, start, end)
        metrics["cli.bytes_written"] = _bytes_under(out)
        result["layers"] = metrics
        tracer.dump(spec["trace_path"], {"workload": spec["workload"], "seed": spec["seed"]})
    return result


def run_stream(spec, loop=True):
    """Online use: set up once, then one filtered decision per arriving clip.

    Set-up is importing the package, generating the scene and loading the
    codebook; with ``loop`` false only set-up is measured. The probe runs
    after set-up and after every block of clips, outside the timed clips,
    and each clip's latency is scaled by the probes around its block.
    """
    start = time.perf_counter()
    from crossview import action_codebook, bayes_filter, simulator, verification

    import numpy as np

    tracer = state = None
    if spec.get("trace"):
        tracer, state = _make_tracer()
        tracer.install()
    scenario = build_scenario(spec["scene"], spec["seed"])
    clips = simulator.generate_scene(scenario)
    codebook = action_codebook.load_codebook(spec["codebook"])
    setup_s = time.perf_counter() - start
    from probe import probe, speed_factor

    probes = [probe()]
    result = {"setup_s": setup_s, "setup_scaled_s": setup_s / speed_factor(probes[0], probes[0])}
    if not loop:
        return result

    scoring = verification.ScoringConfig()
    first = clips[0].candidates
    state_f = bayes_filter.init_filter([c.person_id for c in first], [c.boxes[-1].center for c in first])
    latencies, scaled, raw, filtered = [], [], [], []
    wall = wall_scaled = 0.0
    loop_start = time.perf_counter()
    for block in range(0, len(clips), STREAM_BLOCK):
        block_start = time.perf_counter()
        for clip in clips[block : block + STREAM_BLOCK]:
            t0 = time.perf_counter()
            predicted, scores = verification.localize(clip.ego, clip.candidates, codebook, scoring)
            state_f = bayes_filter.predict(state_f, dt=1.0, alpha=bayes_filter.DEFAULT_ALPHA)
            observed = np.array([c.boxes[-1].center for c in clip.candidates])
            occluded = [not c.fully_valid() for c in clip.candidates]
            state_f = bayes_filter.update(
                state_f,
                [s.match_probability for s in scores],
                observed,
                occluded=occluded,
                beta=bayes_filter.DEFAULT_BETA,
                sigma_p=bayes_filter.DEFAULT_SIGMA_P,
            )
            decision = bayes_filter.map_identity(state_f)
            latencies.append(time.perf_counter() - t0)
            raw.append(predicted)
            filtered.append(decision)
        block_s = time.perf_counter() - block_start
        probes.append(probe())
        factor = speed_factor(probes[-2], probes[-1])
        scaled.extend(x / factor for x in latencies[len(scaled) :])
        wall += block_s
        wall_scaled += block_s / factor
    loop_end = time.perf_counter()
    if tracer:
        tracer.uninstall()

    truth = [c.ground_truth_wearer for c in clips]
    n = len(clips)
    result.update(
        {
            "wall_s": wall,
            "wall_scaled_s": wall_scaled,
            "probes": probes,
            "latencies_ms": [x * 1e3 for x in scaled],
            "pairs": sum(len(c.candidates) for c in clips),
            "peak_rss_mb": _peak_rss_mb(),
            "fingerprint": {
                "raw": _ids(raw),
                "filtered": _ids(filtered),
                "truth": _ids(truth),
                "metrics": {
                    "accuracy": sum(r == t for r, t in zip(raw, truth)) / n,
                    "filtered_accuracy": sum(f == t for f, t in zip(filtered, truth)) / n,
                },
            },
        }
    )
    if tracer:
        metrics = _layer_metrics(tracer, state, wall, loop_start, loop_end)
        metrics["cli.bytes_written"] = 0
        result["layers"] = metrics
        tracer.dump(spec["trace_path"], {"workload": spec["workload"], "seed": spec["seed"]})
    return result


def run_import(_spec):
    start = time.perf_counter()
    import crossview  # noqa: F401

    elapsed = time.perf_counter() - start
    import numpy as np
    from probe import probe, speed_factor

    probes = [probe(), probe()]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "setup_s": elapsed,
        "setup_scaled_s": elapsed / speed_factor(*probes),
        "machine": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }


def run_prepare(spec):
    """Fit and save the codebook the stream workload loads (not timed)."""
    from crossview import cli
    from crossview.simulator import save_scenario

    os.makedirs(os.path.dirname(spec["codebook"]), exist_ok=True)
    scenario_path = spec["codebook"] + ".scenario.json"
    save_scenario(build_scenario(spec["scene"], spec["seed"]), scenario_path)
    tmp = spec["codebook"] + ".partial"
    code = cli.main(["fit-codebook", "--scenario", scenario_path, "--k", str(K), "--out", tmp])
    if code != 0:
        raise RuntimeError(f"crossview fit-codebook exited with {code}")
    os.replace(tmp, spec["codebook"])
    return {"codebook": spec["codebook"]}


def _per_call_us(fn, budget_s=0.15, batches=5):
    """Median over batches of the mean time per call, in microseconds."""
    calls = 1
    while True:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        if time.perf_counter() - start >= budget_s / batches:
            break
        calls *= 2
    samples = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls * 1e6)
    samples.sort()
    return samples[len(samples) // 2]


def _best_time(fn, repeats=2):
    """Fastest of a few timed calls, and the last call's result."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def run_micro(spec):
    """Kernel timings at fixed inputs, and fit seeding versus one Lloyd pass."""
    import numpy as np

    import crossview as cv
    from crossview import action_codebook, geometry, motion, skeleton, verification

    # Fixed inputs, the same for every workload and seed.
    fixed = cv.generate_scene(cv.three_person_scenario(crossing=True, duration=16, seed=0, noise=cv.NoiseParams(**NOISE)))
    clip = fixed[0]
    candidate = clip.candidates[0]
    pose = candidate.poses[0]
    rng = np.random.default_rng(0)
    codebook = action_codebook.ActionCodebook(rng.normal(0.0, 1.0, (K, action_codebook.CLIP_DIM)))
    rotation = geometry.RotationDelta([0.01, -0.02, 0.03])
    a = skeleton.body_frame(pose)
    b = skeleton.body_frame(candidate.poses[1])
    track = motion.bbox_trajectory(candidate.boxes)
    other = motion.bbox_trajectory(clip.candidates[1].boxes)
    metrics = {
        "geometry.error_quaternion.us_per_call": _per_call_us(lambda: geometry.error_quaternion(rotation)),
        "geometry.se3_compose.us_per_call": _per_call_us(lambda: geometry.se3_compose(a, b)),
        "skeleton.body_frame.us_per_call": _per_call_us(lambda: skeleton.body_frame(pose)),
        "action_codebook.label_scores.us_per_call": _per_call_us(lambda: action_codebook.label_scores(codebook, candidate.poses)),
        "motion.trajectory_l1_loss.us_per_call": _per_call_us(lambda: motion.trajectory_l1_loss(track, other)),
        "verification.verify_pair.us_per_call": _per_call_us(lambda: verification.verify_pair(clip.ego, candidate, codebook)),
    }

    # Seeding versus Lloyd passes on the workload's own fit corpus.
    scene = cv.generate_scene(build_scenario(spec["scene"], spec["seed"]))
    corpus = [cand.poses for c in scene for cand in c.candidates]
    one, _ = _best_time(lambda: action_codebook.fit_codebook(corpus, k=K, seed=spec["seed"], max_iters=1))
    full_s, full = _best_time(lambda: action_codebook.fit_codebook(corpus, k=K, seed=spec["seed"]))
    passes = len(full.sse_history)
    # one pass per extra SSE entry; the rest of a one-pass fit is seeding
    # differences below the timer noise read as 0, not as a negative time
    iter_s = max(full_s - one, 0.0) / (passes - 1) if passes > 1 else 0.0
    metrics["action_codebook.iter_s"] = iter_s
    metrics["action_codebook.seed_s"] = max(one - iter_s, 0.0)
    return {"layers": metrics}


MODES = {
    "import": run_import,
    "cli": run_cli,
    "stream": run_stream,
    "stream_setup": lambda spec: run_stream(spec, loop=False),
    "micro": run_micro,
    "prepare": run_prepare,
}


def main():
    spec = json.loads(sys.argv[1])
    result = MODES[spec["mode"]](spec)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
