"""Benchmark for crossview: one workload, one seed, every metric by name.

Usage (from the repository root):

    python3 perfbench/run.py --workload evaluate_crossing3 --seed 7 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``evaluate_crossing3``: ``crossview evaluate`` (k=400 fitted inline,
  filter on) on the 207-frame three-person crossing scene;
* ``fit_group8``: ``crossview fit-codebook --k 400`` on the 400-frame
  eight-person group scene; nothing is scored;
* ``stream_group8``: the same group scene decided clip by clip through the
  library (localize, filter predict/update, MAP identity) with a codebook
  loaded from a file prepared beforehand.

The seed is the scenario seed, so it picks the noise realisation; the scene
layout is fixed. Every measurement runs in a fresh process with the BLAS
thread count pinned. Measurements are repeated until ``--seconds`` is used
up. Each output passes the gate in ``gate.py``.

End-to-end metrics (``--trace 0``), the same on every workload. Every time
is scaled to the reference speed of the machine-speed probe (``probe.py``),
run by the measuring process right before and after its measured call, so
that load from other tenants of a shared machine cancels out; the raw
times and speed factors are kept in the result file.

* ``setup_s``: median set-up time. For the command workloads this is a
  fresh process's ``import crossview``; for ``stream_group8`` it is import,
  ``generate_scene`` and ``load_codebook``.
* ``wall_s``: the command (``crossview.cli.main``), or the clip loop for
  ``stream_group8``; median over the run's repetitions.
* ``pairs_per_s``: (clip, candidate) pairs per second of ``wall_s``; pairs
  are scored, or on ``fit_group8`` each pair's pose clip is fed to the fit.
* ``decision_ms_p50``/``_p95``: latency from a clip's hand-over to its
  filtered decision; each clip's median over the run's passes, then
  percentiles across clips. A command hands all of
  its output over only when it returns, so on the command workloads both
  equal ``wall_s`` (in ms).
* ``peak_rss_mb``: peak resident memory of the measuring process (median).

Accuracy is not a metric: the gate compares decisions and report metrics,
and any mismatch counts as a failed measurement.

With ``--trace 1`` untraced and traced measurements alternate until
``--seconds`` is used up; the first traced one gives the per-layer metrics
(``tracer.py``), the medians of both the tracing overhead, and kernel
micro-timings run at fixed inputs. The last line of stdout is one JSON
object: correct, attempted, failed, metrics. Spans and one result file per
run (with the machine description and every sample) are written under
``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
CHILD = os.path.join(HERE, "child.py")

sys.path.insert(0, HERE)
import gate  # noqa: E402

WORKLOADS = {
    "evaluate_crossing3": {"mode": "cli", "command": "evaluate", "scene": "crossing3"},
    "fit_group8": {"mode": "cli", "command": "fit-codebook", "scene": "group8"},
    "stream_group8": {"mode": "stream", "scene": "group8"},
}
DEFAULT_SEED = 7
# The stream workload's codebook is fitted once, on the group scene at this
# seed, and loaded for every seed: a codebook trained offline, used online.
TRAIN_SEED = 7
# Pinned on both sides of any comparison; one thread keeps timings steady on
# a small shared machine and keeps the codebook bytes independent of it.
BLAS_THREADS = 1
IMPORT_SAMPLES = 5
STREAM_SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 160


class ChildError(RuntimeError):
    """A measurement process failed or printed no result."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(spec, timeout=CHILD_TIMEOUT_S):
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, json.dumps(spec)],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{spec['mode']} measurement timed out after {timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise ChildError(f"{spec['mode']} measurement exited with {proc.returncode}: {' | '.join(tail)}")
    return json.loads(lines[-1])


def source_digest():
    """SHA-256 over the package sources, identifying the code measured."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "crossview")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def git_sha():
    """Commit of the checkout when it is a git work tree, else None."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, "r", encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(ref_path):
        with open(ref_path, "r", encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, "r", encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return None


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Run:
    """Counts attempts and failures, and gathers fingerprints for the gate."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.fingerprints = []
        self.samples = {}

    def child(self, spec, timeout=CHILD_TIMEOUT_S):
        self.attempted += 1
        try:
            result = run_child(spec, timeout)
        except ChildError as exc:
            self.failed += 1
            self.problems.append(str(exc))
            return None
        if "fingerprint" in result:
            self.fingerprints.append(result["fingerprint"])
        return result

    def repeat(self, measure, seconds):
        """Call ``measure`` until the time is used up (at least once)."""
        results = []
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            result = measure()
            if result is None:
                break
            results.append(result)
            now = time.perf_counter()
            if now - start + (now - began) > seconds:
                break
        return results

    def apply_gate(self, reference):
        for problems in gate.check(self.fingerprints, reference):
            if problems:
                self.failed += 1
                self.problems.extend(problems)


def prepare_codebook(run, source):
    """Fit the stream workload's codebook once per source tree; reuse it after."""
    path = os.path.join(WORK, f"stream-codebook-{source[:16]}.json")
    if not os.path.isfile(path):
        spec = {"mode": "prepare", "scene": "group8", "seed": TRAIN_SEED, "codebook": path}
        if run.child(spec, timeout=300) is None:
            return None
    return path


def check_codebook(run, path, references):
    """The loaded codebook must be the fit workload's reference codebook."""
    want = references.get("fit_group8", {}).get(str(TRAIN_SEED), {}).get("codebook_sha256")
    with open(path, "rb") as fh:
        have = hashlib.sha256(fh.read()).hexdigest()
    if want is not None and have != want:
        run.failed += 1
        run.problems.append(f"stream codebook {have[:12]} differs from the reference fit {want[:12]}")


def measurement_spec(name, seed, trace=False):
    workload = WORKLOADS[name]
    spec = dict(workload, workload=name, seed=seed, work_dir=os.path.join(WORK, name))
    if trace:
        spec["trace"] = True
        spec["trace_path"] = os.path.join(WORK, f"trace-{name}-{seed}.json")
    return spec


def end_to_end(run, name, seed, seconds, imports, codebook):
    """End-to-end metrics as defined in the module docstring."""
    spec = measurement_spec(name, seed)
    if codebook:
        spec["codebook"] = codebook
    results = run.repeat(lambda: run.child(spec), seconds)
    if not results:
        return None
    wall = statistics.median(r["wall_scaled_s"] for r in results)
    if WORKLOADS[name]["mode"] == "stream":
        setups = list(results)
        while len(setups) < STREAM_SETUP_SAMPLES:
            extra = run.child(dict(spec, mode="stream_setup"))
            if extra is None:
                return None
            setups.append(extra)
        # a burst of interference hits one pass of a clip, not every pass
        latencies = [statistics.median(passes) for passes in zip(*(r["latencies_ms"] for r in results))]
    else:
        # a command hands all of its output over only when it returns
        setups = imports
        latencies = [wall * 1e3]
    run.samples = {key: [r[key] for r in results] for key in ("wall_s", "wall_scaled_s", "probes")}
    run.samples.update({key: [r[key] for r in setups] for key in ("setup_s", "setup_scaled_s")})
    return {
        "setup_s": statistics.median(r["setup_scaled_s"] for r in setups),
        "wall_s": wall,
        "pairs_per_s": results[0]["pairs"] / wall,
        "decision_ms_p50": statistics.median(latencies),
        "decision_ms_p95": percentile(latencies, 95),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }


def per_layer(run, name, seed, seconds, codebook):
    """Per-layer metrics from a traced measurement, next to untraced ones."""
    spec = measurement_spec(name, seed)
    traced = measurement_spec(name, seed, trace=True)
    if codebook:
        spec["codebook"] = traced["codebook"] = codebook

    def pair():
        plain = run.child(spec)
        return None if plain is None else (plain, run.child(traced))

    pairs = run.repeat(pair, seconds)
    micro = run.child({"mode": "micro", "scene": WORKLOADS[name]["scene"], "seed": seed})
    if not pairs or any(t is None for _, t in pairs) or micro is None:
        return None
    layers = dict(pairs[0][1]["layers"])
    layers.update(micro["layers"])
    layers["trace.overhead_s"] = statistics.median(t["wall_scaled_s"] for _, t in pairs) - statistics.median(
        p["wall_scaled_s"] for p, _ in pairs
    )
    return layers


def load_manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def format_metrics(values, declared):
    """Attach units; the names must be exactly the declared metrics."""
    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        missing = sorted(set(names) - set(values))
        extra = sorted(set(values) - set(names))
        raise ValueError(f"metrics do not match BENCHMARK.json: missing {missing}, undeclared {extra}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="crossview benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def abort(run):
    print("error: " + "; ".join(run.problems), file=sys.stderr)
    return 1


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "crossview", "__init__.py")):
        print(f"error: no crossview sources under {SRC}", file=sys.stderr)
        return 2
    manifest = load_manifest()
    references = gate.load_references()
    os.makedirs(WORK, exist_ok=True)
    source = source_digest()
    run = Run()

    imports = [r for r in (run.child({"mode": "import"}) for _ in range(IMPORT_SAMPLES)) if r]
    if not imports:
        return abort(run)
    codebook = None
    if WORKLOADS[args.workload]["mode"] == "stream":
        codebook = prepare_codebook(run, source)
        if codebook is None:
            return abort(run)
        check_codebook(run, codebook, references)

    if args.trace:
        values = per_layer(run, args.workload, args.seed, args.seconds, codebook)
        declared = manifest["per_layer"]
    else:
        values = end_to_end(run, args.workload, args.seed, args.seconds, imports, codebook)
        declared = manifest["end_to_end"]
    if values is None:
        return abort(run)
    reference = references.get(args.workload, {}).get(str(args.seed))
    run.apply_gate(reference)

    machine = dict(
        imports[0]["machine"],
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
        git_sha=git_sha(),
        src_sha256=source,
    )
    fp = run.fingerprints[0] if run.fingerprints else {}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "reference_checked": reference is not None,
        "outputs": fp.get("metrics") or {"codebook_sha256": fp.get("codebook_sha256")},
        "problems": run.problems,
        "samples": run.samples,
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": format_metrics(values, declared),
    }
    with open(os.path.join(WORK, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print(json.dumps({"machine": machine, "outputs": record["outputs"], "reference_checked": record["reference_checked"]}))
    for problem in run.problems:
        print(f"problem: {problem}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
