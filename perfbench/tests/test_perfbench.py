"""Tests of the benchmark's own tooling.

Run from the repository root: python3 -m pytest perfbench/tests -q
(about half a minute: two short benchmark runs are included).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def fingerprint(raw, filtered, truth):
    return {
        "report_sha256": "digest",
        "raw": raw,
        "filtered": filtered,
        "truth": truth,
        "metrics": {
            "accuracy": gate._accuracy(raw, truth),
            "filtered_accuracy": gate._accuracy(filtered, truth),
            "average_precision": 0.9,
            "average_recall": 0.8,
        },
    }


def test_manifest_follows_its_format():
    doc = manifest()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(run.WORKLOADS)
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]] + [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher") for m in doc["end_to_end"] + doc["per_layer"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_seed_changes_the_scene_and_repeats_it():
    import crossview as cv

    def first_clip(seed):
        clip = cv.generate_scene(child.build_scenario("crossing3", seed))[0]
        return clip.ego.pose_deltas[0].joint_deltas

    assert (first_clip(1) == first_clip(1)).all()
    assert not (first_clip(1) == first_clip(2)).all()


def test_unknown_workload_is_rejected():
    proc = bench("--workload", "no_such_workload", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr
    assert proc.stdout == ""


def test_gate_passes_matching_outputs():
    fp = fingerprint("0120", "0000", "0000")
    reference = gate.reference_entry(fp)
    assert gate.check([fp, dict(fp)], reference) == [[], []]


def test_gate_catches_a_flipped_decision():
    good = fingerprint("0120", "0000", "0000")
    reference = gate.reference_entry(good)
    flipped = fingerprint("0120", "0010", "0000")  # consistent with itself
    problems = gate.check([flipped], reference)[0]
    assert any("filtered decisions differ from the reference at 1 clips" in p for p in problems)
    assert any("filtered_accuracy" in p for p in problems)
    # a flip whose accuracy was not recomputed is caught without a reference
    stale = dict(good, raw="0020")
    assert any("does not match its decisions" in p for p in gate.check([stale])[0])
    # and a flip between two measurements of one run
    assert gate.check([good, flipped])[1] == ["output differs from the first measurement of this run"]


def test_gate_catches_a_different_codebook():
    fp = {"codebook_sha256": "a" * 64, "k": 400}
    reference = gate.reference_entry(fp)
    assert gate.check([fp], reference) == [[]]
    assert gate.check([dict(fp, codebook_sha256="b" * 64)], reference)[0]


def test_undeclared_metric_is_refused():
    declared = manifest()["end_to_end"]
    values = {m["name"]: 1.0 for m in declared}
    assert set(run.format_metrics(values, declared)) == set(values)
    with pytest.raises(ValueError, match="undeclared"):
        run.format_metrics(dict(values, surprise=1.0), declared)
    values.pop("wall_s")
    with pytest.raises(ValueError, match="missing"):
        run.format_metrics(values, declared)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_the_declared_ones(trace, section):
    proc = bench("--workload", "evaluate_crossing3", "--seed", "7", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in manifest()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace:
        layers = {k: v["value"] for k, v in result["metrics"].items()}
        # 9 body frames per clip in the simulator plus 1 per scored pair
        assert layers["skeleton.body_frame.calls"] == 200 * 9 + 600
        assert layers["verification.verify_pair.calls"] == 600
        assert layers["trace.stage_coverage"] >= 0.95
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program():
    bare = os.path.join(ROOT, ".bench_build", "perfbench", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "evaluate_crossing3", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
