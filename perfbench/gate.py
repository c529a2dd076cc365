"""Correctness gate: compare a run's outputs with each other and the reference.

Each measurement returns a fingerprint of what the program produced: the
per-clip raw and filtered decisions and the report metrics for the scoring
workloads, the SHA-256 of the codebook file for the fit workload. The gate
fails a fingerprint that

* disagrees with the first fingerprint of the same run (the outputs are
  deterministic for a fixed seed),
* is inconsistent with itself (an accuracy that its decisions do not give),
* or differs from the reference recorded for that workload and seed in
  ``references.json``, when one is recorded.
"""

from __future__ import annotations

import json
import os

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")

# Average precision and recall are sums over a sorted ranking; allow for a
# change of summation order, not of ranking.
RANKING_TOL = 1e-9


def load_references(path=REFERENCES):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def reference_entry(fingerprint):
    """The part of a fingerprint that is recorded as the reference."""
    if "codebook_sha256" in fingerprint:
        return {"codebook_sha256": fingerprint["codebook_sha256"]}
    entry = {"raw": fingerprint["raw"], "filtered": fingerprint["filtered"]}
    entry.update(fingerprint["metrics"])
    return entry


def _accuracy(decided, truth):
    return sum(d == t for d, t in zip(decided, truth)) / len(truth)


def _self_problems(fp):
    if "codebook_sha256" in fp:
        return [] if fp.get("k") == 400 else [f"codebook has k={fp.get('k')}, expected 400"]
    problems = []
    n = len(fp["truth"])
    if n == 0 or len(fp["raw"]) != n or len(fp["filtered"]) != n:
        problems.append("decision lists are empty or of unequal length")
        return problems
    for key, decided in (("accuracy", fp["raw"]), ("filtered_accuracy", fp["filtered"])):
        if fp["metrics"][key] != _accuracy(decided, fp["truth"]):
            problems.append(f"{key} {fp['metrics'][key]} does not match its decisions")
    return problems


def _diff(expected, got):
    problems = []
    for key, want in expected.items():
        have = got[key]
        if key in ("raw", "filtered"):
            if have != want:
                flips = sum(a != b for a, b in zip(have, want)) + abs(len(have) - len(want))
                problems.append(f"{key} decisions differ from the reference at {flips} clips")
        elif key in ("average_precision", "average_recall") and abs(have - want) <= RANKING_TOL:
            continue
        elif have != want:
            problems.append(f"{key} {have} differs from the reference {want}")
    return problems


def check(fingerprints, reference=None):
    """Problems found per fingerprint (an empty list means it passed)."""
    results = []
    first = fingerprints[0] if fingerprints else None
    for fp in fingerprints:
        problems = _self_problems(fp)
        if fp != first:
            problems.append("output differs from the first measurement of this run")
        if reference is not None:
            problems.extend(_diff(reference, reference_entry(fp)))
        results.append(problems)
    return results
