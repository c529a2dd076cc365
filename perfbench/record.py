"""Record the reference outputs that the correctness gate compares against.

Usage (from the repository root):

    python3 perfbench/record.py 0-31

Runs every workload once per seed (a range ``A-B`` or single seeds) and
stores what ``gate.reference_entry`` keeps of its outputs in
``perfbench/references.json``; entries for other seeds are kept. Record
only from a commit whose decisions are known to be right: a later change
that alters a decision then fails the gate.
"""

from __future__ import annotations

import json
import sys

import gate
import run


def parse_seeds(args):
    seeds = []
    for arg in args:
        low, _, high = arg.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv):
    seeds = parse_seeds(argv)
    if not seeds:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        references = gate.load_references()
    except FileNotFoundError:
        references = {}
    source = run.source_digest()
    references["source"] = {"git_sha": run.git_sha(), "src_sha256": source}
    state = run.Run()
    codebook = run.prepare_codebook(state, source)
    for seed in seeds:
        for name in run.WORKLOADS:
            spec = run.measurement_spec(name, seed)
            if run.WORKLOADS[name]["mode"] == "stream":
                spec["codebook"] = codebook
            result = run.run_child(spec)
            problems = gate.check([result["fingerprint"]])[0]
            if problems:
                raise SystemExit(f"{name} seed {seed}: {problems}")
            references.setdefault(name, {})[str(seed)] = gate.reference_entry(result["fingerprint"])
            print(f"{name} seed {seed}: {json.dumps(references[name][str(seed)])[:100]}", flush=True)
        with open(gate.REFERENCES, "w", encoding="utf-8") as fh:
            json.dump(references, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
