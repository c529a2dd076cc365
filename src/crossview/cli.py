"""Command-line harness: simulate scenes, fit codebooks, evaluate, sweep.

Exit codes: 0 success, 2 validation error, 3 I/O error. Reports are
deterministic: the same config and seed produce byte-identical report files
(wall-clock timing is kept on the in-memory report only).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import bayes_filter
from .action_codebook import DEFAULT_K, DEFAULT_TAU, fit_codebook, load_codebook, save_codebook
from .bayes_filter import DEFAULT_ALPHA, DEFAULT_BETA, DEFAULT_SIGMA_P
from .simulator import generate_scene, load_scenario, save_scene, scenario_to_json
from .verification import ScoringConfig, localize, score_record

__all__ = [
    "ConfigError",
    "RunConfig",
    "MetricsReport",
    "run_evaluation",
    "run_sweep",
    "emit_plots",
    "main",
]

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """A RunConfig field is missing or out of its documented range."""


@dataclass
class RunConfig:
    scenario: str
    out_dir: str
    codebook: str | None = None
    codebook_k: int = DEFAULT_K
    tau: float = DEFAULT_TAU
    action_weight: float = 1.0
    motion_weight: float = 1.0
    sigma: float = 1.0
    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA
    sigma_p: float = DEFAULT_SIGMA_P
    enable_filter: bool = True
    seed: int | None = None

    def validate(self) -> ScoringConfig:
        if not self.scenario:
            raise ConfigError("field 'scenario' must be a path")
        if not self.out_dir:
            raise ConfigError("field 'out_dir' must be a path")
        if self.codebook_k < 1:
            raise ConfigError(f"field 'codebook_k' must be >= 1, got {self.codebook_k}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"field 'alpha' must be in [0, 1], got {self.alpha}")
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"field 'beta' must be in [0, 1], got {self.beta}")
        if not (math.isfinite(self.sigma_p) and self.sigma_p > 0.0):
            raise ConfigError(f"field 'sigma_p' must be finite and positive, got {self.sigma_p}")
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"field 'seed' must be non-negative, got {self.seed}")
        try:
            return ScoringConfig(
                action_weight=self.action_weight,
                motion_weight=self.motion_weight,
                sigma=self.sigma,
                tau=self.tau,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self):
        return {
            "scenario": str(self.scenario),
            "out_dir": str(self.out_dir),
            "codebook": None if self.codebook is None else str(self.codebook),
            "codebook_k": self.codebook_k,
            "tau": self.tau,
            "action_weight": self.action_weight,
            "motion_weight": self.motion_weight,
            "sigma": self.sigma,
            "alpha": self.alpha,
            "beta": self.beta,
            "sigma_p": self.sigma_p,
            "enable_filter": self.enable_filter,
            "seed": self.seed,
        }


@dataclass
class MetricsReport:
    n_clips: int
    accuracy: float
    filtered_accuracy: float | None
    average_precision: float
    average_recall: float
    decisions: list
    score_rows: list = field(default_factory=list)
    filter_states: list = field(default_factory=list)
    filter_clip_ids: list = field(default_factory=list)
    sweep_rows: list = field(default_factory=list)
    runtime_seconds: float = 0.0
    config: dict = field(default_factory=dict)


def _ranking_metrics(is_wearer, scores):
    """Average precision and average recall over the score threshold sweep.

    Every (clip, candidate) decision is a binary sample with the true wearer
    as the positive class. AP is the usual area under the precision/recall
    curve traced by sorting on match probability; AR is the mean recall over
    all cut positions of that ranking.
    """
    labels = np.asarray(is_wearer, dtype=bool)
    scores = np.asarray(scores, dtype=float)
    if labels.size == 0 or not labels.any():
        return 0.0, 0.0
    order = np.argsort(-scores, kind="stable")
    hits = labels[order].astype(float)
    true_positives = np.cumsum(hits)
    k = np.arange(1, hits.size + 1)
    positives = hits.sum()
    precision = true_positives / k
    recall = true_positives / positives
    ap = float((precision * hits).sum() / positives)
    ar = float(recall.mean())
    return ap, ar


def run_evaluation(config: RunConfig) -> MetricsReport:
    """Score every clip of the scenario, optionally filter, and write reports."""
    scoring = config.validate()
    started = time.perf_counter()

    scenario = load_scenario(config.scenario)
    if config.seed is not None:
        scenario = replace(scenario, seed=config.seed)
    clips = generate_scene(scenario)

    if config.codebook is not None:
        codebook = load_codebook(config.codebook)
    else:
        pose_clips = [cand.poses for clip in clips for cand in clip.candidates]
        codebook = fit_codebook(pose_clips, k=config.codebook_k, seed=scenario.seed)

    state = None
    if config.enable_filter:
        ids = [c.person_id for c in clips[0].candidates]
        positions = [c.boxes[-1].center for c in clips[0].candidates]
        state = bayes_filter.init_filter(ids, positions)

    decisions = []
    score_rows = []
    filter_states = []
    filter_clip_ids = []
    raw_correct = 0
    filtered_correct = 0
    for clip in clips:
        predicted, scores = localize(clip.ego, clip.candidates, codebook, scoring)
        raw_correct += int(predicted == clip.ground_truth_wearer)
        probabilities = [s.match_probability for s in scores]
        for cand, score in zip(clip.candidates, scores):
            row = score_record(clip.clip_id, cand.person_id, score)
            row["is_wearer"] = cand.person_id == clip.ground_truth_wearer
            score_rows.append(row)

        filtered = None
        if state is not None:
            state = bayes_filter.predict(state, dt=1.0, alpha=config.alpha)
            observed = np.array([c.boxes[-1].center for c in clip.candidates])
            occluded = [not c.fully_valid() for c in clip.candidates]
            state = bayes_filter.update(
                state,
                probabilities,
                observed,
                occluded=occluded,
                beta=config.beta,
                sigma_p=config.sigma_p,
            )
            filtered = bayes_filter.map_identity(state)
            filtered_correct += int(filtered == clip.ground_truth_wearer)
            filter_states.append(state)
            filter_clip_ids.append(clip.clip_id)

        decisions.append(
            {
                "clip_id": clip.clip_id,
                "truth": clip.ground_truth_wearer,
                "raw": predicted,
                "filtered": filtered,
                "probabilities": [
                    [c.person_id, p] for c, p in zip(clip.candidates, probabilities)
                ],
            }
        )

    n = len(clips)
    ap, ar = _ranking_metrics(
        [row["is_wearer"] for row in score_rows],
        [row["match_probability"] for row in score_rows],
    )
    report = MetricsReport(
        n_clips=n,
        accuracy=raw_correct / n,
        filtered_accuracy=(filtered_correct / n) if config.enable_filter else None,
        average_precision=ap,
        average_recall=ar,
        decisions=decisions,
        score_rows=score_rows,
        filter_states=filter_states,
        filter_clip_ids=filter_clip_ids,
        config=config.to_dict(),
        runtime_seconds=time.perf_counter() - started,
    )
    write_report(report, config.out_dir)
    return report


def report_to_dict(report: MetricsReport) -> dict:
    """Deterministic report payload; excludes wall-clock timing."""
    return {
        "schema_version": SCHEMA_VERSION,
        "config": report.config,
        "metrics": {
            "n_clips": report.n_clips,
            "accuracy": report.accuracy,
            "filtered_accuracy": report.filtered_accuracy,
            "average_precision": report.average_precision,
            "average_recall": report.average_recall,
        },
        "decisions": report.decisions,
    }


def write_report(report: MetricsReport, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report_to_dict(report), fh, sort_keys=True, indent=2)
    with open(os.path.join(out_dir, "decisions.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["clip_id", "truth", "raw", "filtered", "raw_correct", "filtered_correct"])
        for d in report.decisions:
            writer.writerow(
                [
                    d["clip_id"],
                    d["truth"],
                    d["raw"],
                    "" if d["filtered"] is None else d["filtered"],
                    int(d["raw"] == d["truth"]),
                    "" if d["filtered"] is None else int(d["filtered"] == d["truth"]),
                ]
            )


def emit_plots(report: MetricsReport, out_dir) -> list:
    """Plot-ready CSVs: per-clip score traces, filter posteriors, noise sweep."""
    os.makedirs(out_dir, exist_ok=True)
    written = []

    scores_path = os.path.join(out_dir, "scores.csv")
    with open(scores_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "clip_id",
                "person_id",
                "is_wearer",
                "action_ego_ce",
                "action_third_ce",
                "motion_ego_l1",
                "motion_third_l1",
                "total",
                "match_probability",
            ]
        )
        for row in report.score_rows:
            c = row["components"]
            writer.writerow(
                [
                    row["clip_id"],
                    row["person_id"],
                    int(row.get("is_wearer", False)),
                    repr(c["action_ego_ce"]),
                    repr(c["action_third_ce"]),
                    repr(c["motion_ego_l1"]),
                    repr(c["motion_third_l1"]),
                    repr(row["total"]),
                    repr(row["match_probability"]),
                ]
            )
    written.append(scores_path)

    posterior_path = os.path.join(out_dir, "posteriors.csv")
    steps = report.filter_clip_ids if report.filter_clip_ids else None
    bayes_filter.write_filter_trace(posterior_path, report.filter_states, steps=steps)
    written.append(posterior_path)

    sweep_path = os.path.join(out_dir, "sweep.csv")
    with open(sweep_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sigma_pose", "accuracy", "filtered_accuracy", "n_clips"])
        for row in report.sweep_rows:
            writer.writerow(
                [
                    repr(row["sigma_pose"]),
                    repr(row["accuracy"]),
                    "" if row["filtered_accuracy"] is None else repr(row["filtered_accuracy"]),
                    row["n_clips"],
                ]
            )
    written.append(sweep_path)
    return written


def run_sweep(config: RunConfig, sigma_pose_values) -> MetricsReport:
    """Re-run the evaluation at several pose-noise levels and collect accuracy."""
    config.validate()
    scenario = load_scenario(config.scenario)
    rows = []
    last = None
    for sigma_pose in sigma_pose_values:
        if sigma_pose < 0.0:
            raise ConfigError(f"field 'sigma_pose' must be non-negative, got {sigma_pose}")
        point_dir = os.path.join(config.out_dir, f"sigma_pose_{sigma_pose:g}")
        point_scenario = replace(scenario, noise=replace(scenario.noise, sigma_pose=sigma_pose))
        point_path = os.path.join(point_dir, "scenario.json")
        os.makedirs(point_dir, exist_ok=True)
        with open(point_path, "w", encoding="utf-8") as fh:
            fh.write(scenario_to_json(point_scenario))
        point_config = replace(config, scenario=point_path, out_dir=point_dir)
        last = run_evaluation(point_config)
        rows.append(
            {
                "sigma_pose": sigma_pose,
                "accuracy": last.accuracy,
                "filtered_accuracy": last.filtered_accuracy,
                "n_clips": last.n_clips,
            }
        )
    report = last if last is not None else MetricsReport(0, 0.0, None, 0.0, 0.0, [])
    report.sweep_rows = rows
    emit_plots(report, config.out_dir)
    return report


# ---------------------------------------------------------------------------
# command line


def _add_common(parser):
    parser.add_argument("--scenario", required=True, help="scenario JSON path")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")


def _add_scoring(parser):
    parser.add_argument("--codebook", default=None, help="load a fitted codebook instead of fitting")
    parser.add_argument("--codebook-k", type=int, default=DEFAULT_K)
    parser.add_argument("--tau", type=float, default=DEFAULT_TAU)
    parser.add_argument("--action-weight", type=float, default=1.0)
    parser.add_argument("--motion-weight", type=float, default=1.0)
    parser.add_argument("--sigma", type=float, default=1.0)
    parser.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    parser.add_argument("--beta", type=float, default=DEFAULT_BETA)
    parser.add_argument("--sigma-p", type=float, default=DEFAULT_SIGMA_P)
    parser.add_argument("--no-filter", action="store_true", help="disable the Bayes identity filter")


def _config_from_args(args):
    return RunConfig(
        scenario=args.scenario,
        out_dir=args.out,
        codebook=args.codebook,
        codebook_k=args.codebook_k,
        tau=args.tau,
        action_weight=args.action_weight,
        motion_weight=args.motion_weight,
        sigma=args.sigma,
        alpha=args.alpha,
        beta=args.beta,
        sigma_p=args.sigma_p,
        enable_filter=not args.no_filter,
        seed=args.seed,
    )


def _cmd_simulate(args):
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    clips = generate_scene(scenario)
    save_scene(clips, args.out, scenario)
    print(f"wrote {len(clips)} clips to {args.out}")
    return 0


def _cmd_fit_codebook(args):
    scenario = load_scenario(args.scenario)
    seed = args.seed if args.seed is not None else scenario.seed
    scenario = replace(scenario, seed=seed)
    clips = generate_scene(scenario)
    pose_clips = [cand.poses for clip in clips for cand in clip.candidates]
    codebook = fit_codebook(pose_clips, k=args.k, seed=seed)
    save_codebook(codebook, args.out)
    print(f"fitted k={codebook.k} codebook on {len(pose_clips)} clips -> {args.out}")
    return 0


def _cmd_evaluate(args):
    config = _config_from_args(args)
    report = run_evaluation(config)
    emit_plots(report, config.out_dir)
    filtered = "-" if report.filtered_accuracy is None else f"{report.filtered_accuracy:.4f}"
    print(
        f"clips={report.n_clips} accuracy={report.accuracy:.4f} filtered={filtered} "
        f"AP={report.average_precision:.4f} AR={report.average_recall:.4f} "
        f"({report.runtime_seconds:.2f}s)"
    )
    return 0


def _cmd_sweep(args):
    config = _config_from_args(args)
    values = [float(v) for v in args.sigma_pose.split(",") if v != ""]
    if not values:
        raise ConfigError("field 'sigma_pose' must list at least one value")
    report = run_sweep(config, values)
    for row in report.sweep_rows:
        filtered = "-" if row["filtered_accuracy"] is None else f"{row['filtered_accuracy']:.4f}"
        print(f"sigma_pose={row['sigma_pose']:g} accuracy={row['accuracy']:.4f} filtered={filtered}")
    return 0


def _cmd_report(args):
    try:
        with open(args.report, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise OSError(f"cannot read report {args.report}: {exc}") from exc
    metrics = payload["metrics"]
    print(f"report: {args.report}")
    print(f"  clips:             {metrics['n_clips']}")
    print(f"  accuracy:          {metrics['accuracy']:.4f}")
    if metrics.get("filtered_accuracy") is not None:
        print(f"  filtered accuracy: {metrics['filtered_accuracy']:.4f}")
    print(f"  average precision: {metrics['average_precision']:.4f}")
    print(f"  average recall:    {metrics['average_recall']:.4f}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="crossview", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a scene directory from a scenario")
    _add_common(p)
    p.add_argument("--out", required=True, help="output scene directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit-codebook", help="fit a K-means action codebook from a scenario")
    _add_common(p)
    p.add_argument("--k", type=int, default=DEFAULT_K)
    p.add_argument("--out", required=True, help="output codebook JSON path")
    p.set_defaults(func=_cmd_fit_codebook)

    p = sub.add_parser("evaluate", help="run localization over a scenario and write reports")
    _add_common(p)
    _add_scoring(p)
    p.add_argument("--out", required=True, help="output report directory")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep", help="accuracy versus pose-noise sweep")
    _add_common(p)
    _add_scoring(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--sigma-pose", required=True, help="comma-separated noise levels, e.g. 0,0.02,0.05")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("report", help="print the metric table of a saved report")
    p.add_argument("--report", required=True, help="path to report.json")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
