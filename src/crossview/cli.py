"""Command-line harness: simulate scenes, fit codebooks, evaluate, sweep.

evaluate scores the scene in one score_scene call, filters it clip by clip
and writes report.json, decisions.csv, scores.csv and posteriors.csv.
sweep writes the same four files and the scenario.json they were run from
into one sigma_pose_<value> directory per pose-noise level, and sweep.csv
beside those directories. Exit codes: 0 success, 2 validation error, 3 I/O
error. Reports are deterministic: the same config and seed produce
byte-identical report files at a fixed OpenBLAS thread count (wall-clock
timing is kept on the in-memory report only); the score bits, and so
report.json, scores.csv and posteriors.csv, change with that count. Every
command runs on a Scene of arrays.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import product

import numpy as np

from . import bayes_filter
from ._files import _number, _object, _required, read_json
from .action_codebook import DEFAULT_K, fit_codebook, load_codebook, save_codebook
from .motion import box_centers
# generate_scene and localize are bound here, uncalled, because perfbench/tracer.py wraps them in crossview.cli
from .simulator import generate_scene, load_scenario, save_scenario, save_scene, scene_arrays  # noqa: F401
from .verification import ScoringConfig, localize, score_scene  # noqa: F401

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
# the scores.csv header; each score row is a flat dict with these keys
SCORE_COLUMNS = (
    "clip_id", "person_id", "is_wearer", "action_ego_ce", "action_third_ce",
    "motion_ego_l1", "motion_third_l1", "total", "match_probability",
)
# the posteriors.csv header: one row per (clip, candidate) of a filtered run
POSTERIOR_COLUMNS = (
    "step", "candidate_id", "prior", "likelihood", "posterior",
    "predicted_x", "predicted_y", "observed_x", "observed_y",
)
SWEEP_COLUMNS = ("sigma_pose", "accuracy", "filtered_accuracy", "n_clips")


class ConfigError(ValueError):
    """A RunConfig field is missing or out of its documented range."""


@dataclass
class RunConfig:
    """Every evaluate/sweep option; the command line takes its defaults from here."""

    scenario: str
    out_dir: str
    codebook: str | None = None
    codebook_k: int = DEFAULT_K
    tau: float = ScoringConfig.tau
    action_weight: float = ScoringConfig.action_weight
    motion_weight: float = ScoringConfig.motion_weight
    sigma: float = ScoringConfig.sigma
    alpha: float = bayes_filter.DEFAULT_ALPHA
    beta: float = bayes_filter.DEFAULT_BETA
    sigma_p: float = bayes_filter.DEFAULT_SIGMA_P
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


@dataclass
class MetricsReport:
    n_clips: int
    accuracy: float
    filtered_accuracy: float | None
    average_precision: float
    average_recall: float
    decisions: list
    score_rows: list = field(default_factory=list)
    posterior_rows: list = field(default_factory=list)
    runtime_seconds: float = 0.0
    config: dict = field(default_factory=dict)


def _ranking_metrics(is_wearer, scores):
    """Average precision and average recall over the score threshold sweep.

    Every (clip, candidate) decision is a binary sample with the true wearer
    as the positive class. AP is the usual area under the precision/recall
    curve traced by sorting on match probability; AR is the mean recall over
    all cut positions of that ranking.
    """
    hits = np.asarray(is_wearer, dtype=float)[np.argsort(-np.asarray(scores, dtype=float), kind="stable")]
    true_positives = np.cumsum(hits)
    positives = hits.sum()
    precision = true_positives / np.arange(1, hits.size + 1)
    return float((precision * hits).sum() / positives), float((true_positives / positives).mean())


def _scenario(path, seed):
    """Load a scenario and override its seed when one is given."""
    scenario = load_scenario(path)
    return scenario if seed is None else replace(scenario, seed=seed)


def _fit(scene, k, seed, option):
    """Fit the action codebook on the pose clip of every (clip, candidate) pair; errors name the k option."""
    try:
        return fit_codebook(scene.poses.reshape(-1, *scene.poses.shape[2:]), k=k, seed=seed)
    except ValueError as exc:  # k < 1, or fewer clips or distinct clips than k
        raise ValueError(f"{option} {k}: {exc}") from exc


def run_evaluation(config: RunConfig) -> MetricsReport:
    """Score every clip of the scenario, optionally filter, and write the four report files."""
    scoring = config.validate()
    started = time.perf_counter()

    scenario = _scenario(config.scenario, config.seed)
    scene = scene_arrays(scenario)
    if config.codebook is not None:
        codebook = load_codebook(config.codebook)
    else:
        codebook = _fit(scene, config.codebook_k, scenario.seed, "--codebook-k")
    raw, scores = score_scene(scene, codebook, scoring)

    # tolist gives Python numbers, which csv and json write as their repr
    clip_ids, person_ids = scene.clip_ids.tolist(), scene.person_ids.tolist()
    probabilities = scores["match_probability"].reshape(len(clip_ids), -1).tolist()
    score_rows = [
        dict(zip(scores, values), clip_id=clip_id, person_id=pid, is_wearer=int(pid == scene.wearer))
        for (clip_id, pid), values in zip(product(clip_ids, person_ids), zip(*(c.tolist() for c in scores.values())))
    ]
    decisions = [
        {
            "clip_id": clip_id,
            "truth": scene.wearer,
            "raw": pid,
            "filtered": None,
            "probabilities": [[person, p] for person, p in zip(person_ids, clip_probabilities)],
        }
        for clip_id, pid, clip_probabilities in zip(clip_ids, raw, probabilities)
    ]
    posterior_rows = []
    if config.enable_filter:
        # the filter observes each candidate's last box centre, and whether any of its frames was occluded
        centres = box_centers(scene.corners[:, :, -1])
        occluded = ~scene.valid.all(axis=-1)
        state = bayes_filter.init_filter(person_ids, centres[0])
        for i, decision in enumerate(decisions):
            prior = bayes_filter.predict(state, dt=1.0, alpha=config.alpha)
            state = bayes_filter.update(
                prior, probabilities[i], centres[i], occluded=occluded[i], beta=config.beta, sigma_p=config.sigma_p
            )
            decision["filtered"] = bayes_filter.map_identity(state)
            columns = (prior.weights, state.last_likelihood, state.weights, *prior.positions.T, *state.positions.T)
            for cid, *values in zip(state.ids, *(column.tolist() for column in columns)):
                posterior_rows.append(dict(zip(POSTERIOR_COLUMNS, (decision["clip_id"], cid, *values))))

    n = len(decisions)
    ap, ar = _ranking_metrics([r["is_wearer"] for r in score_rows], scores["match_probability"])
    report = MetricsReport(
        n_clips=n,
        accuracy=sum(pid == scene.wearer for pid in raw) / n,
        filtered_accuracy=sum(d["filtered"] == scene.wearer for d in decisions) / n if config.enable_filter else None,
        average_precision=ap,
        average_recall=ar,
        decisions=decisions,
        score_rows=score_rows,
        posterior_rows=posterior_rows,
        # report.json writes a pathlib.Path as its string
        config={k: os.fspath(v) if isinstance(v, os.PathLike) else v for k, v in asdict(config).items()},
        runtime_seconds=time.perf_counter() - started,
    )
    write_report(report, config.out_dir)
    emit_plots(report, config.out_dir)
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
        # csv writes None, the filtered decision of an unfiltered run, as an empty field
        writer = csv.writer(fh)
        writer.writerow(["clip_id", "truth", "raw", "filtered", "raw_correct", "filtered_correct"])
        for d in report.decisions:
            filtered_correct = None if d["filtered"] is None else int(d["filtered"] == d["truth"])
            row = [d["clip_id"], d["truth"], d["raw"], d["filtered"], int(d["raw"] == d["truth"]), filtered_correct]
            writer.writerow(row)


def _write_csv(path, columns, rows) -> None:
    """Write a header of columns, then each row, a dict keyed by them; csv writes a float as its repr."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, columns)
        writer.writeheader()
        writer.writerows(rows)


def emit_plots(report: MetricsReport, out_dir) -> list:
    """Plot-ready CSVs: the flat score rows and the filter posteriors per clip."""
    os.makedirs(out_dir, exist_ok=True)
    paths = [os.path.join(out_dir, "scores.csv"), os.path.join(out_dir, "posteriors.csv")]
    _write_csv(paths[0], SCORE_COLUMNS, report.score_rows)
    _write_csv(paths[1], POSTERIOR_COLUMNS, report.posterior_rows)
    return paths


def run_sweep(config: RunConfig, sigma_pose_values) -> list:
    """Re-run the evaluation at several pose-noise levels and collect accuracy.

    Each level gets a sigma_pose_<value>/ directory holding its scenario.json
    and everything evaluate writes; the sweep directory adds sweep.csv.
    Returns the sweep.csv rows, one per level.
    """
    config.validate()
    sigma_pose_values = list(sigma_pose_values)
    if not sigma_pose_values:
        raise ConfigError("field 'sigma_pose' must list at least one value")
    points = {}  # directory name -> level
    for sigma_pose in sigma_pose_values:
        if not (math.isfinite(sigma_pose) and sigma_pose >= 0.0):
            raise ConfigError(f"field 'sigma_pose' must be finite and non-negative, got {sigma_pose}")
        name = f"sigma_pose_{sigma_pose:g}"
        if name in points:
            raise ConfigError(f"field 'sigma_pose' values {points[name]} and {sigma_pose} share the directory {name}")
        points[name] = sigma_pose
    scenario = _scenario(config.scenario, config.seed)
    rows = []
    for name, sigma_pose in points.items():
        point_dir = os.path.join(config.out_dir, name)
        point_scenario = replace(scenario, noise=replace(scenario.noise, sigma_pose=sigma_pose))
        point_path = os.path.join(point_dir, "scenario.json")
        os.makedirs(point_dir, exist_ok=True)
        save_scenario(point_scenario, point_path)
        report = run_evaluation(replace(config, scenario=point_path, out_dir=point_dir))
        rows.append(dict(zip(SWEEP_COLUMNS, (sigma_pose, report.accuracy, report.filtered_accuracy, report.n_clips))))
    _write_csv(os.path.join(config.out_dir, "sweep.csv"), SWEEP_COLUMNS, rows)
    return rows


# ---------------------------------------------------------------------------
# command line


def _add_common(parser):
    parser.add_argument("--scenario", required=True, help="scenario JSON path")
    parser.add_argument("--seed", type=int, help="override the scenario seed")


def _add_run_options(parser, out_help):
    """RunConfig's options; their defaults are RunConfig's, so none is set here."""
    parser.add_argument("--codebook", help="load a fitted codebook instead of fitting")
    parser.add_argument("--codebook-k", type=int)
    for name in ("tau", "action-weight", "motion-weight", "sigma", "alpha", "beta", "sigma-p"):
        parser.add_argument(f"--{name}", type=float)
    parser.add_argument(
        "--no-filter", dest="enable_filter", action="store_false", help="disable the Bayes identity filter"
    )
    parser.add_argument("--out", dest="out_dir", metavar="OUT", required=True, help=out_help)


def _config_from_args(args):
    given = vars(args)
    return RunConfig(**{f.name: given[f.name] for f in fields(RunConfig) if f.name in given})


def _cmd_simulate(args):
    scenario = _scenario(args.scenario, args.seed)
    scene = scene_arrays(scenario)
    save_scene(scene, args.out, scenario)
    print(f"wrote {scene.clip_ids.size} clips to {args.out}")
    return 0


def _cmd_fit_codebook(args):
    scenario = _scenario(args.scenario, args.seed)
    scene = scene_arrays(scenario)
    codebook = _fit(scene, args.k, scenario.seed, "--k")
    save_codebook(codebook, args.out)
    print(f"fitted k={codebook.k} codebook on {scene.clip_ids.size * scene.person_ids.size} clips -> {args.out}")
    return 0


def _cmd_evaluate(args):
    report = run_evaluation(_config_from_args(args))
    filtered = "-" if report.filtered_accuracy is None else f"{report.filtered_accuracy:.4f}"
    print(
        f"clips={report.n_clips} accuracy={report.accuracy:.4f} filtered={filtered} "
        f"AP={report.average_precision:.4f} AR={report.average_recall:.4f} "
        f"({report.runtime_seconds:.2f}s)"
    )
    return 0


def _cmd_sweep(args):
    try:
        values = [float(v) for v in args.sigma_pose.split(",") if v != ""]
    except ValueError as exc:
        raise ConfigError(f"field 'sigma_pose' must list numbers: {exc}") from exc
    for row in run_sweep(_config_from_args(args), values):
        filtered = "-" if row["filtered_accuracy"] is None else f"{row['filtered_accuracy']:.4f}"
        print(f"sigma_pose={row['sigma_pose']:g} accuracy={row['accuracy']:.4f} filtered={filtered}")
    return 0


# metric key -> (label, format spec) of the lines `report` prints
REPORT_LINES = {
    "n_clips": ("clips:", ""),
    "accuracy": ("accuracy:", ".4f"),
    "filtered_accuracy": ("filtered accuracy:", ".4f"),
    "average_precision": ("average precision:", ".4f"),
    "average_recall": ("average recall:", ".4f"),
}


def _report_lines(payload):
    """The metric lines `report` prints from a report.json payload; n_clips must be an integer."""
    if not isinstance(payload, dict):
        raise ValueError(f"this {type(payload).__name__} is not a metrics report")
    metrics = _object(_required(payload, "metrics", "a report"), "metrics")
    lines = []
    for key, (label, spec) in REPORT_LINES.items():
        if key == "filtered_accuracy" and metrics.get(key) is None:
            continue
        value = _number(_required(metrics, key, "metrics"), f"key '{key}'", integer=key == "n_clips")
        lines.append(f"  {label:<19}{value:{spec}}")
    return lines


def _cmd_report(args):
    print("\n".join([f"report: {args.report}", *read_json(args.report, "report", _report_lines)]))
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

    # evaluate and sweep leave every option they are not given unset, so
    # RunConfig's default applies
    p = sub.add_parser(
        "evaluate", help="run localization over a scenario and write reports", argument_default=argparse.SUPPRESS
    )
    _add_common(p)
    _add_run_options(p, "output report directory")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep", help="accuracy versus pose-noise sweep", argument_default=argparse.SUPPRESS)
    _add_common(p)
    _add_run_options(p, "output directory")
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
