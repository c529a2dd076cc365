"""CLI harness tests: evaluation pipeline, metrics, CSV emission, exit codes."""

import csv
import hashlib
import json
import math
import os
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import crossview as cv
from crossview.cli import (
    POSTERIOR_COLUMNS,
    ConfigError,
    MetricsReport,
    RunConfig,
    _config_from_args,
    build_parser,
    emit_plots,
    main,
    run_evaluation,
    run_sweep,
)
from crossview.simulator import load_scene, save_scenario

GOLDEN = json.loads((Path(__file__).parent / "golden" / "metrics.json").read_text())

NOISE = cv.NoiseParams(sigma_pose=0.02, sigma_odo_trans=0.01, sigma_odo_rot=0.01, sigma_bbox=0.01)


def write_scenario(tmp_path, scenario, name="scenario.json"):
    path = tmp_path / name
    save_scenario(scenario, path)
    return path


class TestRunEvaluation:
    def test_zero_noise_two_person_is_perfect(self, tmp_path):
        path = write_scenario(tmp_path, cv.two_person_scenario(crossing=False, duration=40, seed=0))
        config = RunConfig(scenario=str(path), out_dir=str(tmp_path / "out"), codebook_k=16)
        report = run_evaluation(config)
        assert report.accuracy == 1.0
        assert report.n_clips == 33
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "decisions.csv").exists()

    def test_indistinguishable_clones_hit_tie_break_rate(self, tmp_path):
        # two identical walkers: prediction always falls to the lowest id, so
        # over the two possible wearer assignments accuracy averages exactly 1/2
        accuracies = []
        for wearer_id in (0, 1):
            persons = tuple(
                cv.PersonSpec(
                    pid,
                    ((0.0, 0.0), (8.0, 0.0)),
                    0.08,
                    cv.GaitParams(),
                    is_wearer=(pid == wearer_id),
                )
                for pid in (0, 1)
            )
            scenario = cv.Scenario(0, 24, persons)
            path = write_scenario(tmp_path, scenario, name=f"clones_{wearer_id}.json")
            config = RunConfig(
                scenario=str(path),
                out_dir=str(tmp_path / f"clones_out_{wearer_id}"),
                codebook_k=8,
                enable_filter=False,
            )
            accuracies.append(run_evaluation(config).accuracy)
        assert sum(accuracies) / 2 == 0.5

    def test_output_bytes_match_golden(self, tmp_path, capsys):
        # every scoring output, bit for bit, through the command line: a
        # change to any score, probability or posterior fails here. The
        # bytes come from the BLAS distance products, so they hold for the
        # OpenBLAS build and CPU they were recorded on (see CHANGES.md).
        golden = GOLDEN["evaluate_outputs"]
        noise = cv.NoiseParams(sigma_pose=0.03, sigma_odo_trans=0.01, sigma_odo_rot=0.02, sigma_bbox=0.01)
        path = write_scenario(tmp_path, cv.three_person_scenario(crossing=True, duration=60, seed=11, noise=noise))
        out = tmp_path / "out"
        assert main(["evaluate", "--scenario", str(path), "--codebook-k", "16", "--out", str(out)]) == 0
        assert "clips=53 " in capsys.readouterr().out
        for name, want in golden["sha256"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == want, name

    def test_crossing_filter_matches_golden(self, tmp_path):
        golden = GOLDEN["crossing_filter"]
        scenario = cv.three_person_scenario(crossing=True, duration=88, seed=0, noise=NOISE)
        path = write_scenario(tmp_path, scenario)
        config = RunConfig(scenario=str(path), out_dir=str(tmp_path / "out"), codebook_k=128)
        report = run_evaluation(config)
        assert report.n_clips == golden["n_clips"]
        assert report.accuracy == golden["accuracy"]
        assert report.filtered_accuracy == golden["filtered_accuracy"]
        assert report.filtered_accuracy >= report.accuracy

    def test_filter_off_leaves_filtered_none(self, tmp_path):
        path = write_scenario(tmp_path, cv.two_person_scenario(duration=24, seed=1))
        config = RunConfig(scenario=str(path), out_dir=str(tmp_path / "out"), codebook_k=8, enable_filter=False)
        report = run_evaluation(config)
        assert report.filtered_accuracy is None
        decisions = json.loads((tmp_path / "out" / "report.json").read_text())["decisions"]
        assert all(d["filtered"] is None for d in decisions)

    @pytest.mark.parametrize("fitted", [True, False], ids=["fitted", "loaded"])
    def test_stage_times_cover_the_run_and_stay_out_of_the_report(self, tmp_path, fitted):
        path = write_scenario(tmp_path, cv.two_person_scenario(duration=24, seed=2, noise=NOISE))
        codebook = None
        if not fitted:
            codebook = str(tmp_path / "codebook.json")
            assert main(["fit-codebook", "--scenario", str(path), "--k", "8", "--out", codebook]) == 0
        config = RunConfig(scenario=str(path), out_dir=str(tmp_path / "out"), codebook_k=8, codebook=codebook)
        report = run_evaluation(config)
        assert list(report.stage_seconds) == ["scene", "codebook", "score", "filter", "write"]
        assert all(seconds >= 0.0 for seconds in report.stage_seconds.values())
        assert math.fsum(report.stage_seconds.values()) <= report.runtime_seconds
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert set(payload) == {"schema_version", "config", "metrics", "decisions"}
        assert set(payload["metrics"]) == {"n_clips", "accuracy", "filtered_accuracy", "average_precision", "average_recall"}

    def test_reports_reproducible_byte_for_byte(self, tmp_path):
        path = write_scenario(tmp_path, cv.two_person_scenario(duration=24, seed=2, noise=NOISE))
        config = RunConfig(scenario=str(path), out_dir=str(tmp_path / "out"), codebook_k=8)
        run_evaluation(config)
        first = (tmp_path / "out" / "report.json").read_bytes()
        run_evaluation(config)
        second = (tmp_path / "out" / "report.json").read_bytes()
        assert first == second

    def test_seed_override_changes_noise_draws(self, tmp_path):
        path = write_scenario(tmp_path, cv.two_person_scenario(duration=24, seed=2, noise=NOISE))
        a = run_evaluation(RunConfig(scenario=str(path), out_dir=str(tmp_path / "a"), codebook_k=8, seed=3))
        b = run_evaluation(RunConfig(scenario=str(path), out_dir=str(tmp_path / "b"), codebook_k=8, seed=4))
        pa = [d["probabilities"] for d in a.decisions]
        pb = [d["probabilities"] for d in b.decisions]
        assert pa != pb

    def test_metrics_agree_with_confusion_recount(self, tmp_path):
        path = write_scenario(tmp_path, cv.three_person_scenario(duration=40, seed=5, noise=NOISE))
        config = RunConfig(scenario=str(path), out_dir=str(tmp_path / "out"), codebook_k=32)
        report = run_evaluation(config)

        # independent accuracy recount from the decision log
        correct = sum(1 for d in report.decisions if d["raw"] == d["truth"])
        assert report.accuracy == correct / len(report.decisions)

        # independent AP/AR: brute-force precision/recall at every threshold
        pairs = sorted(
            ((row["match_probability"], row["is_wearer"]) for row in report.score_rows),
            key=lambda t: -t[0],
        )
        positives = sum(1 for _, hit in pairs if hit)
        ap = 0.0
        recalls = []
        tp = 0
        for k, (score, hit) in enumerate(pairs, start=1):
            tp += int(hit)
            if hit:
                ap += tp / k
            recalls.append(tp / positives)
        assert report.average_precision == pytest.approx(ap / positives, abs=1e-12)
        assert report.average_recall == pytest.approx(sum(recalls) / len(recalls), abs=1e-12)
        assert 0.0 <= report.average_precision <= 1.0
        assert 0.0 <= report.average_recall <= 1.0

    def test_scores_csv_has_one_full_row_per_pair(self, tmp_path):
        path = write_scenario(tmp_path, cv.three_person_scenario(duration=24, seed=5, noise=NOISE))
        report = run_evaluation(RunConfig(scenario=str(path), out_dir=str(tmp_path / "out"), codebook_k=8))
        with open(tmp_path / "out" / "scores.csv", newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert reader.fieldnames == [
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
        expected = [
            (str(d["clip_id"]), str(pid), str(int(pid == d["truth"])), repr(p))
            for d in report.decisions
            for pid, p in d["probabilities"]
        ]
        assert [(r["clip_id"], r["person_id"], r["is_wearer"], r["match_probability"]) for r in rows] == expected
        for r in rows:
            parts = [float(r[k]) for k in ("action_ego_ce", "action_third_ce", "motion_ego_l1", "motion_third_l1")]
            assert float(r["total"]) == pytest.approx(sum(parts))

    def test_path_fields_written_as_strings(self, tmp_path):
        path = write_scenario(tmp_path, cv.two_person_scenario(duration=24, seed=0))
        run_evaluation(RunConfig(scenario=path, out_dir=tmp_path / "out", codebook_k=8))
        config = json.loads((tmp_path / "out" / "report.json").read_text())["config"]
        assert config["scenario"] == str(path)
        assert config["out_dir"] == str(tmp_path / "out")
        assert config["codebook"] is None

    def test_config_validation_names_field(self, tmp_path):
        path = write_scenario(tmp_path, cv.two_person_scenario(duration=24))
        bad = RunConfig(scenario=str(path), out_dir=str(tmp_path / "o"), alpha=2.0)
        with pytest.raises(ConfigError, match="alpha"):
            run_evaluation(bad)
        bad = RunConfig(scenario=str(path), out_dir=str(tmp_path / "o"), codebook_k=0)
        with pytest.raises(ConfigError, match="codebook_k"):
            run_evaluation(bad)

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"scenario": ""}, "scenario"),
            ({"out_dir": ""}, "out_dir"),
            ({"beta": 1.5}, "beta"),
            ({"seed": -1}, "seed"),
            # each passed before: a bool is not a number, nor 2.5 a cluster count
            ({"alpha": True}, "alpha"),
            ({"codebook_k": 2.5}, "codebook_k"),
            ({"sigma_p": "0.5"}, "sigma_p"),
            ({"seed": 1.5}, "seed"),
            ({"beta": math.nan}, "beta"),
        ],
    )
    def test_config_validation_names_every_field(self, change, field):
        with pytest.raises(ConfigError, match=f"field '{field}'"):
            replace(RunConfig(scenario="scenario.json", out_dir="out"), **change).validate()

    def test_missing_scenario_raises_oserror(self, tmp_path):
        config = RunConfig(scenario=str(tmp_path / "nope.json"), out_dir=str(tmp_path / "o"))
        with pytest.raises(OSError, match="nope.json"):
            run_evaluation(config)


class TestGroupCrossingDegradation:
    def test_dense_crossing_collapses_per_clip_accuracy(self, tmp_path):
        # documented failure regime: with near-constant occlusion bursts the
        # per-clip scores are corrupted most of the time and raw localization
        # collapses; only the temporal filter retains the identity here
        scenario = cv.group_scenario(6, duration=96, seed=0, noise=NOISE, same_gait=True)
        path = write_scenario(tmp_path, scenario)
        config = RunConfig(scenario=str(path), out_dir=str(tmp_path / "out"), codebook_k=128)
        report = run_evaluation(config)
        assert report.accuracy <= 0.2
        assert report.filtered_accuracy >= report.accuracy


class TestEmitPlots:
    def empty_report(self):
        return MetricsReport(0, 0.0, None, 0.0, 0.0, [])

    def test_empty_report_gives_header_only_csvs(self, tmp_path):
        written = emit_plots(self.empty_report(), tmp_path)
        assert [os.path.basename(p) for p in written] == ["scores.csv", "posteriors.csv"]
        for path in written:
            with open(path) as fh:
                rows = list(csv.reader(fh))
            assert len(rows) == 1  # header only

    def test_single_clip_report_gives_one_row_per_file(self, tmp_path):
        report = MetricsReport(
            n_clips=1,
            accuracy=1.0,
            filtered_accuracy=1.0,
            average_precision=1.0,
            average_recall=1.0,
            decisions=[{"clip_id": 0, "truth": 0, "raw": 0, "filtered": 0, "probabilities": [[0, 0.9]]}],
            score_rows=[
                {
                    "clip_id": 0,
                    "person_id": 0,
                    "is_wearer": 1,
                    "action_ego_ce": 0.0,
                    "action_third_ce": 0.0,
                    "motion_ego_l1": 0.1,
                    "motion_third_l1": 0.0,
                    "total": 0.1,
                    "match_probability": 0.9,
                }
            ],
            posterior_rows=[dict(zip(POSTERIOR_COLUMNS, (0, 0, 1.0, 0.9, 1.0, 0.0, 0.0, 0.1, 0.0)))],
        )
        for path in emit_plots(report, tmp_path):
            with open(path) as fh:
                rows = list(csv.reader(fh))
            assert len(rows) == 2  # header + one data row


class TestPosteriorTrace:
    def test_rows_replay_the_filter(self, tmp_path):
        # the negative offset starts the clip ids at 2; the crossings occlude 22 (clip, candidate) pairs
        scenario = cv.three_person_scenario(crossing=True, duration=64, seed=7, noise=NOISE, time_offset=-2)
        path = write_scenario(tmp_path, scenario)
        alpha = 0.2
        run_evaluation(RunConfig(scenario=str(path), out_dir=str(tmp_path / "out"), codebook_k=16, alpha=alpha))
        clips = cv.generate_scene(scenario)
        with open(tmp_path / "out" / "posteriors.csv") as fh:
            reader = csv.DictReader(fh)
            header = "step candidate_id prior likelihood posterior predicted_x predicted_y observed_x observed_y"
            assert reader.fieldnames == header.split()
            rows = list(reader)
        ids = [c.person_id for c in clips[0].candidates]
        n = len(ids)
        assert len(rows) == len(clips) * n
        previous = np.full(n, 1.0 / n)
        for clip, start in zip(clips, range(0, len(rows), n)):
            step = rows[start : start + n]
            assert [int(r["step"]) for r in step] == [clip.clip_id] * n
            assert [int(r["candidate_id"]) for r in step] == ids == [c.person_id for c in clip.candidates]
            observed = [[float(r["observed_x"]), float(r["observed_y"])] for r in step]
            np.testing.assert_array_equal(observed, [c.boxes[-1].center for c in clip.candidates])
            prior, likelihood, posterior = (np.array([float(r[key]) for r in step]) for key in POSTERIOR_COLUMNS[2:5])
            product = prior * likelihood
            expected = product / product.sum() if product.sum() > 0.0 else prior
            np.testing.assert_allclose(posterior, expected, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(prior, (1.0 - alpha) * previous + alpha / n, rtol=0.0, atol=1e-12)
            previous = posterior

    def test_unfiltered_run_writes_header_only(self, tmp_path):
        path = write_scenario(tmp_path, cv.two_person_scenario(duration=24, seed=0))
        run_evaluation(RunConfig(scenario=str(path), out_dir=str(tmp_path / "out"), codebook_k=8, enable_filter=False))
        with open(tmp_path / "out" / "posteriors.csv") as fh:
            assert list(csv.reader(fh)) == [list(POSTERIOR_COLUMNS)]


class TestSweep:
    def test_sweep_collects_rows(self, tmp_path):
        path = write_scenario(tmp_path, cv.two_person_scenario(duration=24, seed=3, noise=NOISE))
        config = RunConfig(scenario=str(path), out_dir=str(tmp_path / "sweep"), codebook_k=8)
        assert [row["sigma_pose"] for row in run_sweep(config, [0.0, 0.05])] == [0.0, 0.05]
        with open(tmp_path / "sweep" / "sweep.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 3
        assert rows[0][0] == "sigma_pose"

    def test_each_point_directory_holds_what_evaluate_writes(self, tmp_path):
        path = write_scenario(tmp_path, cv.two_person_scenario(duration=24, seed=3, noise=NOISE))
        out = tmp_path / "sweep"
        run_sweep(RunConfig(scenario=str(path), out_dir=str(out), codebook_k=8), [0.0, 0.05])
        assert sorted(os.listdir(out)) == ["sigma_pose_0", "sigma_pose_0.05", "sweep.csv"]
        for point in ("sigma_pose_0", "sigma_pose_0.05"):
            assert sorted(os.listdir(out / point)) == [
                "decisions.csv",
                "posteriors.csv",
                "report.json",
                "scenario.json",
                "scores.csv",
            ]
            report = json.loads((out / point / "report.json").read_text())
            assert report["config"]["scenario"] == str(out / point / "scenario.json")

    def test_point_scenario_holds_the_seed_the_level_ran_at(self, tmp_path):
        path = write_scenario(tmp_path, cv.two_person_scenario(duration=24, seed=3))
        out = tmp_path / "sweep"
        argv = ["sweep", "--scenario", str(path), "--seed", "11", "--codebook-k", "8", "--sigma-pose", "0.02"]
        assert main(argv + ["--out", str(out)]) == 0
        point = out / "sigma_pose_0.02"
        assert json.loads((point / "scenario.json").read_text())["seed"] == 11
        argv = ["evaluate", "--scenario", str(point / "scenario.json"), "--codebook-k", "8"]
        assert main(argv + ["--out", str(tmp_path / "again")]) == 0
        assert (tmp_path / "again" / "scores.csv").read_bytes() == (point / "scores.csv").read_bytes()

    def test_empty_list_rejected(self, tmp_path):
        path = write_scenario(tmp_path, cv.two_person_scenario(duration=24, seed=3))
        with pytest.raises(ConfigError, match="sigma_pose"):
            run_sweep(RunConfig(scenario=str(path), out_dir=str(tmp_path / "sweep")), [])
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize(
        "value, text",
        [(True, "must be a number, got True"), ("0.1", "must be a number"), (-0.1, "must be non-negative")],
    )
    def test_misread_level_rejected_before_any_point(self, tmp_path, value, text):
        path = write_scenario(tmp_path, cv.two_person_scenario(duration=24, seed=3))
        with pytest.raises(ConfigError, match=f"field 'sigma_pose' {text}"):
            run_sweep(RunConfig(scenario=str(path), out_dir=str(tmp_path / "sweep")), [0.0, value])
        assert not (tmp_path / "sweep").exists()


# every RunConfig field but scenario and out_dir: (flag, its argument, field, value)
RUN_FLAGS = [
    ("--seed", "3", "seed", 3),
    ("--codebook", "cb.json", "codebook", "cb.json"),
    ("--codebook-k", "8", "codebook_k", 8),
    ("--tau", "0.2", "tau", 0.2),
    ("--action-weight", "0.5", "action_weight", 0.5),
    ("--motion-weight", "0.25", "motion_weight", 0.25),
    ("--sigma", "2", "sigma", 2.0),
    ("--alpha", "0.1", "alpha", 0.1),
    ("--beta", "0.6", "beta", 0.6),
    ("--sigma-p", "0.3", "sigma_p", 0.3),
    ("--no-filter", None, "enable_filter", False),
]


class TestParseRunConfig:
    def parse(self, command, *extra):
        argv = [command, "--scenario", "s", "--out", "o", *extra]
        if command == "sweep":
            argv += ["--sigma-pose", "0"]
        return _config_from_args(build_parser().parse_args(argv))

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    def test_unset_flags_take_run_config_defaults(self, command):
        assert self.parse(command) == RunConfig("s", "o")

    def test_every_field_has_a_flag(self):
        assert {f.name for f in fields(RunConfig)} == {"scenario", "out_dir"} | {row[2] for row in RUN_FLAGS}

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    @pytest.mark.parametrize("flag, arg, name, value", RUN_FLAGS)
    def test_flag_lands_in_its_field(self, command, flag, arg, name, value):
        extra = [flag] if arg is None else [flag, arg]
        assert self.parse(command, *extra) == replace(RunConfig("s", "o"), **{name: value})


# an edit of a saved two_person_scenario(duration=24) file: the key path, the
# value put there, and the text the error must show
BAD_SCENARIO_FIELDS = [
    pytest.param(("persons", 0, "waypoints", 0), [0], "waypoints", id="one_coordinate_waypoint"),
    pytest.param(("persons", 0, "waypoints", 0), [0.0, 0.0, 1.0], "waypoints", id="three_coordinate_waypoint"),
    pytest.param(("crossings",), [{"pair": [0], "start": 2, "end": 6}], "pair", id="one_person_crossing"),
    pytest.param(("noise",), None, "noise", id="null_noise"),
    pytest.param(("noise", "sigma_pse"), 0.1, "sigma_pse", id="misspelt_noise_key"),
    pytest.param(("persons", 1, "is_wearer"), "false", "is_wearer", id="string_is_wearer"),
    pytest.param(("duration",), 7.9, "duration must be an integer", id="fractional_duration"),
    pytest.param(("time_offset",), 1.5, "time_offset must be an integer", id="fractional_time_offset"),
    pytest.param(("persons", 1, "speed"), "fast", "speed", id="string_speed"),
    pytest.param(("persons", 1, "speed"), 10**400, "speed must be finite", id="speed_beyond_float"),
    pytest.param(("crosings",), [], "unknown keys 'crosings'", id="misspelt_top_level_key"),
    pytest.param(("time_ofset",), 3, "unknown keys 'time_ofset'", id="misspelt_time_offset"),
    pytest.param(("persons", 1, "heding"), 0.5, "unknown keys 'heding'", id="misspelt_person_key"),
    pytest.param(
        ("crossings",), [{"pair": [0, 1], "start": 2, "end": 6, "stop": 9}], "unknown keys 'stop'", id="crossing_key"
    ),
]


class TestCommandLine:
    @pytest.mark.parametrize("command", ["simulate", "evaluate"])
    @pytest.mark.parametrize("keys, value, text", BAD_SCENARIO_FIELDS)
    def test_misread_scenario_field_exit_two_naming_it(self, tmp_path, capsys, command, keys, value, text):
        path = write_scenario(tmp_path, cv.two_person_scenario(duration=24))
        obj = json.loads(path.read_text())
        target = obj
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        path.write_text(json.dumps(obj))
        code = main([command, "--scenario", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert text in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, option, extra",
        [
            ("evaluate", "--codebook-k", []),
            ("sweep", "--codebook-k", ["--sigma-pose", "0"]),
            ("fit-codebook", "--k", []),
        ],
    )
    def test_default_k_above_the_clip_count_names_the_option(self, tmp_path, capsys, command, option, extra):
        # the default preset gives 162 fit rows, fewer than the default k of 400
        path = write_scenario(tmp_path, cv.two_person_scenario())
        code = main([command, "--scenario", str(path), "--out", str(tmp_path / "out"), *extra])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{option} 400: need at least 400 clips to fit 400 clusters, got 162" in err
        assert "Traceback" not in err

    def test_evaluate_exit_zero(self, tmp_path, capsys):
        path = write_scenario(tmp_path, cv.two_person_scenario(duration=24, seed=0))
        code = main(
            [
                "evaluate",
                "--scenario",
                str(path),
                "--out",
                str(tmp_path / "out"),
                "--codebook-k",
                "8",
            ]
        )
        assert code == 0
        assert "accuracy=1.0000" in capsys.readouterr().out
        # sweep.csv is written by sweep only
        written = sorted(os.listdir(tmp_path / "out"))
        assert written == ["decisions.csv", "posteriors.csv", "report.json", "scores.csv"]

    def test_validation_error_exit_two(self, tmp_path, capsys):
        path = write_scenario(tmp_path, cv.two_person_scenario(duration=24))
        code = main(
            [
                "evaluate",
                "--scenario",
                str(path),
                "--out",
                str(tmp_path / "out"),
                "--alpha",
                "7",
            ]
        )
        assert code == 2
        assert "alpha" in capsys.readouterr().err

    def test_nan_scenario_field_exit_two(self, tmp_path, capsys):
        path = write_scenario(tmp_path, cv.two_person_scenario(duration=24))
        obj = json.loads(path.read_text())
        obj["persons"][1]["speed"] = float("nan")
        path.write_text(json.dumps(obj))
        code = main(["evaluate", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "speed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--tau", "nan", "tau"),
            ("--sigma", "nan", "sigma"),
            ("--sigma", "inf", "sigma"),
            ("--action-weight", "nan", "action_weight"),
            ("--sigma-p", "nan", "sigma_p"),
        ],
    )
    def test_non_finite_scoring_flag_exit_two(self, tmp_path, capsys, flag, value, field):
        path = write_scenario(tmp_path, cv.two_person_scenario(duration=24))
        code = main(["evaluate", "--scenario", str(path), "--out", str(tmp_path / "out"), flag, value])
        assert code == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sigma_p_whose_square_underflows_exit_two(self, tmp_path, capsys):
        # 2 sigma_p^2 is 0 at 1e-200: evaluate wrote NaN likelihoods to posteriors.csv and exited 0
        path = write_scenario(tmp_path, cv.two_person_scenario(duration=24))
        argv = ["evaluate", "--scenario", str(path), "--out", str(tmp_path / "out"), "--codebook-k", "8"]
        assert main(argv + ["--sigma-p", "1e-200"]) == 2
        assert "field 'sigma_p'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_io_error_exit_three(self, tmp_path, capsys):
        code = main(
            ["evaluate", "--scenario", str(tmp_path / "missing.json"), "--out", str(tmp_path / "out")]
        )
        assert code == 3

    def test_simulate_writes_scene(self, tmp_path):
        path = write_scenario(tmp_path, cv.two_person_scenario(duration=16, seed=0))
        out = tmp_path / "scene"
        assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["clip_count"] == 9

    @pytest.mark.parametrize(
        "change, text",
        [
            ({"accuracy": True}, "key 'accuracy' must be a number, got True"),
            ({"n_clips": 2.5}, "key 'n_clips' must be an integer, got 2.5"),
            ({"average_recall": None}, "key 'average_recall' must be a number, got None"),
            (None, "metrics must be an object, got None"),
        ],
        ids=["bool_accuracy", "fractional_n_clips", "null_recall", "null_metrics"],
    )
    def test_report_misread_metric_exit_two_naming_file_and_key(self, tmp_path, capsys, change, text):
        metrics = {"n_clips": 3, "accuracy": 0.5, "average_precision": 0.5, "average_recall": 0.5}
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"metrics": None if change is None else {**metrics, **change}}))
        assert main(["report", "--report", str(path)]) == 2
        captured = capsys.readouterr()
        assert text in captured.err and str(path) in captured.err
        assert captured.out == ""

    def test_fit_codebook_and_reuse(self, tmp_path, capsys):
        path = write_scenario(tmp_path, cv.two_person_scenario(duration=24, seed=0))
        cb_path = tmp_path / "cb.json"
        assert main(["fit-codebook", "--scenario", str(path), "--k", "8", "--out", str(cb_path)]) == 0
        assert (
            main(
                [
                    "evaluate",
                    "--scenario",
                    str(path),
                    "--codebook",
                    str(cb_path),
                    "--out",
                    str(tmp_path / "out"),
                ]
            )
            == 0
        )
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["metrics"]["accuracy"] == 1.0

    def test_fit_codebook_too_few_distinct_clips_exit_two(self, tmp_path, capsys):
        # three people standing still: 27 clips, but only 3 distinct ones
        persons = tuple(cv.PersonSpec(pid, ((3.0 * pid, 0.0),), 0.0, is_wearer=(pid == 0)) for pid in range(3))
        path = write_scenario(tmp_path, cv.Scenario(0, 16, persons))
        code = main(["fit-codebook", "--scenario", str(path), "--k", "4", "--out", str(tmp_path / "cb.json")])
        assert code == 2
        assert "need at least 4 distinct clips to fit 4 clusters, got 3" in capsys.readouterr().err
        assert not (tmp_path / "cb.json").exists()

    @pytest.mark.parametrize(
        "payload",
        [
            [[0.0] * 456],
            {"kind": "action_codebook", "dim": 456},
            {"kind": "action_codebook", "dim": 456, "centroids": [[0.0] * 456, [1.0] * 455]},
        ],
        ids=["json_list", "no_centroids", "ragged_centroids"],
    )
    def test_malformed_codebook_file_exit_two_naming_file_and_centroids(self, tmp_path, capsys, payload):
        path = write_scenario(tmp_path, cv.two_person_scenario(duration=24, seed=0))
        cb_path = tmp_path / "cb.json"
        cb_path.write_text(json.dumps(payload))
        code = main(["evaluate", "--scenario", str(path), "--codebook", str(cb_path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert str(cb_path) in err and "centroids" in err

    def test_non_json_codebook_file_exit_two_naming_it(self, tmp_path, capsys):
        path = write_scenario(tmp_path, cv.two_person_scenario(duration=24, seed=0))
        cb_path = tmp_path / "bad.json"
        cb_path.write_text("{not json")
        code = main(["evaluate", "--scenario", str(path), "--codebook", str(cb_path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert str(cb_path) in err and "Traceback" not in err

    @pytest.mark.parametrize("option", ["--scenario", "--codebook"])
    def test_non_utf8_file_exit_two_naming_it(self, tmp_path, capsys, option):
        # a UTF-16 byte-order mark is not UTF-8
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        files = {"--scenario": write_scenario(tmp_path, cv.two_person_scenario(duration=24, seed=0))}
        files[option] = bad
        argv = ["evaluate", "--scenario", str(files["--scenario"]), "--out", str(tmp_path / "out")]
        if option == "--codebook":
            argv += ["--codebook", str(bad)]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert str(bad) in err and "UTF-8" in err and "Traceback" not in err

    def test_report_command_prints_table(self, tmp_path, capsys):
        path = write_scenario(tmp_path, cv.two_person_scenario(duration=24, seed=0))
        main(["evaluate", "--scenario", str(path), "--out", str(tmp_path / "out"), "--codebook-k", "8"])
        capsys.readouterr()
        code = main(["report", "--report", str(tmp_path / "out" / "report.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy" in out and "average precision" in out

    @pytest.mark.parametrize(
        "payload, key",
        [
            ({"schema_version": 1, "kind": "action_codebook", "k": 1, "centroids": [[0.0] * 456]}, "'metrics'"),
            ({"schema_version": 1}, "'metrics'"),
            ({"metrics": {"n_clips": 3, "accuracy": 0.5}}, "'average_precision'"),
            ([], "is not a metrics report"),
            (
                {"metrics": {"n_clips": 3, "accuracy": "x", "average_precision": 0.5, "average_recall": 0.5}},
                "key 'accuracy' must be a number, got 'x'",
            ),
        ],
    )
    def test_report_lacking_a_key_exit_two(self, tmp_path, capsys, payload, key):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(payload))
        assert main(["report", "--report", str(path)]) == 2
        captured = capsys.readouterr()
        assert key in captured.err
        assert captured.out == ""

    # the last three lists name one point directory twice (sigma_pose_0, sigma_pose_0, sigma_pose_0.01)
    @pytest.mark.parametrize("values", ["0,0.05,-1", "0,nan", "0,abc", "0,0", "0,-0", "0.0100001,0.01000012"])
    def test_sweep_bad_sigma_pose_exit_two_before_any_point(self, tmp_path, capsys, values):
        path = write_scenario(tmp_path, cv.two_person_scenario(duration=24, seed=0, noise=NOISE))
        out = tmp_path / "sw"
        code = main(
            ["sweep", "--scenario", str(path), "--out", str(out), "--codebook-k", "8", "--sigma-pose", values]
        )
        assert code == 2
        assert "sigma_pose" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_colliding_point_directories_name_both_values(self, tmp_path, capsys):
        path = write_scenario(tmp_path, cv.two_person_scenario(duration=24, seed=0, noise=NOISE))
        argv = ["sweep", "--scenario", str(path), "--out", str(tmp_path / "sw"), "--codebook-k", "8"]
        assert main(argv + ["--sigma-pose", "0.02,0.0100001,0.01000012"]) == 2
        err = capsys.readouterr().err
        assert "0.0100001" in err and "0.01000012" in err and "sigma_pose_0.01" in err

    def test_sweep_command(self, tmp_path, capsys):
        path = write_scenario(tmp_path, cv.two_person_scenario(duration=24, seed=0, noise=NOISE))
        code = main(
            [
                "sweep",
                "--scenario",
                str(path),
                "--out",
                str(tmp_path / "sw"),
                "--codebook-k",
                "8",
                "--sigma-pose",
                "0,0.05",
            ]
        )
        assert code == 0
        assert (tmp_path / "sw" / "sweep.csv").exists()


# per reader: the file it reads, the command that reads it (None: load_scene is
# called), and a JSON object lacking the first key the reader requires
READERS = {
    "scenario": ("scenario.json", ["evaluate", "--scenario", "{file}", "--codebook-k", "8"], {}, "seed"),
    "codebook": (
        "codebook.json",
        ["evaluate", "--scenario", "{scenario}", "--codebook", "{file}"],
        {"kind": "action_codebook"},
        "dim",
    ),
    "scene_manifest": ("scene/manifest.json", None, {}, "clip_ids"),
    "clip_file": ("scene/clip_00002.json", None, {}, "clip_id"),
    "report": ("report.json", ["report", "--report", "{file}"], {}, "metrics"),
}
BAD_FILES = {
    "missing": None,
    "not_utf8": b"\xff\xfe{}",  # a UTF-16 byte-order mark
    "not_json": b"{not json",
    "json_list": b"[1]",
}


class TestReadersNameTheFile:
    """Every JSON file the package reads fails the same way: OSError (exit 3) or ValueError (exit 2), naming it."""

    @pytest.mark.parametrize("bad", [*BAD_FILES, "lacks_a_key"])
    @pytest.mark.parametrize("reader", READERS)
    def test_bad_file_named_without_traceback(self, tmp_path, capsys, reader, bad):
        name, argv, lacking, key = READERS[reader]
        scenario = write_scenario(tmp_path, cv.two_person_scenario(duration=16, seed=0), name="valid_scenario.json")
        # the scene directory as simulate writes it, with the file under test replaced
        assert main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "scene")]) == 0
        path = tmp_path / name
        path.unlink(missing_ok=True)
        content = BAD_FILES.get(bad, json.dumps(lacking).encode("utf-8"))
        if content is not None:
            path.write_bytes(content)
        want = OSError if content is None else ValueError
        if argv is None:
            with pytest.raises(want) as info:
                load_scene(tmp_path / "scene")
            assert type(info.value) is want
            message = str(info.value)
        else:
            argv = [a.format(file=path, scenario=scenario) for a in argv]
            code = main(argv + ([] if argv[0] == "report" else ["--out", str(tmp_path / "out")]))
            assert code == (3 if want is OSError else 2)
            message = capsys.readouterr().err
        assert str(path) in message and "Traceback" not in message
        if bad == "lacks_a_key":
            assert f"lacks the key '{key}'" in message
