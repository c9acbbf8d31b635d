import csv
import dataclasses
import json
import math
import os
import re
import signal
import subprocess
import sys
from datetime import date, datetime
from pathlib import Path

import numpy as np
import pytest

import loadcast
from loadcast import experiment
from loadcast.cli import main
from loadcast.blend import EnsembleWeights
from loadcast.ensembles import ForestConfig, GbtConfig, dump_model, load_model
from loadcast.errors import ConfigError, DataError, InvariantError
from loadcast.experiment import (
    PREDICTION_COLUMNS,
    ExperimentConfig,
    dump_json,
    run_experiment,
)
from loadcast.features import BASE_FEATURES, build_samples, default_lag_offsets
from loadcast.metrics import MetricsReport
from loadcast import readings as readings_module
from loadcast.readings import Granularity, aggregate, interpolate_nulls, parse_readings
from loadcast.splitting import SplitSpec, split, validation_split
from loadcast.synthetic import SyntheticSpec, generate_synthetic
from loadcast.tree import TreeConfig, fit_tree


@pytest.fixture(scope="module")
def small_input(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "readings.csv"
    spec = SyntheticSpec(
        start=date(2015, 1, 1), days=30, meters=2, noise_std=2.0,
        null_rate=0.005, seed=11,
    )
    generate_synthetic(spec, path)
    return path


def small_config(input_path, out_dir, **overrides):
    fast_tree = TreeConfig(max_depth=4)
    defaults = dict(
        input_path=input_path,
        out_dir=out_dir,
        granularity=60,
        split=SplitSpec("ordered"),
        forest=ForestConfig(n_trees=3, tree=fast_tree, seed=1),
        gbt=GbtConfig(n_rounds=10, tree=fast_tree),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def run_samples(config):
    """The samples run_experiment builds from config's input."""
    readings = interpolate_nulls(parse_readings(config.input_path.read_text()))
    granularity = Granularity(config.granularity)
    offsets = default_lag_offsets(granularity) if config.lags else None
    return build_samples(aggregate(readings, granularity), offsets, granularity)


class TestRunExperiment:
    def test_reports_and_files(self, small_input, tmp_path):
        result = run_experiment(small_config(small_input, tmp_path / "out"))
        assert set(result.reports) == {
            "random_forest", "gradient_boosting", "weighted_ensemble",
        }
        for name in ("predictions", "metrics_csv", "metrics_txt", "reports",
                     "forest", "gbt", "weights", "config"):
            assert result.files[name].exists()
        assert not (tmp_path / "out" / "scaler.json").exists()
        assert "scaler" not in json.loads(result.files["config"].read_text())
        blend = result.reports["weighted_ensemble"].rmse
        worst = max(
            result.reports["random_forest"].rmse,
            result.reports["gradient_boosting"].rmse,
        )
        assert blend <= worst + 1e-9

    def test_forest_splits_on_its_keyed_feature_draws(self, small_input, tmp_path):
        # node i of tree t may split only on the features drawn from the
        # stream keyed (seed, t, i), i the breadth-first id of the reloaded node
        forest = ForestConfig(n_trees=4, tree=TreeConfig(max_depth=6, min_gain=0.0), seed=5)
        result = run_experiment(small_config(small_input, tmp_path / "out", forest=forest))
        model = load_model(result.files["forest"].read_text())
        p = model.trees[0].n_features
        k = math.ceil(forest.feature_fraction * p)
        assert k < p
        checked = 0
        for t, tree in enumerate(model.trees):
            for i in np.flatnonzero(tree.feature >= 0).tolist():
                drawn = np.random.default_rng((5, t, i)).choice(p, size=k, replace=False)
                assert tree.feature[i] in drawn, (t, i)
                checked += 1
        assert checked > 100

    def test_artifacts_reload_to_the_same_bytes(self, small_input, tmp_path):
        # one serialization: each JSON artifact holds its object's fields, so
        # loading it through its class and dumping it again gives its bytes
        result = run_experiment(small_config(small_input, tmp_path / "out"))

        def load_reports(text):
            return {k: MetricsReport.from_dict(v) for k, v in json.loads(text).items()}

        round_trips = {
            "forest": (load_model, dump_model),
            "gbt": (load_model, dump_model),
            "weights": (lambda text: EnsembleWeights(**json.loads(text)), dump_json),
            "reports": (load_reports, dump_json),
        }
        for name, (load, dump) in round_trips.items():
            text = result.files[name].read_text()
            assert dump(load(text)) == text, name

    def test_prediction_csv_schema(self, small_input, tmp_path):
        result = run_experiment(small_config(small_input, tmp_path / "out"))
        with result.files["predictions"].open() as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == PREDICTION_COLUMNS
        assert all(len(r) == 5 for r in rows[1:])
        # ordered split of 720 hourly buckets: 20% test
        assert len(rows) - 1 == 144

    def test_determinism(self, small_input, tmp_path):
        r1 = run_experiment(small_config(small_input, tmp_path / "a"))
        r2 = run_experiment(small_config(small_input, tmp_path / "b"))
        for name in ("predictions", "forest", "gbt", "weights", "reports"):
            assert r1.files[name].read_bytes() == r2.files[name].read_bytes()

    def test_bad_granularity_rejected_before_work(self, tmp_path):
        with pytest.raises(ConfigError, match="does not divide 1440"):
            small_config(tmp_path / "missing.csv", tmp_path / "out", granularity=7)

    def test_missing_input_names_stage(self, tmp_path):
        config = small_config(tmp_path / "missing.csv", tmp_path / "out")
        with pytest.raises(DataError, match=r"\[read-input\]"):
            run_experiment(config)

    def test_single_season_predictions_in_season(self, tmp_path):
        path = tmp_path / "year.csv"
        generate_synthetic(
            SyntheticSpec(days=365, meters=1, noise_std=1.0, seed=3), path
        )
        config = small_config(
            path,
            tmp_path / "out",
            granularity=1440,
            split=SplitSpec("single_season", season="spring"),
        )
        result = run_experiment(config)
        with result.files["predictions"].open() as fh:
            rows = list(csv.reader(fh))[1:]
        for row in rows:
            assert datetime.fromisoformat(row[0]).month in (3, 4, 5)

    def test_lagged_features_run(self, small_input, tmp_path):
        result = run_experiment(small_config(small_input, tmp_path / "out", lags=True))
        assert result.reports["weighted_ensemble"].rmse >= 0
        config = json.loads(result.files["config"].read_text())
        assert config["lags"] is True

    def test_lagged_run_checks_blend_convexity(self, small_input, tmp_path, monkeypatch):
        lagged = dict(lags=True)
        result = run_experiment(small_config(small_input, tmp_path / "ok", **lagged))
        reports = result.reports
        assert reports["weighted_ensemble"].rmse <= max(
            reports["random_forest"].rmse, reports["gradient_boosting"].rmse
        ) + 1e-9
        # a blend outside its components' hull must trip the invariant
        monkeypatch.setattr(
            experiment, "predict_blend_many",
            lambda weights, preds: preds["random_forest"] + 1e3,
        )
        with pytest.raises(InvariantError, match="blend RMSE"):
            run_experiment(small_config(small_input, tmp_path / "bad", **lagged))

    def test_run_config_lists_every_tree_setting(self, small_input, tmp_path):
        tree = TreeConfig(max_depth=4, min_samples_split=3)
        config = small_config(
            small_input, tmp_path / "out",
            forest=ForestConfig(n_trees=2, tree=tree, seed=1),
            gbt=GbtConfig(n_rounds=3, tree=tree),
        )
        run_config = json.loads(run_experiment(config).files["config"].read_text())
        names = {f.name for f in dataclasses.fields(TreeConfig)}
        for model in ("forest", "gbt"):
            assert set(run_config[model]["tree"]) == names
            assert run_config[model]["tree"]["min_samples_split"] == 3
        # --seed seeds the forest only; boosting draws nothing
        assert run_config["forest"]["seed"] == 1
        assert "seed" not in run_config["gbt"]

    @pytest.mark.parametrize(
        "granularity, offsets", [(60, [24, 48, 168]), (1440, [1, 2, 7])]
    )
    def test_default_lagged_run_records_its_offsets(
        self, small_input, tmp_path, monkeypatch, granularity, offsets
    ):
        # a lagged run's lag columns read the target 1, 2 and 7 days back,
        # and run_config.json names no offsets or validation fraction
        built = []

        def spy(*args):
            built.append(build_samples(*args))
            return built[-1]

        monkeypatch.setattr(experiment, "build_samples", spy)
        config = small_config(
            small_input, tmp_path / "out", granularity=granularity, lags=True
        )
        run_config = json.loads(run_experiment(config).files["config"].read_text())
        assert run_config["lags"] is True
        assert not {"lag_offsets", "validation_fraction"} & set(run_config)
        (samples,) = built
        lags = samples.X[:, len(BASE_FEATURES):]
        assert lags.shape[1] == len(offsets)
        for column, k in zip(lags.T, offsets):
            assert column[k:].tolist() == samples.y[:-k].tolist(), k

    def test_lagged_predictions_are_batch_predictions(self, small_input, tmp_path):
        # validation and test rows read the observed lags of build_samples, so
        # each model scores the raw test rows in one predict_many call
        config = small_config(small_input, tmp_path / "out", lags=True)
        result = run_experiment(config)
        samples = run_samples(config)
        _, test = split(samples, config.split)
        X_test = samples.X[test]
        with result.files["predictions"].open() as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["actual"]) for r in rows] == samples.y[test].tolist()
        for column, name in (("pred_rf", "forest"), ("pred_gbt", "gbt")):
            model = load_model(result.files[name].read_text())
            expected = model.predict_many(X_test).tolist()
            assert [float(r[column]) for r in rows] == expected

    def test_calendar_splits_are_raw_midpoints(self, small_input, tmp_path):
        # the models fit the raw features: a calendar column holds whole
        # numbers, so each split sits halfway between two training values
        config = small_config(small_input, tmp_path / "out", lags=True)
        result = run_experiment(config)
        samples = run_samples(config)
        core, _ = validation_split(samples, config.split)
        lo, hi = samples.X[core].min(axis=0), samples.X[core].max(axis=0)
        checked = 0
        for name in ("forest", "gbt"):
            for tree in load_model(result.files[name].read_text()).trees:
                calendar = (tree.feature >= 0) & (tree.feature < len(BASE_FEATURES))
                feature, threshold = tree.feature[calendar], tree.threshold[calendar]
                assert (threshold * 2 == np.round(threshold * 2)).all(), name
                assert (lo[feature] < threshold).all() and (threshold < hi[feature]).all()
                checked += len(feature)
        assert checked > 50

    def test_byte_order_mark_gives_the_same_artifacts(self, small_input, tmp_path):
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + small_input.read_bytes())
        want = run_experiment(small_config(small_input, tmp_path / "plain"))
        got = run_experiment(small_config(marked, tmp_path / "marked"))
        del want.files["config"]  # run_config.json names the input
        for name, path in want.files.items():
            assert got.files[name].read_bytes() == path.read_bytes(), name

    @pytest.mark.parametrize("line_end", [b"\n", b"\r"])
    def test_line_ends_give_the_same_artifacts(self, small_input, tmp_path, line_end):
        # synth writes CRLF; an LF or a lone-CR copy must give the same bytes
        data = small_input.read_bytes()
        assert data.count(b"\r\n") == data.count(b"\n") > 1000
        copy = tmp_path / "copy.csv"
        copy.write_bytes(data.replace(b"\r\n", line_end))
        want = run_experiment(small_config(small_input, tmp_path / "crlf"))
        got = run_experiment(small_config(copy, tmp_path / "copy"))
        del want.files["config"]  # run_config.json names the input
        for name, path in want.files.items():
            assert got.files[name].read_bytes() == path.read_bytes(), name

    def test_cell_spellings_give_the_same_artifacts(self, small_input, tmp_path):
        # plain cells are read by digit arithmetic, these equal decimals by
        # numpy's string cast: 68.434 as 6.8434e1, 068.4340 and +68.434
        def respell(cell, k):
            if not cell or k == 0:
                return cell
            whole, frac = cell.split(b".")
            if k == 1:
                return whole[:-1] + b"." + whole[-1:] + frac + b"e1"
            return b"0" + cell + b"0" if k == 2 else b"+" + cell

        lines = small_input.read_bytes().split(b"\r\n")
        for i in range(1, len(lines)):
            stamp, *cells = lines[i].split(b",")
            lines[i] = b",".join(
                [stamp] + [respell(cell, (i + j) % 4) for j, cell in enumerate(cells)]
            )
        respelled = b"\r\n".join(lines)
        assert b"e1," in respelled and b",068." in respelled and b",+" in respelled
        copy = tmp_path / "respelled.csv"
        copy.write_bytes(respelled)
        want = run_experiment(small_config(small_input, tmp_path / "plain"))
        got = run_experiment(small_config(copy, tmp_path / "respelled"))
        for name in ("predictions", "forest", "gbt"):
            assert got.files[name].read_bytes() == want.files[name].read_bytes(), name


# one shallow tree and one round: each run takes milliseconds
TINY_MODELS = ["--trees", "1", "--rounds", "1", "--rf-depth", "2", "--gbt-depth", "2"]


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="forks only on Linux")
class TestModelWorker:
    """With a second usable CPU, the forest is fitted in a forked model
    worker while the boosted trees grow here; with one, in this process."""

    @pytest.fixture
    def worker_pids(self, monkeypatch):
        """Pids of the model workers the test starts; once it ends, no child
        of this process is left."""
        pids = []

        class Spy(experiment._ModelWorker):
            def __init__(self, job):
                super().__init__(job)  # in the worker, never returns
                pids.append(self.pid)

        monkeypatch.setattr(experiment, "_ModelWorker", Spy)
        yield pids
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_forked_and_inline_artifacts_are_identical(
        self, small_input, tmp_path, monkeypatch, worker_pids
    ):
        runs = {}
        for cpus in (2, 1):
            monkeypatch.setattr(experiment, "usable_cpus", lambda: cpus)
            config = small_config(small_input, tmp_path / str(cpus), lags=True)
            runs[cpus] = run_experiment(config).files
            assert len(worker_pids) == 1, cpus  # one worker, from the 2-CPU run
        del runs[2]["config"]  # run_config.json names the output directory
        for name, path in runs[2].items():
            assert runs[1][name].read_bytes() == path.read_bytes(), name

    @pytest.mark.parametrize("cpus", [2, 1])
    def test_data_error_in_the_worker_exit_code(
        self, small_input, tmp_path, capsys, monkeypatch, worker_pids, cpus
    ):
        def fit_forest(*args):
            raise DataError("cannot fit a forest on an empty sample set")

        monkeypatch.setattr(experiment, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(experiment, "fit_forest", fit_forest)
        code = main(["run", "--input", str(small_input), "--out-dir", str(tmp_path),
                     "--granularity", "60", *TINY_MODELS])
        assert code == 3
        assert capsys.readouterr().err == (
            "data error: [train-forest] cannot fit a forest on an empty sample set\n"
        )
        assert len(worker_pids) == (cpus > 1)
        assert not (tmp_path / "forest.json").exists()

    def test_killed_worker_exit_code(
        self, small_input, tmp_path, capsys, monkeypatch, worker_pids
    ):
        parent = os.getpid()

        def fit_forest(*args):
            assert os.getpid() != parent, "the forest was fitted in this process"
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(experiment, "usable_cpus", lambda: 2)
        monkeypatch.setattr(experiment, "fit_forest", fit_forest)
        code = main(["run", "--input", str(small_input), "--out-dir", str(tmp_path),
                     "--granularity", "60", *TINY_MODELS])
        assert code == 4
        assert capsys.readouterr().err == (
            "internal error: [train-forest] model worker was killed by signal "
            f"{int(signal.SIGKILL)} without a result\n"
        )
        assert len(worker_pids) == 1

    def test_interrupted_run_kills_its_worker(
        self, small_input, tmp_path, monkeypatch, worker_pids
    ):
        # interrupted while the worker waits for more trees: the worker is
        # killed and reaped (the fixture's check)
        def fit_gbt(X, y, config, on_tree):
            on_tree(fit_tree(X, y))
            raise KeyboardInterrupt

        monkeypatch.setattr(experiment, "usable_cpus", lambda: 2)
        monkeypatch.setattr(experiment, "fit_gbt", fit_gbt)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(small_config(small_input, tmp_path))
        assert len(worker_pids) == 1


class TestCli:
    def test_synth_run_compare(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        out = tmp_path / "run"
        assert main(["synth", "--out", str(data), "--days", "14", "--meters", "2",
                     "--noise-std", "1.5", "--seed", "4"]) == 0
        assert main([
            "run", "--input", str(data), "--out-dir", str(out),
            "--granularity", "60", "--split", "ordered", "--trees", "3",
            "--rf-depth", "3", "--gbt-depth", "3", "--rounds", "5",
            "--seed", "2",
        ]) == 0
        captured = capsys.readouterr().out
        assert "random_forest" in captured
        assert main(["compare", str(out / "reports.json")]) == 0
        table = capsys.readouterr().out
        assert "RMSE" in table and "weighted_ensemble" in table

    def test_compare_rejects_a_model_name_in_two_files(self, tmp_path, capsys):
        # compare's table has a row per model name, so two runs' reports,
        # which name the same three models, cannot share it
        report = ('{"rmse": 1, "mae": 1, "mad": 1, "mape": null, '
                  '"n_points": 2, "n_skipped_mape": 0}')
        first, second, other = (tmp_path / f"{n}.json" for n in ("a", "b", "c"))
        first.write_text(f'{{"m": {report}, "n": {report}}}')
        second.write_text(f'{{"m": {report}}}')
        other.write_text(f'{{"k": {report}}}')
        assert main(["compare", str(first), str(second)]) == 3
        assert capsys.readouterr().err == (
            f"data error: model 'm' is in both {first} and {second}\n"
        )
        assert main(["compare", "--csv", str(first), str(other)]) == 0
        assert capsys.readouterr().out.startswith("metric,m,n,k\n")

    def test_config_error_exit_code(self, tmp_path):
        assert main(["run", "--input", str(tmp_path / "x.csv"),
                     "--out-dir", str(tmp_path), "--granularity", "7"]) == 2

    @pytest.mark.parametrize(
        "flags",
        [
            pytest.param(["--lag-offsets", "1,2"], id="1,2"),
            pytest.param(["--lags", "--lag-offsets", "24"], id="lags-24"),
            pytest.param(["--validation-fraction", "0.2"], id="validation-fraction"),
            # every spelling, with --lags or without, is a usage error
            pytest.param(["--lags", "--lag-offsets=0,1"], id="0,1"),
            pytest.param(["--lags", "--lag-offsets=-1,2"], id="-1,2"),
            pytest.param(["--lags", "--lag-offsets=1,x"], id="1,x"),
            pytest.param(["--lags", "--lag-offsets=24,24"], id="24,24"),
            pytest.param(["--lag-offsets=24"], id="24-without-lags"),
            pytest.param(["--lags", "--lag-offsets="], id="empty"),
            pytest.param(["--lag-offsets=,"], id="comma-without-lags"),
        ],
    )
    def test_bad_lag_offsets_exit_code(self, tmp_path, capsys, flags):
        # lags always read the day-ahead offsets and the validation tail is
        # always a tenth, so run has neither option; the input does not
        # exist: exit 2, not 3, shows nothing was read
        out = tmp_path / "out"
        assert main(["run", "--input", str(tmp_path / "absent.csv"),
                     "--out-dir", str(out), *flags]) == 2
        removed = next(flag for flag in flags if flag != "--lags")
        assert f"unrecognized arguments: {removed}" in capsys.readouterr().err
        assert not out.exists()

    def test_utc_offset_timestamps_exit_code(self, tmp_path):
        data = tmp_path / "mixed.csv"
        data.write_text(
            "timestamp,a\n2015-01-01T00:00,1\n2015-01-01T00:01+00:00,2\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(loadcast.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "loadcast.cli", "run", "--input", str(data),
             "--out-dir", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert "UTC offset at row 3" in proc.stderr

    def test_negative_synth_seed_exit_code(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(loadcast.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "loadcast.cli", "synth", "--days", "1", "--seed", "-1",
             "--out", str(tmp_path / "x.csv")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr == "config error: seed must be non-negative, got -1\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", ["synth", "compare"])
    def test_synth_and_compare_load_no_model_module(self, tmp_path, command):
        reports = tmp_path / "reports.json"
        reports.write_text('{"m": {"rmse": 1, "mae": 1, "mad": 1, "mape": null, '
                           '"n_points": 2, "n_skipped_mape": 0}}')
        args = {"synth": ["synth", "--days", "1", "--out", str(tmp_path / "x.csv")],
                "compare": ["compare", str(reports)]}[command]
        script = (
            "import sys; from loadcast.cli import main; code = main(sys.argv[1:]); "
            "print(code, *(m for m in sys.modules if m.startswith('loadcast.')))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(loadcast.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script, *args],
                              capture_output=True, text=True, env=env, timeout=120)
        code, *modules = proc.stdout.splitlines()[-1].split()
        assert code == "0", proc.stderr
        model_code = {f"loadcast.{m}" for m in ("tree", "ensembles", "experiment", "blend")}
        assert not model_code & set(modules)
        assert ("loadcast.synthetic" in modules) == (command == "synth")
        assert ("loadcast.metrics" in modules) == (command == "compare")

    @pytest.mark.parametrize("reading, day, mean", [
        ("1e200", "2015-01-01", "2e+200"),  # finite, but its square overflows
        ("1.5e308", "2015-01-02", "inf"),  # the sum of two meters overflows
    ])
    def test_targets_too_large_to_fit_exit_code(self, tmp_path, reading, day, mean):
        # two meters, two daily buckets; the readings of `day` are `reading`
        data = tmp_path / "huge.csv"
        data.write_text("timestamp,a,b\n" + "".join(
            f"{stamp},{cell},{cell}\n"
            for stamp in ("2015-01-01T00:00", "2015-01-01T12:00",
                          "2015-01-02T00:00", "2015-01-02T12:00")
            for cell in [reading if stamp.startswith(day) else "1"]
        ))
        env = dict(os.environ, PYTHONPATH=str(Path(loadcast.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "loadcast.cli", "run", "--input", str(data),
             "--out-dir", str(tmp_path / "out"), "--granularity", "1440"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 3
        # the whole of stderr: no RuntimeWarning precedes the error
        assert proc.stderr == (
            f"data error: [aggregate] the bucket starting {day}T00:00 averages "
            f"{mean} kW, too large to fit a model on 2 buckets\n"
        )

    def test_defaults_come_from_the_dataclasses(self, tmp_path):
        data = tmp_path / "d.csv"
        generate_synthetic(SyntheticSpec(days=40, meters=1, seed=2), data)
        out = tmp_path / "run"
        assert main(["run", "--input", str(data), "--out-dir", str(out)]) == 0
        written = json.loads((out / "run_config.json").read_text())
        default = ExperimentConfig(input_path=str(data), out_dir=str(out))
        assert written == json.loads(dump_json(default))

    def test_synth_defaults_come_from_the_spec(self, tmp_path):
        one_day = dataclasses.replace(SyntheticSpec(), days=1)
        expected = generate_synthetic(one_day, tmp_path / "expected.csv")
        got = tmp_path / "got.csv"
        assert main(["synth", "--days", "1", "--out", str(got)]) == 0
        assert got.read_bytes() == expected.read_bytes()

    def test_header_only_input_is_a_parse_error(self, tmp_path, capsys):
        data = tmp_path / "header.csv"
        data.write_text("timestamp,a,b\n")
        assert main(["run", "--input", str(data), "--out-dir", str(tmp_path)]) == 3
        assert capsys.readouterr().err == (
            "data error: [parse] no data rows after the header\n"
        )

    def test_input_not_utf8_past_the_first_block(self, tmp_path, capsys):
        # the byte sits in a later parse block, after a row with a negative
        # reading: the input is still rejected as unreadable, with the
        # message and byte position of a whole-file text read
        data = tmp_path / "late.csv"
        generate_synthetic(SyntheticSpec(days=14, meters=6, seed=3), data)
        lines = data.read_bytes().split(b"\n")
        lines[2] = lines[2].split(b",")[0] + b",-1" * 6
        data.write_bytes(b"\n".join(lines) + b"\xff\n")
        assert data.stat().st_size > readings_module.BLOCK_BYTES
        with pytest.raises(UnicodeDecodeError) as text_read:
            data.read_text()
        assert main(["run", "--input", str(data), "--out-dir", str(tmp_path)]) == 3
        assert capsys.readouterr().err == (
            f"data error: [read-input] cannot read input {data}: {text_read.value}\n"
        )

    def test_data_error_exit_code(self, tmp_path):
        assert main(["run", "--input", str(tmp_path / "absent.csv"),
                     "--out-dir", str(tmp_path)]) == 3

    def test_lagged_run_over_a_missing_day_exit_code(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        assert main(["synth", "--out", str(data), "--days", "40", "--meters", "1",
                     "--seed", "3"]) == 0
        lines = data.read_bytes().split(b"\r\n")
        gapped = tmp_path / "gapped.csv"
        gapped.write_bytes(b"\r\n".join(
            line for line in lines if not line.startswith(b"2015-01-20")
        ))
        flags = ["--granularity", "1440", "--split", "ordered", *TINY_MODELS]
        lagged = ["--lags"]
        assert main(["run", "--input", str(gapped), "--out-dir",
                     str(tmp_path / "lagged"), *flags, *lagged]) == 3
        assert capsys.readouterr().err == (
            "data error: [features] no readings in the bucket starting "
            "2015-01-20T00:00: lagged features need every bucket from the first "
            "to the last\n"
        )
        assert main(["run", "--input", str(gapped), "--out-dir",
                     str(tmp_path / "plain"), *flags]) == 0
        assert main(["run", "--input", str(data), "--out-dir",
                     str(tmp_path / "whole"), *flags, *lagged]) == 0

    def test_config_file_supplies_flags(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        main(["synth", "--out", str(data), "--days", "14", "--seed", "9"])
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "granularity = 60\n"
            "split = ordered\n"
            "trees = 2\n"
            "rounds = 3\n"
            "rf-depth = 3\n"
            "gbt_depth = 3\n"  # both separators accepted
            "seed = 5\n"
        )
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg), "--input", str(data),
                     "--out-dir", str(out)]) == 0
        run_config = json.loads((out / "run_config.json").read_text())
        assert run_config["granularity"] == 60
        assert run_config["forest"]["n_trees"] == 2

    def test_flag_overrides_config_file(self, tmp_path):
        data = tmp_path / "d.csv"
        main(["synth", "--out", str(data), "--days", "14", "--seed", "9"])
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("granularity = 60\ntrees = 2\nrounds = 3\n")
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg), "--input", str(data),
                     "--out-dir", str(out), "--granularity", "120",
                     "--rf-depth", "3", "--gbt-depth", "3"]) == 0
        run_config = json.loads((out / "run_config.json").read_text())
        assert run_config["granularity"] == 120

    @pytest.mark.parametrize(
        "command, key",
        [("run", "tress"), ("run", "days"), ("synth", "trees"), ("run", "tree"),
         ("run", "scaler"), ("run", "gain_mode"), ("run", "mad_mode"),
         ("run", "lag_offsets"), ("run", "validation_fraction")],
    )
    def test_config_key_must_name_an_option(self, tmp_path, capsys, command, key):
        # "tree" would prefix-match --trees if it were passed on as a flag
        data = tmp_path / "d.csv"
        generate_synthetic(SyntheticSpec(days=14, meters=1, seed=4), data)
        cfg = tmp_path / "x.cfg"
        cfg.write_text(f"seed = 1\n{key} = 3\n")
        out = tmp_path / "out"
        flags = {
            "run": ["--input", str(data), "--out-dir", str(out), *TINY_MODELS],
            "synth": ["--days", "1", "--meters", "1", "--out", str(out)],
        }[command]
        assert main([command, "--config", str(cfg), *flags]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"config error: config file line 2: {command} has no option {key!r}\n"
        )

    @pytest.mark.parametrize(
        "line, message",
        [
            ("trees = x", "argument --trees: invalid int value: 'x'"),
            ("lags = maybe", "config file line 2: lags must be yes or no, got 'maybe'"),
        ],
    )
    def test_bad_config_value_is_reported_like_the_flag(self, tmp_path, capsys,
                                                        line, message):
        cfg = tmp_path / "x.cfg"
        cfg.write_text(f"# comment\n{line}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--input", str(tmp_path / "x.csv"),
                     "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_config_switches_and_flags_that_win(self, tmp_path):
        data = tmp_path / "d.csv"
        generate_synthetic(SyntheticSpec(days=14, meters=1, seed=4), data)
        cfg = tmp_path / "x.cfg"
        cfg.write_text("lags = yes\nbootstrap = off\ngranularity = 60\nsplit = ordered\n")
        written = {}
        for name, flags in (("file", []), ("flags", ["--no-lags", "--bootstrap"])):
            out = tmp_path / name
            assert main(["run", "--config", str(cfg), "--input", str(data),
                         "--out-dir", str(out), *TINY_MODELS, *flags]) == 0
            written[name] = json.loads((out / "run_config.json").read_text())
        assert written["file"]["lags"] is True
        assert written["file"]["forest"]["bootstrap"] is False
        assert written["flags"]["lags"] is False
        assert written["flags"]["forest"]["bootstrap"] is True

    def test_readme_config_block_runs(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        (block,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
        cfg = tmp_path / "paper.cfg"
        cfg.write_text(block)
        data = tmp_path / "d.csv"
        generate_synthetic(SyntheticSpec(days=62, meters=1, seed=4), data)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--input", str(data),
                     "--out-dir", str(out), *TINY_MODELS]) == 0
        # every line of the block took effect, except those the flags override
        expected = ExperimentConfig(
            input_path=data, out_dir=out, granularity=1440,
            split=SplitSpec("monthly", train_fraction=0.8), lags=False,
            forest=ForestConfig(n_trees=1, seed=3,
                                tree=TreeConfig(max_depth=2, min_gain=0.2)),
            gbt=GbtConfig(n_rounds=1, shrinkage=0.1,
                          tree=TreeConfig(max_depth=2, min_gain=0.2)),
        )
        assert (out / "run_config.json").read_text() == dump_json(expected)

    def test_env_var_default_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LOADCAST_OUT_DIR", str(tmp_path))
        assert main(["synth", "--days", "1", "--seed", "0"]) == 0
        assert (tmp_path / "synthetic.csv").exists()


def _error_case(name, tmp_path):
    """CLI arguments of a failing command, built in tmp_path."""
    good = tmp_path / "good.csv"
    good.write_text("timestamp,a\n2015-01-01T00:00,1\n")
    if name == "out-dir-under-file":
        # the input does not exist either: exit 2 shows the directory is
        # checked before the input is read
        (tmp_path / "afile").write_text("")
        return ["run", "--input", str(tmp_path / "absent.csv"),
                "--out-dir", str(tmp_path / "afile" / "sub")]
    if name == "week-command-deleted":
        return ["week", "--predictions", str(tmp_path / "predictions.csv"),
                "--anchor", "2015-01-01"]
    if name == "synth-past-date-max":
        return ["synth", "--start", "9999-12-30", "--days", "5",
                "--out", str(tmp_path / "x.csv")]
    if name == "input-is-directory":
        return ["run", "--input", str(tmp_path), "--out-dir", str(tmp_path / "o")]
    if name == "input-not-utf8":
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"timestamp,a\n2015-01-01T00:00,\xff\n")
        return ["run", "--input", str(bad), "--out-dir", str(tmp_path / "o")]
    if name == "synth-out-in-missing-dir":
        return ["synth", "--days", "1", "--out", str(tmp_path / "nodir" / "x.csv")]
    if name == "synth-bad-start":
        return ["synth", "--days", "1", "--start", "2015-13-01",
                "--out", str(tmp_path / "x.csv")]
    if name in ("rf-min-gain-nan", "gbt-min-gain-inf"):
        flag = "--rf-min-gain" if name.startswith("rf") else "--gbt-min-gain"
        return ["run", "--input", str(good), "--out-dir", str(tmp_path / "o"),
                flag, name.rsplit("-", 1)[1]]
    if name.startswith("synth-non-finite-"):
        flag = "--" + name[len("synth-non-finite-"):]
        return ["synth", "--days", "1", flag, "nan", "--out", str(tmp_path / "x.csv")]
    if name == "predictions-path-is-directory":
        data = tmp_path / "d.csv"
        generate_synthetic(SyntheticSpec(days=14, meters=1, seed=4), data)
        (tmp_path / "out" / "predictions.csv").mkdir(parents=True)
        return ["run", "--input", str(data), "--out-dir", str(tmp_path / "out"),
                "--granularity", "120", "--trees", "2", "--rounds", "3",
                "--rf-depth", "3", "--gbt-depth", "3"]
    reports = tmp_path / "reports.json"
    if name == "compare-report-missing-fields":
        reports.write_text('{"m": {"mae": 1}}')
    elif name == "compare-report-not-object":
        reports.write_text("[1,2]")
    elif name == "compare-report-non-numeric-metric":
        fields = '"mae": 1, "mad": 1, "mape": null, "n_points": 2, "n_skipped_mape": 0'
        reports.write_text(
            f'{{"a": {{"rmse": 1, {fields}}}, "b": {{"rmse": "x", {fields}}}}}'
        )
    return ["compare", str(reports)]


@pytest.mark.parametrize(
    "name, code",
    [
        ("out-dir-under-file", 2),
        ("input-is-directory", 3),
        ("input-not-utf8", 3),
        ("synth-out-in-missing-dir", 2),
        ("synth-bad-start", 2),
        ("compare-report-missing-fields", 3),
        ("compare-report-not-object", 3),
        ("compare-report-non-numeric-metric", 3),
        ("predictions-path-is-directory", 2),
        ("rf-min-gain-nan", 2),
        ("gbt-min-gain-inf", 2),
        ("synth-non-finite-noise-std", 2),
        ("synth-non-finite-base-kw", 2),
        ("week-command-deleted", 2),
        ("synth-past-date-max", 2),
    ],
)
def test_failure_exit_codes_without_traceback(tmp_path, name, code):
    env = dict(os.environ, PYTHONPATH=str(Path(loadcast.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "loadcast.cli", *_error_case(name, tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    # a failing synth writes nothing
    assert not (tmp_path / "x.csv").exists()
