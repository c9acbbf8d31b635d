import csv
import dataclasses
import json
import os
import subprocess
import sys
from datetime import date, datetime
from pathlib import Path

import pytest

import loadcast
from loadcast import experiment
from loadcast.cli import main
from loadcast.ensembles import ForestConfig, GbtConfig
from loadcast.errors import ConfigError, DataError, InvariantError
from loadcast.experiment import (
    PREDICTION_COLUMNS,
    ExperimentConfig,
    emit_week_series,
    run_experiment,
)
from loadcast.splitting import SplitSpec
from loadcast.synthetic import SyntheticSpec, generate_synthetic
from loadcast.tree import TreeConfig


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


class TestRunExperiment:
    def test_reports_and_files(self, small_input, tmp_path):
        result = run_experiment(small_config(small_input, tmp_path / "out"))
        assert set(result.reports) == {
            "random_forest", "gradient_boosting", "weighted_ensemble",
        }
        for name in ("predictions", "metrics_csv", "metrics_txt", "reports",
                     "forest", "gbt", "weights", "scaler", "config"):
            assert result.files[name].exists()
        blend = result.reports["weighted_ensemble"].rmse
        worst = max(
            result.reports["random_forest"].rmse,
            result.reports["gradient_boosting"].rmse,
        )
        assert blend <= worst + 1e-9

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

    def test_no_scaler(self, small_input, tmp_path):
        result = run_experiment(
            small_config(small_input, tmp_path / "out", scaler=None)
        )
        assert "scaler" not in result.files

    def test_lagged_features_run(self, small_input, tmp_path):
        result = run_experiment(
            small_config(
                small_input, tmp_path / "out", lags=True, lag_offsets=(1, 2, 24)
            )
        )
        assert result.reports["weighted_ensemble"].rmse >= 0
        config = json.loads(result.files["config"].read_text())
        assert config["lags"] is True
        assert config["lag_offsets"] == [1, 2, 24]

    def test_lagged_run_checks_blend_convexity(self, small_input, tmp_path, monkeypatch):
        lagged = dict(lags=True, lag_offsets=(1, 24))
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
            gbt=GbtConfig(n_rounds=3, tree=tree, seed=5),
        )
        run_config = json.loads(run_experiment(config).files["config"].read_text())
        names = {f.name for f in dataclasses.fields(TreeConfig)}
        for model in ("forest", "gbt"):
            assert set(run_config[model]["tree"]) == names
            assert run_config[model]["tree"]["min_samples_split"] == 3
        assert run_config["gbt"]["seed"] == 5

    @pytest.mark.parametrize("offsets", [(0, 1), (-1, 2)])
    def test_lag_offsets_below_one_rejected(self, tmp_path, offsets):
        with pytest.raises(ConfigError, match="lag offsets must be >= 1"):
            small_config(tmp_path / "missing.csv", tmp_path / "out",
                         lags=True, lag_offsets=offsets)

    def test_scaler_fitted_on_training_only(self, small_input, tmp_path):
        result = run_experiment(small_config(small_input, tmp_path / "out"))
        scaler_text = result.files["scaler"].read_text()
        # day_of_year range stops where training data stops: 30-day input,
        # ordered split, validation tail inside training
        stats = dict(
            line.split(" = ") for line in scaler_text.splitlines() if "=" in line
        )
        assert float(stats["day_of_year.max"]) < 30

    def test_validation_fraction_bounds(self, small_input, tmp_path):
        with pytest.raises(ConfigError):
            small_config(small_input, tmp_path / "out", validation_fraction=0.6)


class TestWeekSeries:
    def test_extracts_window(self, small_input, tmp_path):
        result = run_experiment(small_config(small_input, tmp_path / "out"))
        with result.files["predictions"].open() as fh:
            first_ts = list(csv.reader(fh))[1][0]
        anchor = datetime.fromisoformat(first_ts)
        out = emit_week_series(
            result.files["predictions"], anchor, tmp_path / "week.csv"
        )
        with out.open() as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == PREDICTION_COLUMNS
        assert 1 <= len(rows) - 1 <= 168  # hourly granularity
        for row in rows[1:]:
            ts = datetime.fromisoformat(row[0])
            assert anchor <= ts and (ts - anchor).days < 7

    def test_empty_window(self, small_input, tmp_path):
        result = run_experiment(small_config(small_input, tmp_path / "out"))
        with pytest.raises(DataError, match="empty window"):
            emit_week_series(
                result.files["predictions"],
                datetime(2030, 1, 1),
                tmp_path / "week.csv",
            )


class TestCli:
    def test_synth_run_week_compare(self, tmp_path, capsys):
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
        with (out / "predictions.csv").open() as fh:
            anchor = list(csv.reader(fh))[1][0]
        assert main(["week", "--predictions", str(out / "predictions.csv"),
                     "--anchor", anchor, "--out", str(tmp_path / "w.csv")]) == 0
        assert (tmp_path / "w.csv").exists()
        assert main(["compare", str(out / "reports.json")]) == 0
        table = capsys.readouterr().out
        assert "RMSE" in table and "weighted_ensemble" in table

    def test_config_error_exit_code(self, tmp_path):
        assert main(["run", "--input", str(tmp_path / "x.csv"),
                     "--out-dir", str(tmp_path), "--granularity", "7"]) == 2

    @pytest.mark.parametrize("offsets", ["0,1", "-1,2", "1,x"])
    def test_bad_lag_offsets_exit_code(self, tmp_path, capsys, offsets):
        # the input does not exist: exit 2, not 3, shows nothing was read
        assert main(["run", "--input", str(tmp_path / "absent.csv"),
                     "--out-dir", str(tmp_path), "--lags",
                     f"--lag-offsets={offsets}"]) == 2
        assert "lag offsets" in capsys.readouterr().err

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

    def test_data_error_exit_code(self, tmp_path):
        assert main(["run", "--input", str(tmp_path / "absent.csv"),
                     "--out-dir", str(tmp_path)]) == 3

    def test_week_empty_window_exit_code(self, tmp_path):
        data = tmp_path / "d.csv"
        out = tmp_path / "run"
        main(["synth", "--out", str(data), "--days", "14", "--seed", "1"])
        main(["run", "--input", str(data), "--out-dir", str(out),
              "--granularity", "120", "--trees", "2", "--rounds", "3",
              "--rf-depth", "3", "--gbt-depth", "3"])
        assert main(["week", "--predictions", str(out / "predictions.csv"),
                     "--anchor", "2031-01-01",
                     "--out", str(tmp_path / "w.csv")]) == 3

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

    def test_env_var_default_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LOADCAST_OUT_DIR", str(tmp_path))
        assert main(["synth", "--days", "1", "--seed", "0"]) == 0
        assert (tmp_path / "synthetic.csv").exists()
