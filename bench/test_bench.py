"""Tests of the benchmark's own checks and a tiny-spec run of the whole command.

Run from the repository root: python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import dataclasses
import json
import shutil

import numpy as np
import pytest

import checks
import run
import tracer

TINY = run.Workload("tiny-daily", 35, 1440, "monthly", lags=False)
TINY_LAG = run.Workload("tiny-lag", 3, 60, "monthly", lags=True)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One real run of the program on a 35-day input: (csv, out dir)."""
    work = tmp_path_factory.mktemp("tiny")
    log = work / "log.txt"
    csv_path = work / "input.csv"
    assert run.run_process(run.cli(*TINY.synth_args(5, csv_path)), log).code == 0
    out = work / "out"
    assert run.run_process(run.cli(*TINY.run_args(csv_path, out)), log).code == 0
    return csv_path, out


@pytest.fixture
def out(artifacts, tmp_path):
    """A private copy of the run's artifacts that a test may tamper with."""
    copy = tmp_path / "out"
    shutil.copytree(artifacts[1], copy)
    return copy


@pytest.fixture(scope="module")
def ref(artifacts):
    return checks.bucket_means(artifacts[0], TINY.granularity)


def problems(out, ref, spec=TINY.spec()):
    return checks.check_run(out, spec, ref).problems


def edit_csv_cell(path, row, col, fn):
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[row].rstrip("\r\n").split(",")
    cells[col] = fn(cells[col])
    lines[row] = ",".join(cells) + "\r\n"
    path.write_text("".join(lines))


def edit_json(path, fn):
    doc = json.loads(path.read_text())
    fn(doc)
    path.write_text(json.dumps(doc))


def test_untouched_artifacts_pass(out, ref):
    assert problems(out, ref) == []


def test_perturbed_actual_is_rejected(out, ref):
    edit_csv_cell(out / "predictions.csv", 1, 1, lambda v: repr(float(v) * (1 + 1e-7)))
    assert any(p.startswith("actual:") for p in problems(out, ref))


def test_wrong_blend_weight_is_rejected(out, ref):
    def swap(doc):
        w = doc["weights"]
        w["random_forest"], w["gradient_boosting"] = w["gradient_boosting"], w["random_forest"]

    edit_json(out / "blend_weights.json", swap)
    found = problems(out, ref)
    assert any("proportional" in p for p in found)
    assert any("weighted sum" in p for p in found)


def test_weights_not_summing_to_one_are_rejected(out, ref):
    edit_json(out / "blend_weights.json", lambda d: d["weights"].update(random_forest=0.9))
    assert any("sum to" in p for p in problems(out, ref))


def test_edited_rmse_is_rejected(out, ref):
    edit_json(
        out / "reports.json",
        lambda d: d["gradient_boosting"].update(rmse=d["gradient_boosting"]["rmse"] * 1.001),
    )
    assert any("gradient_boosting: reported RMSE" in p for p in problems(out, ref))


def test_edited_mae_is_rejected(out, ref):
    edit_json(out / "reports.json", lambda d: d["random_forest"].update(mae=0.5))
    assert any("random_forest: reported MAE" in p for p in problems(out, ref))


def test_blend_worse_than_both_models_is_rejected():
    pred = checks.Predictions(
        ["2015-01-01T00:00"],
        {c: np.ones(1) for c in ("actual", "pred_rf", "pred_gbt", "pred_blend")},
    )
    doc = {
        "weights": {"random_forest": 0.5, "gradient_boosting": 0.5},
        "validation_rmse": {"random_forest": 1.0, "gradient_boosting": 1.0},
    }
    reports = {"random_forest": {"rmse": 1.0}, "gradient_boosting": {"rmse": 2.0},
               "weighted_ensemble": {"rmse": 2.5}}
    assert any("exceeds both" in p for p in checks.check_blend(doc, reports, pred))


def test_missing_test_row_is_rejected(out, ref):
    path = out / "predictions.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    assert any("test rows per group" in p for p in problems(out, ref))


def test_out_of_order_test_rows_are_rejected(out, ref):
    path = out / "predictions.csv"
    lines = path.read_text().splitlines(keepends=True)
    lines[1], lines[2] = lines[2], lines[1]
    path.write_text("".join(lines))
    assert any("chronological" in p for p in problems(out, ref))


def test_tree_deeper_than_configured_is_rejected(out, ref):
    shallow = dataclasses.replace(TINY.spec(), max_depth=1)
    assert any("depth" in p and "> max_depth 1" in p for p in problems(out, ref, shallow))


def test_missing_tree_is_rejected(out, ref):
    edit_json(out / "forest.json", lambda d: d["trees"].pop())
    assert any("random_forest: 14 trees" in p for p in problems(out, ref))


def test_changed_model_file_changes_the_digest(out, artifacts):
    before = checks.digest(out)
    edit_json(out / "gbt.json", lambda d: d.update(base_score=d["base_score"] + 1))
    assert checks.digest(out) != before
    assert checks.digest(artifacts[1]) == before


def test_calendar_test_counts():
    """n - ceil(0.8 n) per month of 2015, per summer, per hourly month."""
    def count(workload):
        return sum(len(v) for v in checks.expected_test_stamps(workload.spec()).values())

    assert count(run.WORKLOADS["daily-year"]) == 71
    assert count(run.WORKLOADS["summer-daily-year"]) == 92 - 74
    assert count(run.WORKLOADS["hourly-lag-90d"]) == (744 - 596) * 2 + (672 - 538)


def test_missing_layer_function_is_reported_absent():
    assert not tracer._patch("loadcast.experiment", "no_such_function", lambda fn: fn)
    trace = {"spans": [], "sums": [], "counts": {}, "absent": ["readings.parse", "tree.best_split"]}
    shape = checks.ModelShape(1, 1)
    outcome = checks.Outcome([], (shape, shape), {"random_forest": 1.0, "gradient_boosting": 1.0})
    metrics = run.layer_metrics(trace, outcome, run.Process(0, 1.0, 1.0, 1.0))
    assert metrics["readings.parse_s"] is None
    assert metrics["tree.best_split_calls"] is None
    assert metrics["readings.rows"] is None
    assert metrics["readings.interpolate_s"] == 0


def test_metrics_and_workloads_match_benchmark_json():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"] for w in doc["workloads"]} <= set(run.WORKLOADS)


def test_median_over_rounds_keeps_counts_whole():
    assert run._median_or_none([525600, 525600]) == 525600
    assert isinstance(run._median_or_none([3, 4]), int)
    assert run._median_or_none([1.0, 2.0]) == 1.5
    assert run._median_or_none([None, None]) is None


@pytest.mark.parametrize("trace", ["0", "1"])
def test_whole_command_on_tiny_workloads(monkeypatch, capsys, trace):
    monkeypatch.setattr(run, "WORKLOADS", {w.name: w for w in (TINY, TINY_LAG)})
    units = run.PER_LAYER_UNITS if trace == "1" else run.END_TO_END_UNITS
    for name in ("tiny-daily", "tiny-lag"):
        code = run.main(["--workload", name, "--seed", "1", "--seconds", "1", "--trace", trace])
        assert code == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["attempted"] == (2 if trace == "1" else 1)
        assert list(result["metrics"]) == list(units)
        for metric in result["metrics"].values():
            assert isinstance(metric["value"], int if metric["unit"] == "count" else (int, float))


def test_command_fails_without_sources(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "daily-year", "--seed", "1", "--seconds", "1"]) == 2
