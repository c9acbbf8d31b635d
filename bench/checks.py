"""Correctness checks on the artifacts of one `loadcast run`.

Every expected value here is computed apart from the program: this module
never imports loadcast. It reads the generated minute CSV itself, repairs
nulls by its own linear interpolation in minute time, takes its own per-bucket
mean of the meter sum, works out the test timestamps from the calendar, and
recomputes RMSE, MAE and the blend from the written files.

Each check returns a list of problems; an empty list means it passed.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np

# relative tolerance for values the program and this module sum in a
# different order; float64 rounding stays many orders of magnitude below it
RTOL = 1e-9

PREDICTION_HEADER = ["timestamp", "actual", "pred_rf", "pred_gbt", "pred_blend"]
MODEL_COLUMNS = {
    "random_forest": "pred_rf",
    "gradient_boosting": "pred_gbt",
    "weighted_ensemble": "pred_blend",
}
# the files a run must write identically every time for the same inputs
DETERMINISTIC_FILES = ("forest.json", "gbt.json", "predictions.csv", "blend_weights.json")

SEASON_MONTHS = {
    "winter": (12, 1, 2),
    "spring": (3, 4, 5),
    "summer": (6, 7, 8),
    "autumn": (9, 10, 11),
}


@dataclass(frozen=True)
class RunSpec:
    """What a run was asked to do, as far as the checks need it."""

    start: date
    days: int
    granularity: int
    split: str  # "monthly" or "season:<name>"
    train_fraction: float
    n_trees: int
    n_rounds: int
    max_depth: int


@dataclass
class Reference:
    """Bucket means of the meter sum, keyed by bucket start (datetime64[m])."""

    starts: np.ndarray
    means: np.ndarray

    def lookup(self, stamps: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(self.starts, stamps)
        pos = np.minimum(pos, len(self.starts) - 1)
        if not (self.starts[pos] == stamps).all():
            raise KeyError("prediction timestamp is not a bucket of the input")
        return self.means[pos]


def bucket_means(csv_path, granularity: int) -> Reference:
    """Read the minute CSV, interpolate nulls per meter in minute time, sum the
    meters and average the sums per bucket of `granularity` minutes."""
    stamps, blocks, chunk = [], [], []
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            stamps.append(row[0])
            chunk.append([c or "nan" for c in row[1:]])
            if len(chunk) == 4096:  # convert as we go to keep memory small
                blocks.append(np.array(chunk, dtype=float))
                chunk = []
    if chunk:
        blocks.append(np.array(chunk, dtype=float))
    stamps = np.array(stamps, dtype="datetime64[m]")
    values = np.concatenate(blocks)
    n_meters = values.shape[1]

    t = (stamps - stamps[0]).astype(np.int64).astype(float)
    for j in range(n_meters):
        col = values[:, j]
        known = ~np.isnan(col)
        if not known.all():
            values[:, j] = np.where(known, col, np.interp(t, t[known], col[known]))
    total = values.sum(axis=1)

    # buckets tile the day and the epoch starts at midnight, so integer
    # division of epoch minutes gives the bucket within its day
    bucket = stamps.astype(np.int64) // granularity
    keys, inverse = np.unique(bucket, return_inverse=True)
    means = np.bincount(inverse, weights=total) / np.bincount(inverse)
    return Reference((keys * granularity).astype("datetime64[m]"), means)


def expected_test_stamps(spec: RunSpec) -> dict:
    """Test bucket starts per split group, from calendar arithmetic: each
    group keeps its first ceil(train_fraction * n) buckets for training."""
    groups: dict = {}
    per_day = 1440 // spec.granularity
    season = spec.split.split(":", 1)[1] if spec.split.startswith("season:") else None
    for d in range(spec.days):
        day = spec.start + timedelta(days=d)
        if season is not None and day.month not in SEASON_MONTHS[season]:
            continue
        key = (day.year, day.month) if spec.split == "monthly" else season
        midnight = datetime(day.year, day.month, day.day)
        groups.setdefault(key, []).extend(
            midnight + timedelta(minutes=b * spec.granularity) for b in range(per_day)
        )
    return {
        key: stamps[math.ceil(spec.train_fraction * len(stamps)):]
        for key, stamps in groups.items()
    }


@dataclass
class Predictions:
    stamps: list  # ISO strings as written
    columns: dict  # column name -> float array


def read_predictions(path) -> Predictions:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != PREDICTION_HEADER:
            raise ValueError(f"unexpected header {header}")
        rows = list(reader)
    if not rows:
        raise ValueError("no prediction rows")
    columns = {
        name: np.array([float(r[i]) for r in rows])
        for i, name in enumerate(PREDICTION_HEADER) if i > 0
    }
    return Predictions([r[0] for r in rows], columns)


def _close(a, b, atol=0.0) -> bool:
    return bool(np.allclose(a, b, rtol=RTOL, atol=atol))


def check_actuals(pred: Predictions, ref: Reference) -> list:
    stamps = np.array(pred.stamps, dtype="datetime64[m]")
    try:
        expected = ref.lookup(stamps)
    except KeyError as exc:
        return [f"actual: {exc}"]
    bad = ~np.isclose(pred.columns["actual"], expected, rtol=RTOL, atol=0.0)
    if bad.any():
        i = int(np.argmax(bad))
        return [
            f"actual: {int(bad.sum())} rows differ from the recomputed bucket "
            f"mean, first at {pred.stamps[i]}: {pred.columns['actual'][i]!r} "
            f"vs {expected[i]!r}"
        ]
    return []


def check_test_stamps(pred: Predictions, spec: RunSpec) -> list:
    problems = []
    stamps = [datetime.fromisoformat(s) for s in pred.stamps]
    if any(b <= a for a, b in zip(stamps, stamps[1:])):
        problems.append("test timestamps are not strictly chronological")
    expected = expected_test_stamps(spec)
    got: dict = {}
    for ts in stamps:
        key = (ts.year, ts.month) if spec.split == "monthly" else spec.split.split(":")[1]
        got[key] = got.get(key, 0) + 1
    counts = {k: len(v) for k, v in expected.items() if v}
    if got != counts:
        problems.append(f"test rows per group {got} != calendar {counts}")
    elif sorted(stamps) != sorted(s for v in expected.values() for s in v):
        problems.append("test timestamps are not the tail of each split group")
    return problems


def check_reports(reports: dict, pred: Predictions) -> list:
    problems = []
    actual = pred.columns["actual"]
    for model, column in MODEL_COLUMNS.items():
        entry = reports.get(model)
        if entry is None:
            problems.append(f"reports.json has no {model}")
            continue
        e = pred.columns[column] - actual
        rmse = math.sqrt(float(np.mean(e * e)))
        mae = float(np.mean(np.abs(e)))
        if entry.get("n_points") != len(actual):
            problems.append(f"{model}: n_points {entry.get('n_points')} != {len(actual)}")
        if not _close(entry.get("rmse", math.nan), rmse):
            problems.append(f"{model}: reported RMSE {entry.get('rmse')!r} != recomputed {rmse!r}")
        if not _close(entry.get("mae", math.nan), mae):
            problems.append(f"{model}: reported MAE {entry.get('mae')!r} != recomputed {mae!r}")
    return problems


def check_blend(weights_doc: dict, reports: dict, pred: Predictions) -> list:
    problems = []
    weights = weights_doc.get("weights", {})
    val_rmse = weights_doc.get("validation_rmse", {})
    models = ("random_forest", "gradient_boosting")
    if sorted(weights) != sorted(models) or sorted(val_rmse) != sorted(models):
        return [f"blend_weights.json names {sorted(weights)}, expected {sorted(models)}"]
    w = np.array([weights[m] for m in models], dtype=float)
    r = np.array([val_rmse[m] for m in models], dtype=float)
    if abs(w.sum() - 1.0) > 1e-12:
        problems.append(f"blend weights sum to {w.sum()!r}, not 1")
    if (w < 0).any():
        problems.append(f"negative blend weight {w.tolist()}")
    if (r > 0).all() and not _close(w * r, np.full(2, (w * r).mean())):
        problems.append(
            f"weights {w.tolist()} are not proportional to 1/validation RMSE {r.tolist()}"
        )
    blend = sum(weights[m] * pred.columns[MODEL_COLUMNS[m]] for m in models)
    scale = float(np.abs(pred.columns["actual"]).max())
    if not _close(pred.columns["pred_blend"], blend, atol=RTOL * scale):
        problems.append("pred_blend is not the weighted sum of pred_rf and pred_gbt")
    rmse = {m: reports.get(m, {}).get("rmse", math.nan) for m in MODEL_COLUMNS}
    if not rmse["weighted_ensemble"] <= max(rmse["random_forest"], rmse["gradient_boosting"]) + 1e-9:
        problems.append(f"blend RMSE exceeds both components: {rmse}")
    return problems


def tree_shape(node: dict, depth: int = 0):
    """(node count, depth, problems) of one serialized tree."""
    if node.get("kind") == "leaf":
        n = node.get("n_samples", 0)
        return 1, depth, ([] if n >= 1 else [f"leaf with {n} samples"])
    if node.get("kind") != "split":
        return 1, depth, [f"unknown node kind {node.get('kind')!r}"]
    nl, dl, pl = tree_shape(node["left"], depth + 1)
    nr, dr, pr = tree_shape(node["right"], depth + 1)
    return 1 + nl + nr, max(dl, dr), pl + pr


@dataclass
class ModelShape:
    nodes: int = 0
    single_leaf_trees: int = 0


def check_model(doc: dict, kind: str, n_trees: int, max_depth: int, problems: list) -> ModelShape:
    """Validate one model file against the configured limits; return its shape."""
    if doc.get("model") != kind:
        problems.append(f"{kind}: file holds model {doc.get('model')!r}")
    trees = doc.get("trees", [])
    if len(trees) != n_trees:
        problems.append(f"{kind}: {len(trees)} trees, configured {n_trees}")
    shape = ModelShape()
    for i, tree in enumerate(trees):
        nodes, depth, tree_problems = tree_shape(tree["root"])
        problems.extend(f"{kind} tree {i}: {p}" for p in tree_problems)
        if depth > max_depth:
            problems.append(f"{kind} tree {i}: depth {depth} > max_depth {max_depth}")
        shape.nodes += nodes
        shape.single_leaf_trees += nodes == 1
    return shape


def check_models(forest: dict, gbt: dict, spec: RunSpec) -> tuple:
    problems: list = []
    shapes = (
        check_model(forest, "random_forest", spec.n_trees, spec.max_depth, problems),
        check_model(gbt, "gradient_boosting", spec.n_rounds, spec.max_depth, problems),
    )
    return shapes, problems


def digest(out_dir) -> dict:
    return {
        name: hashlib.sha256((Path(out_dir) / name).read_bytes()).hexdigest()
        for name in DETERMINISTIC_FILES
    }


@dataclass
class Outcome:
    problems: list
    shapes: tuple = ()
    rmse: dict = None
    digest: dict = None


def check_run(out_dir, spec: RunSpec, ref: Reference) -> Outcome:
    """Run every per-run check on the artifacts in `out_dir`."""
    out_dir = Path(out_dir)
    try:
        pred = read_predictions(out_dir / "predictions.csv")
        reports = json.loads((out_dir / "reports.json").read_text())
        weights = json.loads((out_dir / "blend_weights.json").read_text())
        forest = json.loads((out_dir / "forest.json").read_text())
        gbt = json.loads((out_dir / "gbt.json").read_text())
        problems = (
            check_actuals(pred, ref)
            + check_test_stamps(pred, spec)
            + check_reports(reports, pred)
            + check_blend(weights, reports, pred)
        )
        shapes, model_problems = check_models(forest, gbt, spec)
        rmse = {m: reports[m]["rmse"] for m in MODEL_COLUMNS}
        files = digest(out_dir)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return Outcome([f"unreadable or malformed artifacts: {exc!r}"])
    return Outcome(problems + model_problems, shapes, rmse, files)
