"""End-to-end experiment harness.

Runs the full pipeline: parse -> repair nulls -> aggregate -> featurize ->
split -> train forest and boosted trees -> fit blend weights on the
validation rows, the last tenth of each split group's training rows ->
predict the test set -> evaluate.
Writes the comparison table, a per-test-point prediction CSV, and the fitted
model artifacts. Fully reproducible given the seed.

The two fits do not depend on each other. With a second usable CPU, a forked
model worker fits the forest, predicts with it and writes its model text,
then encodes each boosted tree as this process grows it; the bytes are those
of fitting both here, one after the other.
"""
from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import pickle
import signal
import threading
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .blend import EnsembleWeights, fit_weights, predict_blend_many
from .ensembles import ForestConfig, GbtConfig, dump_model, fit_forest, fit_gbt
from .errors import ConfigError, DataError, InvariantError, LoadcastError
from .features import build_samples, default_lag_offsets
from .metrics import ComparisonTable, compare_models, compute_metrics
from .readings import (
    Granularity,
    aggregate,
    interpolate_nulls,
    parse_readings,
    usable_cpus,
)
from .splitting import SplitSpec, split, validation_split
from .tree import dump_tree

MODEL_RF = "random_forest"
MODEL_GBT = "gradient_boosting"
MODEL_BLEND = "weighted_ensemble"

PREDICTION_COLUMNS = ("timestamp", "actual", "pred_rf", "pred_gbt", "pred_blend")


@dataclass
class ExperimentConfig:
    input_path: Path
    out_dir: Path
    granularity: int = 1440
    split: SplitSpec = field(default_factory=SplitSpec)
    # with lags, each row reads the observed target 1, 2 and 7 days back
    # (default_lag_offsets), so a lagged run forecasts one day ahead
    lags: bool = False
    forest: ForestConfig = field(default_factory=ForestConfig)
    gbt: GbtConfig = field(default_factory=GbtConfig)

    def __post_init__(self):
        self.input_path = Path(self.input_path)
        self.out_dir = Path(self.out_dir)
        Granularity(self.granularity)  # rejects a bad one before any work


@dataclass
class ExperimentResult:
    reports: dict  # model name -> MetricsReport
    table: ComparisonTable
    weights: EnsembleWeights
    out_dir: Path
    files: dict  # logical name -> Path


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except LoadcastError as exc:
        raise type(exc)(f"[{name}] {exc}") from exc


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    granularity = Granularity(config.granularity)

    def make_out_dir():
        try:
            config.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory: {exc}")

    def unreadable(exc):
        return DataError(f"cannot read input {config.input_path}: {exc}")

    def read_input():
        if not config.input_path.exists():
            raise DataError(f"input file not found: {config.input_path}")
        try:
            return config.input_path.read_bytes()
        except OSError as exc:
            raise unreadable(exc)

    _stage("out-dir", make_out_dir)
    try:
        # no name holds the input's bytes, so they are freed once parsed
        readings = _stage("parse", parse_readings, _stage("read-input", read_input))
    except UnicodeDecodeError as exc:  # parse_readings checks for UTF-8 first
        raise DataError(f"[read-input] {unreadable(exc)}")
    readings = _stage("interpolate", interpolate_nulls, readings)
    buckets = _stage("aggregate", aggregate, readings, granularity)
    offsets = default_lag_offsets(granularity) if config.lags else None
    samples = _stage("features", build_samples, buckets, offsets, granularity)
    # validation_split gives the rows to fit on; split is still called for
    # the test rows, and bench/tracer.py reads its return value for the
    # splitting.train_n and test_n counts
    _, test = _stage("split", split, samples, config.split)
    if len(test) == 0:
        raise DataError("[split] empty test set")
    train_core, validation = _stage("split", validation_split, samples, config.split)

    X = samples.X
    X_core, y_core = X[train_core], samples.y[train_core]
    X_val, y_val = X[validation], samples.y[validation]
    X_test, y_test = X[test], samples.y[test]

    val_rf, pred_rf, val_gbt, pred_gbt, forest_text, gbt_text = _fit_models(
        X_core, y_core, X_val, X_test, config
    )
    weights = _stage(
        "blend", fit_weights, {MODEL_RF: val_rf, MODEL_GBT: val_gbt}, y_val
    )
    pred_blend = predict_blend_many(
        weights, {MODEL_RF: pred_rf, MODEL_GBT: pred_gbt}
    )

    reports = {
        MODEL_RF: compute_metrics(y_test, pred_rf),
        MODEL_GBT: compute_metrics(y_test, pred_gbt),
        MODEL_BLEND: compute_metrics(y_test, pred_blend),
    }
    table = compare_models(reports)

    # the blend is a convex combination of the two prediction arrays, so its
    # RMSE cannot exceed the worse component's
    bound = max(reports[MODEL_RF].rmse, reports[MODEL_GBT].rmse) + 1e-9
    if reports[MODEL_BLEND].rmse > bound:
        raise InvariantError(
            f"blend RMSE {reports[MODEL_BLEND].rmse} exceeds component "
            f"bound {bound}"
        )

    texts = {
        "predictions": ("predictions.csv", _predictions_csv(
            samples.timestamps[test], y_test, pred_rf, pred_gbt, pred_blend
        )),
        "metrics_csv": ("metrics.csv", table.to_csv()),
        "metrics_txt": ("metrics.txt", table.to_text()),
        "reports": ("reports.json", dump_json(reports)),
        "forest": ("forest.json", forest_text),
        "gbt": ("gbt.json", gbt_text),
        "weights": ("blend_weights.json", dump_json(weights)),
        "config": ("run_config.json", dump_json(config)),
    }
    files = _stage("write-output", _write_outputs, config.out_dir, texts)
    return ExperimentResult(
        reports=reports,
        table=table,
        weights=weights,
        out_dir=config.out_dir,
        files=files,
    )


def _fit_models(X_core, y_core, X_val, X_test, config: ExperimentConfig):
    """Both models' predictions of the validation and test rows and their
    model texts: (val_rf, pred_rf, val_gbt, pred_gbt, forest_text, gbt_text).

    When `_may_fork`, a `_ModelWorker` runs `_forest_work` while this process
    grows the boosted trees and sends it each one as it is grown. Otherwise
    `_forest_work` runs here, after the boosted fit, on the fitted trees."""
    job = (X_core, y_core, X_val, X_test, config.forest)
    try:
        worker = _ModelWorker(job) if _may_fork() else None
    except OSError:  # no pipe or process to spare: both fits run here
        worker = None
    if worker is None:
        gbt = _stage("train-gbt", fit_gbt, X_core, y_core, config.gbt)
        val_gbt, pred_gbt = gbt.predict_many(X_val), gbt.predict_many(X_test)
        val_rf, pred_rf, forest_text, tree_texts = _forest_work(*job, gbt.trees)
    else:
        try:
            try:
                gbt = _stage(
                    "train-gbt", fit_gbt, X_core, y_core, config.gbt, on_tree=worker.send
                )
                worker.send(None)
            except BrokenPipeError:  # the worker has ended: its result says why
                worker.result()
                raise InvariantError("[train-forest] model worker ended before its last tree")
            val_gbt, pred_gbt = gbt.predict_many(X_val), gbt.predict_many(X_test)
            val_rf, pred_rf, forest_text, tree_texts = worker.result()
        finally:
            worker.close()
    return val_rf, pred_rf, val_gbt, pred_gbt, forest_text, dump_model(gbt, tree_texts)


def _forest_work(X_core, y_core, X_val, X_test, config: ForestConfig, gbt_trees):
    """The model worker's job: the forest's fit, its predictions and its
    model text, then each boosted tree of `gbt_trees` encoded as it comes.
    Returns (val_rf, pred_rf, forest_text, gbt_tree_texts)."""
    forest = _stage("train-forest", fit_forest, X_core, y_core, config)
    val_rf, pred_rf = forest.predict_many(X_val), forest.predict_many(X_test)
    return val_rf, pred_rf, dump_model(forest), [dump_tree(tree) for tree in gbt_trees]


def _may_fork() -> bool:
    """Whether the forest is fitted in a forked worker: where the platform
    has CPU affinity (Linux), this process may use a second CPU, and it runs
    one thread, since a fork copies only the calling thread. The parse's
    pool has shut down by the time the models are fitted."""
    return (
        hasattr(os, "sched_getaffinity")
        and usable_cpus() >= 2
        and threading.active_count() == 1
    )


# the size asked for the tree pipe: about 40 boosted trees of about 15 kB
# each are grown on a daily year while the worker still fits the forest, and
# the default 64 KiB pipe would block their sender; 1 MiB is the largest an
# unprivileged process may ask for by Linux's default pipe-max-size
TREE_PIPE_BYTES = 1 << 20


class _ModelWorker:
    """A forked process that runs `_forest_work(*job, trees)` on the trees
    `send` hands it, then sends back its result or its exception."""

    def __init__(self, job):
        import fcntl  # Unix only, as fork is

        fds = []
        try:
            fds += os.pipe()  # the trees, to the worker
            fds += os.pipe()  # its result, back
            tree_r, self._tree_w, self._result_r, result_w = fds
            try:
                fcntl.fcntl(self._tree_w, fcntl.F_SETPIPE_SZ, TREE_PIPE_BYTES)
            except (AttributeError, OSError):  # keep the default size
                pass
            with warnings.catch_warnings():
                # Python 3.12 warns on a fork from a process with other OS
                # threads. numpy's OpenBLAS pool is one: it is idle, OpenBLAS
                # quiesces it across fork, and the worker calls no BLAS routine
                warnings.filterwarnings(
                    "ignore", r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)",
                    DeprecationWarning,
                )
                self.pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        if self.pid == 0:
            _worker_main(job, tree_r, result_w, (self._tree_w, self._result_r))
        os.close(tree_r)
        os.close(result_w)
        self._status = None  # the wait status, once reaped

    def send(self, tree) -> None:
        """Queue `tree` for the worker; None is the end marker. Raises
        BrokenPipeError once the worker has ended."""
        data = memoryview(pickle.dumps(tree))
        while data:
            data = data[os.write(self._tree_w, data):]

    def result(self):
        """The worker's result, read once; its exception is raised here. A
        worker that ended without one is an InvariantError."""
        with open(self._result_r, "rb", closefd=False) as pipe:
            try:
                result = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                _, self._status = os.waitpid(self.pid, 0)
                code = os.waitstatus_to_exitcode(self._status)
                how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
                raise InvariantError(f"[train-forest] model worker {how} without a result")
        if isinstance(result, BaseException):
            raise result
        return result

    def close(self) -> None:
        """Close the pipes, and kill the worker if it still runs; reap it."""
        os.close(self._tree_w)
        os.close(self._result_r)
        if self._status is None:
            os.kill(self.pid, signal.SIGKILL)  # a worker that has exited is unharmed
            _, self._status = os.waitpid(self.pid, 0)


def _worker_main(job, tree_r, result_w, inherited):
    """The forked worker's whole life. It ends in `os._exit`, so it never
    returns into the caller's stack or flushes stdio buffers it inherited."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        with open(tree_r, "rb") as trees, open(result_w, "wb") as out:
            try:
                result = _forest_work(*job, _received(trees))
            except BaseException as exc:  # raised again in the parent
                result = exc
            pickle.dump(result, out)
        code = 0
    finally:
        os._exit(code)


def _received(pipe):
    """The trees `_ModelWorker.send` wrote to `pipe`, up to the end marker."""
    while (tree := pickle.load(pipe)) is not None:
        yield tree


def dump_json(obj) -> str:
    """A JSON artifact of a run: dataclasses as their fields
    (`dataclasses.asdict`), paths as strings, keys sorted. Each reloads
    through its class, `cls(**json.loads(text))`."""
    return json.dumps(
        obj,
        sort_keys=True,
        default=lambda o: str(o) if isinstance(o, Path) else dataclasses.asdict(o),
    )


def _predictions_csv(timestamps, *columns) -> str:
    """The prediction CSV: one row per test point, each value as `repr`."""
    rows = io.StringIO()
    writer = csv.writer(rows)
    writer.writerow(PREDICTION_COLUMNS)
    for stamp, *values in zip(np.datetime_as_string(timestamps, unit="m"), *columns):
        writer.writerow([stamp, *(repr(float(v)) for v in values)])
    return rows.getvalue()


def _write_outputs(out_dir: Path, texts: dict) -> dict:
    """Writes each {name: (filename, text)} entry to out_dir and returns
    {name: path}."""
    files = {}
    for name, (filename, text) in texts.items():
        path = files[name] = out_dir / filename
        try:
            # newline="": the text is written as built, CSV line ends included
            path.write_text(text, newline="")
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc.strerror or exc}")
    return files

