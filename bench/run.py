"""Benchmark of the loadcast pipeline, end to end and per layer.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload generates its input CSV with `loadcast synth` from the seed,
then runs `loadcast run` on it in fresh processes, checks every run's
artifacts against values computed apart from the program (bench/checks.py),
and prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones, measured with tracing
off. With `--trace 1` each round runs the command once untraced and once under
bench/tracer.py, and the metrics are the per-layer ones; the spans, counts and
the tracing overhead go to bench/results/trace-<workload>-<seed>.json.

A round is one pipeline run (two with `--trace 1`). Rounds are started while
the rounds so far plus one more fit in S seconds; there is always at least
one. An operation is one `loadcast run`; it fails when the command exits
non-zero, when any check rejects its artifacts, or when its model and
prediction files differ from those of the run's first operation.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import checks

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# the paper's experiment (acceptance criterion 8): 6 meters with 1 % nulls;
# 15 trees of depth 10, min_gain 0.2; 100 boosting rounds, shrinkage 0.1
START = date(2015, 1, 1)
METERS = 6
NULL_RATE = 0.01
MODEL_SEED = 3
TREES, ROUNDS, DEPTH, MIN_GAIN, SHRINKAGE, TRAIN_FRACTION = 15, 100, 10, 0.2, 0.1, 0.8
MODEL_FLAGS = tuple(str(a) for a in (
    "--trees", TREES, "--rf-depth", DEPTH, "--rf-min-gain", MIN_GAIN,
    "--rounds", ROUNDS, "--shrinkage", SHRINKAGE,
    "--gbt-depth", DEPTH, "--gbt-min-gain", MIN_GAIN,
    "--train-fraction", TRAIN_FRACTION,
))
SETUP_REPEATS = 3
# commands still running this long after the benchmark started are killed and
# count as failed, so that the benchmark itself ends within three minutes
DEADLINE_S = 170


@dataclass(frozen=True)
class Workload:
    name: str
    days: int
    granularity: int
    split: str
    lags: bool

    def spec(self) -> checks.RunSpec:
        return checks.RunSpec(
            START, self.days, self.granularity, self.split, TRAIN_FRACTION, TREES, ROUNDS, DEPTH
        )

    def synth_args(self, seed: int, out: Path) -> list:
        return [
            "synth", "--out", str(out), "--start", START.isoformat(),
            "--days", str(self.days), "--meters", str(METERS),
            "--null-rate", str(NULL_RATE), "--seed", str(seed),
        ]

    def run_args(self, csv_path: Path, out_dir: Path) -> list:
        # no --lag-offsets: the lagged workload follows the program's defaults
        return [
            "run", "--input", str(csv_path), "--out-dir", str(out_dir),
            "--granularity", str(self.granularity), "--split", self.split,
            *MODEL_FLAGS, "--seed", str(MODEL_SEED),
            *(["--lags"] if self.lags else []),
        ]


# hourly-lag-90d is not in BENCHMARK.json: its rmse_blend is not steady across
# data seeds (see README.md); it stays runnable for traces of the fit-heavy path
WORKLOADS = {
    w.name: w
    for w in (
        Workload("daily-year", 365, 1440, "monthly", lags=False),
        Workload("summer-daily-year", 365, 1440, "season:summer", lags=False),
        Workload("hourly-lag-90d", 90, 60, "monthly", lags=True),
    )
}

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "rmse_blend": "kW"}
PER_LAYER_UNITS = {
    "readings.parse_s": "s",
    "readings.interpolate_s": "s",
    "readings.aggregate_s": "s",
    "readings.rows": "count",
    "readings.buckets": "count",
    "features.build_s": "s",
    "features.samples": "count",
    "splitting.train_n": "count",
    "splitting.test_n": "count",
    "ensembles.fit_forest_s": "s",
    "ensembles.fit_gbt_s": "s",
    "tree.best_split_calls": "count",
    "tree.best_split_s": "s",
    "tree.forest_nodes": "count",
    "tree.gbt_nodes": "count",
    "tree.forest_single_leaf_trees": "count",
    "ensembles.predict_s": "s",
    "ensembles.single_row_predicts": "count",
    "ensembles.rmse_rf": "kW",
    "ensembles.rmse_gbt": "kW",
    "experiment.self_s": "s",
    "experiment.cpu_s": "s",
}


@dataclass
class Process:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_process(args: list, log: Path, limit_s: float = DEADLINE_S) -> Process:
    """Run `python3 <args>` with the checkout's src/ on the path; measure wall
    time and, from the kernel's accounting of that one process, CPU time and
    peak resident memory. The process is killed after `limit_s` seconds."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with open(log, "ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], env=env, stdout=fh, stderr=fh)
        timer = threading.Timer(max(limit_s, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Process(
        proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024
    )


def cli(*args) -> list:
    return ["-m", "loadcast.cli", *args]


def log_tail(log: Path, lines: int = 5) -> str:
    return " | ".join(log.read_text(errors="replace").splitlines()[-lines:])


class Benchmark:
    """One invocation: set up the input, run rounds, check, collect metrics."""

    def __init__(self, workload: Workload, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = BENCH_DIR / ".work" / f"{workload.name}-{seed}-{os.getpid()}"
        self.log = self.work / "commands.log"
        self.csv = self.work / "input.csv"
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.first_digest = None
        self.ref = None
        self.deadline = time.monotonic() + DEADLINE_S

    def command(self, args: list) -> Process:
        return run_process(args, self.log, self.deadline - time.monotonic())

    def setup(self, repeats: int) -> list:
        """Generate the input `repeats` times; return the wall times. Every
        repetition must write the same bytes."""
        times, digests = [], set()
        for _ in range(repeats):
            p = self.command(cli(*self.workload.synth_args(self.seed, self.csv)))
            if p.code != 0:
                raise RuntimeError(f"loadcast synth exited with {p.code}: {log_tail(self.log)}")
            times.append(p.wall_s)
            digests.add(hashlib.sha256(self.csv.read_bytes()).hexdigest())
        if len(digests) != 1:
            print("loadcast synth wrote different bytes for the same seed", file=sys.stderr)
            self.correct = False
        self.ref = checks.bucket_means(self.csv, self.workload.granularity)
        return times

    def operation(self, label: str, args_prefix: list) -> tuple:
        """One `loadcast run`; returns (Process, check Outcome or None if failed)."""
        out = self.work / label
        p = self.command([*args_prefix, *self.workload.run_args(self.csv, out)])
        self.attempted += 1
        if p.code != 0:
            problems = [f"exit code {p.code}: {log_tail(self.log)}"]
            outcome = None
        else:
            outcome = checks.check_run(out, self.workload.spec(), self.ref)
            problems = list(outcome.problems)
            if not problems:
                if self.first_digest is None:
                    self.first_digest = outcome.digest
                elif outcome.digest != self.first_digest:
                    problems.append("model or prediction files differ from the first run")
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"{self.workload.name} {label}: FAILED {problem}", file=sys.stderr)
            return p, None
        return p, outcome

    def rounds(self, one_round) -> list:
        results, start = [], time.perf_counter()
        while True:
            results.append(one_round(len(results)))
            elapsed = time.perf_counter() - start
            if elapsed * (len(results) + 1) / len(results) > self.seconds:
                return results

    def end_to_end(self) -> dict:
        setup = self.setup(SETUP_REPEATS)
        runs = [
            r for r in self.rounds(lambda i: self.operation(f"run{i}", cli())) if r[1]
        ]
        if not runs:
            raise RuntimeError("no loadcast run passed its checks")
        print(
            f"setup_s {' '.join(f'{t:.2f}' for t in setup)}; "
            f"run_s {' '.join(f'{p.wall_s:.2f}' for p, _ in runs)}",
            file=sys.stderr,
        )
        return {
            "setup_s": statistics.median(setup),
            "run_s": statistics.median(p.wall_s for p, _ in runs),
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p, _ in runs),
            "rmse_blend": runs[0][1].rmse["weighted_ensemble"],
        }

    def traced_round(self, i: int) -> dict:
        plain, _ = self.operation(f"plain{i}", cli())
        trace_json = self.work / f"trace{i}.json"
        traced, outcome = self.operation(
            f"traced{i}", [str(BENCH_DIR / "tracer.py"), str(trace_json)]
        )
        if outcome is None:
            return None
        trace = json.loads(trace_json.read_text())
        return {
            "trace": trace,
            "metrics": layer_metrics(trace, outcome, traced),
            "untraced_run_s": plain.wall_s,
            "traced_run_s": traced.wall_s,
        }

    def per_layer(self) -> dict:
        self.setup(1)
        rounds = [r for r in self.rounds(self.traced_round) if r]
        if not rounds:
            raise RuntimeError("no traced loadcast run passed its checks")
        metrics = {
            name: _median_or_none([r["metrics"][name] for r in rounds])
            for name in PER_LAYER_UNITS
        }
        overhead = statistics.median(r["traced_run_s"] - r["untraced_run_s"] for r in rounds)
        untraced = statistics.median(r["untraced_run_s"] for r in rounds)
        results = BENCH_DIR / "results"
        results.mkdir(exist_ok=True)
        path = results / f"trace-{self.workload.name}-{self.seed}.json"
        path.write_text(json.dumps({
            "workload": self.workload.name,
            "seed": self.seed,
            "untraced_run_s": untraced,
            "overhead_s": overhead,
            "metrics": metrics,
            **rounds[0]["trace"],
        }, indent=1))
        print(
            f"tracing overhead {overhead:.3f} s on an untraced run_s of "
            f"{untraced:.3f} s ({100 * overhead / untraced:.1f} %); trace in {path}",
            file=sys.stderr,
        )
        return metrics

    def run(self) -> dict:
        self.work.mkdir(parents=True, exist_ok=True)
        try:
            values = self.per_layer() if self.trace else self.end_to_end()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        units = PER_LAYER_UNITS if self.trace else END_TO_END_UNITS
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": values[name], "unit": unit} for name, unit in units.items()
            },
        }


def _median_or_none(values):
    present = [v for v in values if v is not None]
    if not present:
        return None
    # a count stays a whole number that some round observed
    if all(isinstance(v, int) for v in present):
        return statistics.median_low(present)
    return statistics.median(present)


def layer_metrics(trace: dict, outcome: checks.Outcome, process: Process) -> dict:
    """Per-layer metrics of one traced run. A metric whose source function no
    longer exists in the program is None (absent)."""
    spans, sums, counts = trace["spans"], trace["sums"], trace["counts"]
    absent = set(trace["absent"])

    def span_s(name):
        if name in absent and not any(s["name"] == name for s in spans):
            return None
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    def summed(name, key):
        if name in absent and not any(s["name"] == name for s in sums):
            return None
        return sum(s[key] for s in sums if s["name"] == name)

    def both(a, b):
        return None if a is None and b is None else (a or 0) + (b or 0)

    root = next((s for s in spans if s["name"] == "experiment.run"), None)
    self_s = None
    if root is not None:
        children = sum(s["end"] - s["start"] for s in spans if s["parent"] == root["id"])
        children += sum(s["seconds"] for s in sums if s["parent"] == root["id"])
        self_s = root["end"] - root["start"] - children
    forest, gbt = outcome.shapes
    return {
        "readings.parse_s": span_s("readings.parse"),
        "readings.interpolate_s": span_s("readings.interpolate"),
        "readings.aggregate_s": span_s("readings.aggregate"),
        "readings.rows": counts.get("readings.rows"),
        "readings.buckets": counts.get("readings.buckets"),
        "features.build_s": span_s("features.build"),
        "features.samples": counts.get("features.samples"),
        "splitting.train_n": counts.get("splitting.train_n"),
        "splitting.test_n": counts.get("splitting.test_n"),
        "ensembles.fit_forest_s": span_s("ensembles.fit_forest"),
        "ensembles.fit_gbt_s": span_s("ensembles.fit_gbt"),
        "tree.best_split_calls": summed("tree.best_split", "calls"),
        "tree.best_split_s": summed("tree.best_split", "seconds"),
        "tree.forest_nodes": forest.nodes,
        "tree.gbt_nodes": gbt.nodes,
        "tree.forest_single_leaf_trees": forest.single_leaf_trees,
        "ensembles.predict_s": both(
            span_s("ensembles.predict_many"), summed("ensembles.predict_row", "seconds")
        ),
        "ensembles.single_row_predicts": summed("ensembles.predict_row", "calls"),
        "ensembles.rmse_rf": outcome.rmse["random_forest"],
        "ensembles.rmse_gbt": outcome.rmse["gradient_boosting"],
        "experiment.self_s": self_s,
        "experiment.cpu_s": process.cpu_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "loadcast" / "cli.py").is_file():
        print(f"no loadcast sources under {SRC}", file=sys.stderr)
        return 2
    # on SIGTERM, unwind so that the running command is killed and reaped and
    # the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    bench = Benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    try:
        result = bench.run()
    except RuntimeError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
