"""Run one `loadcast` CLI command in this process with its layers traced.

Usage: python3 bench/tracer.py TRACE_JSON <loadcast CLI arguments...>

The program is not changed: before the command runs, the public functions
that `loadcast.experiment` calls into each layer are wrapped from outside.
Each wrapped call records a span (name, start, end, parent). Calls made
thousands of times per run (`loadcast.tree.best_split`, single-row model
prediction) are summed per parent span instead, so that tracing them costs
little. Counts come from the wrapped calls' return values. A function that no
longer exists is listed as absent and the command still runs. The spans,
sums, counts and absent names are written to TRACE_JSON when the command ends;
the exit code is the command's.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time


def _len(i=None):
    """Count function: the length of the result, or of its i-th item."""
    return lambda result: len(result if i is None else result[i])


# module, attribute, span name, {count name: count function}
SPANS = (
    ("loadcast.cli", "run_experiment", "experiment.run", {}),
    ("loadcast.experiment", "parse_readings", "readings.parse", {"readings.rows": _len()}),
    ("loadcast.experiment", "interpolate_nulls", "readings.interpolate", {}),
    ("loadcast.experiment", "aggregate", "readings.aggregate", {"readings.buckets": _len()}),
    ("loadcast.experiment", "build_samples", "features.build", {"features.samples": _len()}),
    ("loadcast.experiment", "split", "splitting.split",
     {"splitting.train_n": _len(0), "splitting.test_n": _len(1)}),
    ("loadcast.experiment", "fit_scaler", "scaling.fit", {}),
    ("loadcast.experiment", "fit_forest", "ensembles.fit_forest", {}),
    ("loadcast.experiment", "fit_gbt", "ensembles.fit_gbt", {}),
    ("loadcast.experiment", "fit_weights", "blend.fit", {}),
    ("loadcast.experiment", "predict_blend_many", "blend.predict", {}),
    ("loadcast.experiment", "compute_metrics", "metrics.compute", {}),
    ("loadcast.ensembles", "ForestModel.predict_many", "ensembles.predict_many", {}),
    ("loadcast.ensembles", "GbtModel.predict_many", "ensembles.predict_many", {}),
)
# module, attribute, name of the per-parent sum
SUMS = (
    ("loadcast.tree", "best_split", "tree.best_split"),
    ("loadcast.ensembles", "ForestModel.predict", "ensembles.predict_row"),
    ("loadcast.ensembles", "GbtModel.predict", "ensembles.predict_row"),
)


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []
        self.stack = []
        self.sums = {}  # (name, parent span id) -> [calls, seconds]
        self.counts = {}
        self.absent = []

    def span(self, name, fn, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = {
                "id": len(self.spans),
                "name": name,
                "parent": self.stack[-1] if self.stack else None,
            }
            self.spans.append(record)
            self.stack.append(record["id"])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                record["start"] = start - self.t0
                record["end"] = end - self.t0
            for count_name, count in counters.items():
                try:
                    self.counts[count_name] = count(result)
                except (TypeError, IndexError, KeyError):
                    self.absent.append(count_name)
            return result

        return traced

    def summed(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = (name, self.stack[-1] if self.stack else None)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                entry = self.sums.setdefault(key, [0, 0.0])
                entry[0] += 1
                entry[1] += time.perf_counter() - start

        return traced

    def install(self):
        for module, attr, name, counters in SPANS:
            if not _patch(module, attr, lambda fn, n=name, c=counters: self.span(n, fn, c)):
                self.absent += [f"{module}.{attr}", name, *counters]
        for module, attr, name in SUMS:
            if not _patch(module, attr, lambda fn, n=name: self.summed(n, fn)):
                self.absent += [f"{module}.{attr}", name]

    def to_dict(self) -> dict:
        return {
            "spans": self.spans,
            "sums": [
                {"name": name, "parent": parent, "calls": calls, "seconds": seconds}
                for (name, parent), (calls, seconds) in self.sums.items()
            ],
            "counts": self.counts,
            "absent": self.absent,
        }


def _patch(module_name, attr, wrap) -> bool:
    """Replace `module_name.attr` (attr may be Class.method) by wrap(it)."""
    try:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        fn = getattr(owner, leaf)
    except (ImportError, AttributeError):
        return False
    setattr(owner, leaf, wrap(fn))
    return True


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from loadcast.cli import main as cli_main

    try:
        code = cli_main(cli_args)
    finally:
        with open(out_path, "w") as fh:
            json.dump(tracer.to_dict(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
