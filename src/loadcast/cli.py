"""Command-line interface.

Subcommands: synth (generate data), run (full experiment), week (extract a
weekly prediction slice), compare (render a table from saved reports). Any
flag can come from a flat key=value config file via --config; explicit flags
win. LOADCAST_OUT_DIR supplies the default output directory.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import date, datetime
from pathlib import Path

from .ensembles import ForestConfig, GbtConfig
from .errors import ConfigError, DataError, InvariantError, LoadcastError
from .experiment import ExperimentConfig, emit_week_series, run_experiment
from .metrics import MetricsReport, compare_models
from .splitting import SplitSpec
from .synthetic import SyntheticSpec, generate_synthetic
from .tree import TreeConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4

ENV_OUT_DIR = "LOADCAST_OUT_DIR"


def _load_config_file(path) -> dict:
    """Flat key = value lines; '#' starts a comment."""
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config file line {line_no}: expected 'key = value'")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


class _Resolver:
    """Fallback chain: explicit CLI flag -> config file -> built-in default."""

    def __init__(self, args: argparse.Namespace):
        self.args = vars(args)
        self.file = (
            _load_config_file(self.args["config"]) if self.args.get("config") else {}
        )

    def get(self, key, default, cast=str):
        cli_value = self.args.get(key)
        if cli_value is not None:
            return cli_value
        if key in self.file:
            raw = self.file[key]
            try:
                return cast(raw)
            except (ValueError, TypeError):
                raise ConfigError(f"config file: bad value for {key}: {raw!r}")
        return default


def _parse_bool(text) -> bool:
    if isinstance(text, bool):
        return text
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(text)


def _parse_offsets(text):
    try:
        return tuple(int(t) for t in str(text).split(",") if t.strip())
    except ValueError:
        raise ConfigError(
            f"lag offsets must be comma-separated integers, got {text!r}"
        )


def _split_spec(name: str, train_fraction: float) -> SplitSpec:
    if name.startswith("season:"):
        return SplitSpec(
            "single_season", season=name.split(":", 1)[1],
            train_fraction=train_fraction,
        )
    alias = {"ordered": "ordered", "seasonal": "seasonal", "monthly": "monthly"}
    if name not in alias:
        raise ConfigError(
            f"unknown split {name!r}; expected ordered, seasonal, monthly, "
            "or season:<winter|spring|summer|autumn>"
        )
    return SplitSpec(alias[name], train_fraction=train_fraction)


def _default_out_dir() -> str:
    return os.environ.get(ENV_OUT_DIR, ".")


def cmd_synth(args) -> int:
    r = _Resolver(args)
    spec = SyntheticSpec(
        start=date.fromisoformat(r.get("start", "2015-01-01")),
        days=r.get("days", 365, int),
        meters=r.get("meters", 6, int),
        base_kw=r.get("base_kw", 60.0, float),
        daily_amplitude=r.get("daily_amplitude", 20.0, float),
        weekly_amplitude=r.get("weekly_amplitude", 8.0, float),
        seasonal_amplitude=r.get("seasonal_amplitude", 25.0, float),
        noise_std=r.get("noise_std", 3.0, float),
        null_rate=r.get("null_rate", 0.0, float),
        seed=r.get("seed", 0, int),
    )
    out = r.get("out", None)
    if out is None:
        out = Path(_default_out_dir()) / "synthetic.csv"
    path = generate_synthetic(spec, out)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_run(args) -> int:
    r = _Resolver(args)
    input_path = r.get("input", None)
    if input_path is None:
        raise ConfigError("run needs --input (or input in the config file)")
    out_dir = r.get("out_dir", None)
    if out_dir is None:
        out_dir = _default_out_dir()
    seed = r.get("seed", 0, int)
    gain_mode = r.get("gain_mode", "relative")
    rf_tree = TreeConfig(
        max_depth=r.get("rf_depth", 10, int),
        min_gain=r.get("rf_min_gain", 0.2, float),
        gain_mode=gain_mode,
    )
    gbt_tree = TreeConfig(
        max_depth=r.get("gbt_depth", 10, int),
        min_gain=r.get("gbt_min_gain", 0.2, float),
        gain_mode=gain_mode,
    )
    scaler = r.get("scaler", "minmax")
    lag_offsets = r.get("lag_offsets", None)
    config = ExperimentConfig(
        input_path=input_path,
        out_dir=out_dir,
        granularity=r.get("granularity", 1440, int),
        split=_split_spec(
            r.get("split", "monthly"),
            r.get("train_fraction", 0.8, float),
        ),
        scaler=None if scaler == "none" else scaler,
        lags=r.get("lags", False, _parse_bool),
        lag_offsets=_parse_offsets(lag_offsets) if lag_offsets else None,
        forest=ForestConfig(
            n_trees=r.get("trees", 15, int),
            tree=rf_tree,
            bootstrap=r.get("bootstrap", True, _parse_bool),
            feature_fraction=r.get("feature_fraction", 1 / 3, float),
            seed=seed,
        ),
        gbt=GbtConfig(
            n_rounds=r.get("rounds", 100, int),
            shrinkage=r.get("shrinkage", 0.1, float),
            tree=gbt_tree,
            seed=seed,
        ),
        validation_fraction=r.get("validation_fraction", 0.1, float),
        mad_mode=r.get("mad_mode", "mean"),
    )
    result = run_experiment(config)
    print(result.table.to_text())
    print(f"outputs in {result.out_dir}")
    return EXIT_OK


def cmd_week(args) -> int:
    r = _Resolver(args)
    predictions = r.get("predictions", None)
    if predictions is None:
        raise ConfigError("week needs --predictions")
    anchor_text = r.get("anchor", None)
    if anchor_text is None:
        raise ConfigError("week needs --anchor (ISO date or datetime)")
    try:
        anchor = datetime.fromisoformat(anchor_text)
    except ValueError:
        raise ConfigError(f"bad anchor {anchor_text!r}")
    out = r.get("out", None)
    if out is None:
        out = Path(_default_out_dir()) / "week.csv"
    path = emit_week_series(predictions, anchor, out)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_compare(args) -> int:
    reports = {}
    for path in args.reports:
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise DataError(f"cannot read reports file {path}: {exc}")
        for name, entry in doc.items():
            reports[name] = MetricsReport.from_dict(entry)
    table = compare_models(reports)
    if args.csv:
        print(table.to_csv(), end="")
    else:
        print(table.to_text())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loadcast",
        description="Short-term energy consumption forecasting toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate synthetic minute-level data")
    synth.add_argument("--config", help="flat key=value config file")
    synth.add_argument("--out", help="output CSV path")
    synth.add_argument("--start", help="first day, ISO date")
    synth.add_argument("--days", type=int)
    synth.add_argument("--meters", type=int)
    synth.add_argument("--base-kw", dest="base_kw", type=float)
    synth.add_argument("--daily-amplitude", dest="daily_amplitude", type=float)
    synth.add_argument("--weekly-amplitude", dest="weekly_amplitude", type=float)
    synth.add_argument("--seasonal-amplitude", dest="seasonal_amplitude", type=float)
    synth.add_argument("--noise-std", dest="noise_std", type=float)
    synth.add_argument("--null-rate", dest="null_rate", type=float)
    synth.add_argument("--seed", type=int)
    synth.set_defaults(func=cmd_synth)

    run = sub.add_parser("run", help="run a full train/evaluate experiment")
    run.add_argument("--config", help="flat key=value config file")
    run.add_argument("--input", help="minute-level readings CSV")
    run.add_argument("--out-dir", dest="out_dir")
    run.add_argument("--granularity", type=int, help="bucket width in minutes")
    run.add_argument(
        "--split",
        help="ordered | seasonal | monthly | season:<winter|spring|summer|autumn>",
    )
    run.add_argument("--train-fraction", dest="train_fraction", type=float)
    run.add_argument("--scaler", choices=["minmax", "maxabs", "none"])
    run.add_argument("--lags", dest="lags", action="store_const", const=True)
    run.add_argument("--no-lags", dest="lags", action="store_const", const=False)
    run.add_argument("--lag-offsets", dest="lag_offsets", help="comma-separated buckets")
    run.add_argument("--trees", type=int, help="forest size")
    run.add_argument("--rf-depth", dest="rf_depth", type=int)
    run.add_argument("--rf-min-gain", dest="rf_min_gain", type=float)
    run.add_argument("--feature-fraction", dest="feature_fraction", type=float)
    run.add_argument(
        "--bootstrap", dest="bootstrap", action="store_const", const=True
    )
    run.add_argument(
        "--no-bootstrap", dest="bootstrap", action="store_const", const=False
    )
    run.add_argument("--rounds", type=int, help="boosting rounds")
    run.add_argument("--shrinkage", type=float)
    run.add_argument("--gbt-depth", dest="gbt_depth", type=int)
    run.add_argument("--gbt-min-gain", dest="gbt_min_gain", type=float)
    run.add_argument("--gain-mode", dest="gain_mode", choices=["relative", "absolute"])
    run.add_argument(
        "--validation-fraction", dest="validation_fraction", type=float
    )
    run.add_argument("--mad-mode", dest="mad_mode", choices=["mean", "median"])
    run.add_argument("--seed", type=int)
    run.set_defaults(func=cmd_run)

    week = sub.add_parser("week", help="extract a 7-day prediction slice")
    week.add_argument("--config", help="flat key=value config file")
    week.add_argument("--predictions", help="predictions.csv from a run")
    week.add_argument("--anchor", help="window start, ISO date or datetime")
    week.add_argument("--out", help="output CSV path")
    week.set_defaults(func=cmd_week)

    compare = sub.add_parser("compare", help="render a table from saved reports")
    compare.add_argument("reports", nargs="+", help="reports.json file(s)")
    compare.add_argument("--csv", action="store_true", help="emit CSV instead of text")
    compare.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (InvariantError, LoadcastError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
