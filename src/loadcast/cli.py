"""Command-line interface.

Subcommands: synth (generate data), run (full experiment), compare (render a
table from saved reports). Each `key = value` line of a --config file
becomes the flag `--key=value` (a switch, `--key` or `--no-key`), placed
before the command line's own flags, so explicit flags win.
LOADCAST_OUT_DIR supplies the default output directory.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from datetime import date
from pathlib import Path

from .errors import ConfigError, DataError, InvariantError, LoadcastError
from .splitting import SEASONS, STRATEGIES, SplitSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4

ENV_OUT_DIR = "LOADCAST_OUT_DIR"

# --split names a strategy, or season:<name> for a single_season split
_SPLITS = [s for s in STRATEGIES if s != "single_season"]
_SEASON_SPLIT = f"season:<{'|'.join(SEASONS)}>"


def __getattr__(name):
    # each command imports its own modules, so that synth and compare load
    # no model code. `cmd_run` reads `run_experiment` through this module
    # (PEP 562), so a wrapper set on `loadcast.cli.run_experiment`, as
    # bench/tracer.py sets one, is the one it calls
    if name == "run_experiment":
        from .experiment import run_experiment

        return run_experiment
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _load_config_file(path) -> list:
    """(line number, key, value) of each flat `key = value` line; '#' starts
    a comment, and '-' in a key reads as '_'."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    entries = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config file line {line_no}: expected 'key = value'")
        key, value = line.split("=", 1)
        entries.append((line_no, key.strip().replace("-", "_"), value.strip()))
    return entries


def _config_flags(args, parser) -> list:
    """The lines of `args.config` as flags of `args.command`. Each key must
    be the exact name of one of the command's options."""
    known = set(vars(args)) - {"command", "func", "config"}
    # the command's subparser; argparse has no public lookup for it
    options = parser._subparsers._group_actions[0].choices[args.command]._actions
    switches = {a.dest for a in options if isinstance(a, argparse.BooleanOptionalAction)}
    flags = []
    for line_no, key, value in _load_config_file(args.config):
        if key not in known:
            raise ConfigError(
                f"config file line {line_no}: {args.command} has no option {key!r}"
            )
        flag = "--" + key.replace("_", "-")
        if key not in switches:
            flags.append(f"{flag}={value}")
            continue
        try:
            flags.append(flag if _parse_bool(value) else "--no-" + flag[2:])
        except ValueError:
            raise ConfigError(
                f"config file line {line_no}: {key} must be yes or no, got {value!r}"
            )
    return flags


def _given(**values) -> dict:
    """The keyword arguments that have a value; the rest keep the defaults
    of the dataclass they are passed to."""
    return {k: v for k, v in values.items() if v is not None}


def _parse_bool(text) -> bool:
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(text)


def _split_spec(name, train_fraction) -> SplitSpec:
    """The split named on the command line."""
    fraction = _given(train_fraction=train_fraction)
    if name.startswith("season:"):
        return SplitSpec("single_season", season=name.split(":", 1)[1], **fraction)
    if name not in _SPLITS:
        raise ConfigError(
            f"unknown split {name!r}; expected {', '.join(_SPLITS)}, or {_SEASON_SPLIT}"
        )
    return SplitSpec(name, **fraction)


def _iso_date(text) -> date:
    try:
        return date.fromisoformat(text)
    except ValueError:
        raise ConfigError(f"bad date {text!r}; expected YYYY-MM-DD")


def cmd_synth(args) -> int:
    from .synthetic import SyntheticSpec, generate_synthetic

    # each SyntheticSpec field is the synth option of the same name
    spec = SyntheticSpec(**_given(**{
        f.name: getattr(args, f.name) for f in dataclasses.fields(SyntheticSpec)
    }))
    try:
        path = generate_synthetic(spec, args.out)
    except OSError as exc:
        raise ConfigError(f"cannot write {args.out}: {exc}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_run(args) -> int:
    from .ensembles import ForestConfig, GbtConfig
    from .experiment import ExperimentConfig
    from .tree import TreeConfig

    if args.input is None:
        raise ConfigError("run needs --input (or input in the config file)")
    options = _given(granularity=args.granularity, lags=args.lags)
    config = ExperimentConfig(
        input_path=args.input,
        out_dir=args.out_dir,
        split=_split_spec(args.split, args.train_fraction),
        forest=ForestConfig(**_given(
            n_trees=args.trees,
            tree=TreeConfig(**_given(
                max_depth=args.rf_depth,
                min_gain=args.rf_min_gain,
            )),
            bootstrap=args.bootstrap,
            feature_fraction=args.feature_fraction,
            seed=args.seed,
        )),
        gbt=GbtConfig(**_given(
            n_rounds=args.rounds,
            shrinkage=args.shrinkage,
            tree=TreeConfig(**_given(
                max_depth=args.gbt_depth,
                min_gain=args.gbt_min_gain,
            )),
        )),
        **options,
    )
    result = sys.modules[__name__].run_experiment(config)
    print(result.table.to_text())
    print(f"outputs in {result.out_dir}")
    return EXIT_OK


def cmd_compare(args) -> int:
    from .metrics import MetricsReport, compare_models

    reports, sources = {}, {}  # model name -> report, and the file it came from
    for path in args.reports:
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"cannot read reports file {path}: {exc}")
        if not isinstance(doc, dict):
            raise DataError(f"reports file {path} is not a JSON object")
        for name, entry in doc.items():
            if name in sources:
                # a table row per model name: a second report would replace the first
                raise DataError(f"model {name!r} is in both {sources[name]} and {path}")
            reports[name] = MetricsReport.from_dict(entry)
            sources[name] = path
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
    out_dir = os.environ.get(ENV_OUT_DIR, ".")

    synth = sub.add_parser("synth", help="generate synthetic minute-level data")
    synth.add_argument("--config", help="flat key=value config file")
    synth.add_argument(
        "--out", default=Path(out_dir) / "synthetic.csv", help="output CSV path"
    )
    synth.add_argument("--start", type=_iso_date, help="first day, ISO date")
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
    run.add_argument("--out-dir", dest="out_dir", default=out_dir)
    run.add_argument("--granularity", type=int, help="bucket width in minutes")
    run.add_argument(
        "--split", default=SplitSpec().strategy,
        help=" | ".join([*_SPLITS, _SEASON_SPLIT]),
    )
    run.add_argument("--train-fraction", dest="train_fraction", type=float)
    run.add_argument("--lags", action=argparse.BooleanOptionalAction)
    run.add_argument("--trees", type=int, help="forest size")
    run.add_argument("--rf-depth", dest="rf_depth", type=int)
    run.add_argument("--rf-min-gain", dest="rf_min_gain", type=float)
    run.add_argument("--feature-fraction", dest="feature_fraction", type=float)
    run.add_argument("--bootstrap", action=argparse.BooleanOptionalAction)
    run.add_argument("--rounds", type=int, help="boosting rounds")
    run.add_argument("--shrinkage", type=float)
    run.add_argument("--gbt-depth", dest="gbt_depth", type=int)
    run.add_argument("--gbt-min-gain", dest="gbt_min_gain", type=float)
    run.add_argument("--seed", type=int, help="forest seed (boosting draws nothing)")
    run.set_defaults(func=cmd_run)

    compare = sub.add_parser("compare", help="render a table from saved reports")
    compare.add_argument("reports", nargs="+", help="reports.json file(s)")
    compare.add_argument("--csv", action="store_true", help="emit CSV instead of text")
    compare.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # the file's flags first, then the command line's own, which win
            flags = _config_flags(args, parser)
            rest = argv[argv.index(args.command) + 1:]
            args = parser.parse_args([args.command, *flags, *rest])
        return args.func(args)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error
        return exc.code
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
