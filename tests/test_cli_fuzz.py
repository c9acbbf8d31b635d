"""`cli.main` on small malformed inputs: it returns a documented exit code
(0, or 2/3/4 for config/data/invariant errors) and lets no exception escape."""
import json
import tempfile
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from loadcast.cli import main
from loadcast.experiment import PREDICTION_COLUMNS

EXIT_CODES = {0, 2, 3, 4}
# tiny models: one tree, one round, shallow, so each example runs in
# milliseconds; explicit flags win over the config file
TINY = ["--trees", "1", "--rounds", "1", "--rf-depth", "2", "--gbt-depth", "2"]


def _run(files: dict, argv_of) -> int:
    """Write `files` (name -> bytes) to a fresh directory and call
    main(argv_of(directory))."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, data in files.items():
            (root / name).write_bytes(data)
        return main(argv_of(root))


def _run_csv(data: bytes, *flags) -> int:
    return _run(
        {"in.csv": data},
        lambda root: ["run", "--input", str(root / "in.csv"),
                      "--out-dir", str(root / "out"), *TINY, *flags],
    )


# ---------------------------------------------------------------------------
# CSV bytes

# a valid two-day hourly file, cut short and edited a few lines at a time
_HEADERS = (b"", b"time,a\n", b"timestamp\n", b"timestamp,a,b\n") + (b"timestamp,a\n",) * 4
_LINES = [b"2015-01-%02dT%02d:00,%d" % (1 + h // 24, h % 24, h % 7) for h in range(48)]
_CELLS = (b"", b" 2 ", b"-1", b"nan", b"inf", b"abc", b"1e400", b"\xff", b"\x00", b"\"1\"")
_EDITS = {
    "blank": lambda line, cell: b"",
    "cell": lambda line, cell: line.split(b",")[0] + b"," + cell,
    "extra cell": lambda line, cell: line + b"," + cell,
    "space": lambda line, cell: line.replace(b"T", b" "),
    "bad stamp": lambda line, cell: line.replace(b"T", cell or b"X"),
    "earlier stamp": lambda line, cell: _LINES[0],
    "crlf": lambda line, cell: line + b"\r",
    "cut": lambda line, cell: line[: len(line) // 2],
}
_EDIT = st.tuples(st.integers(0, 47), st.sampled_from(sorted(_EDITS)), st.sampled_from(_CELLS))


def _csv(header, kept, edits):
    lines = _LINES[:kept]
    for i, kind, cell in edits:
        if i < len(lines):
            lines[i] = _EDITS[kind](lines[i], cell)
    return header + b"".join(line + b"\n" for line in lines)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from(_HEADERS),
    st.sampled_from((48, 48, 48, 0, 1, 5, 12)),
    st.lists(_EDIT, max_size=3),
    st.sampled_from((["--granularity", "60", "--split", "ordered"],
                     ["--granularity", "120", "--split", "monthly",
                      "--lags", "--lag-offsets", "1,12"])),
)
def test_run_on_malformed_csv(header, kept, edits, flags):
    assert _run_csv(_csv(header, kept, edits), *flags) in EXIT_CODES


# ---------------------------------------------------------------------------
# command-line tokens

# each group is rejected by the parser on its own (exit 2), or prints the
# help (exit 0); either way before any input is read or output written
_INT_FLAGS = {"run": ("--trees", "--rounds", "--granularity", "--rf-depth", "--seed"),
              "synth": ("--days", "--meters", "--seed")}
_FLOAT_FLAGS = {"run": ("--shrinkage", "--rf-min-gain", "--train-fraction"),
                "synth": ("--base-kw", "--noise-std", "--null-rate")}
_BAD_INTS = ("x", "", " ", "1.5", "1e3", "0x10", "nan")
_BAD_FLOATS = ("x", "", " ", "1,5", "0x1p3", "nan%")
_ODD_TOKENS = ("--tress", "--bogus=1", "-x", "extra", "--lags=yes", "--help", "-h")


def _bad_group(command):
    return st.one_of(
        st.tuples(st.sampled_from(_INT_FLAGS[command]), st.sampled_from(_BAD_INTS)),
        st.tuples(st.sampled_from(_FLOAT_FLAGS[command]), st.sampled_from(_BAD_FLOATS)),
        # a typed flag without its value: the next token is a flag, or none
        st.sampled_from(_INT_FLAGS[command] + _FLOAT_FLAGS[command]).map(lambda f: (f,)),
        st.sampled_from(_ODD_TOKENS).map(lambda t: (t,)),
    )


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(("run", "synth")))
    groups = {
        "run": [("--input", "absent.csv"), ("--out-dir", "out"), *zip(TINY[::2], TINY[1::2])],
        "synth": [("--days", "1"), ("--meters", "1"), ("--out", "out")],
    }[command]
    for _ in range(draw(st.integers(1, 3))):
        groups.insert(draw(st.integers(0, len(groups))), draw(_bad_group(command)))
    return [command, *(token for group in groups for token in group)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_argv())
def test_malformed_command_lines(argv):
    with tempfile.TemporaryDirectory() as tmp:
        # the input does not exist, and any output would land in tmp
        argv = [str(Path(tmp) / t) if t in ("absent.csv", "out") else t for t in argv]
        assert main(argv) in {0, 2}
        assert list(Path(tmp).iterdir()) == []


def test_usage_errors_return_the_exit_code():
    assert main(["run", "--input", "x", "--trees", "x"]) == 2
    assert main(["run", "--help"]) == 0
    assert main([]) == 2
    assert main(["bogus"]) == 2


# ---------------------------------------------------------------------------
# config-file lines

_GOOD_CSV = b"timestamp,a,b\n" + b"".join(
    b"2015-01-%02dT%02d:%02d,%d,%d\n" % (1 + m // 1440, m // 60 % 24, m % 60,
                                         m % 97, 3 * m % 41)
    for m in range(0, 14 * 1440, 60)
)
_KEYS = (
    "granularity", "split", "train_fraction", "scaler", "lags", "lag_offsets",
    "rf_min_gain", "feature_fraction", "bootstrap", "shrinkage", "gbt_min_gain",
    "gain_mode", "validation_fraction", "mad_mode", "seed", "rf-depth", "unknown",
)
_VALUES = (
    "", "0", "1", "-1", "2", "60", "1440", "7", "0.5", "1.0", "1.5", "nan", "inf",
    "-inf", "1e308", "abc", "true", "off", "ordered", "monthly", "seasonal",
    "season:summer", "season:monsoon", "minmax", "none", "absolute", "median",
    "1,2", "24,24", "0,1", "x,1", "99999",
)
_CONFIG_LINE = st.one_of(
    st.tuples(st.sampled_from(_KEYS), st.sampled_from(_VALUES)).map(
        lambda kv: f"{kv[0]} = {kv[1]}"
    ),
    st.sampled_from(("# comment", "", "no equals sign", "=", " = 1", "a=b=c")),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(_CONFIG_LINE, max_size=6), st.sampled_from((b"", b"\n", b"\xff")))
def test_run_with_malformed_config_file(lines, tail):
    code = _run(
        {"in.csv": _GOOD_CSV, "run.cfg": "\n".join(lines).encode() + tail},
        lambda root: ["run", "--config", str(root / "run.cfg"),
                      "--input", str(root / "in.csv"),
                      "--out-dir", str(root / "out"), *TINY],
    )
    assert code in EXIT_CODES


# ---------------------------------------------------------------------------
# reports.json documents

_FIELDS = ("rmse", "mae", "mad", "mape", "n_points", "n_skipped_mape", "extra")
_JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.sampled_from(
        (0.0, 1.5, -2.0, 1e308, float("nan"), float("inf"))
    ) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
_REPORT = st.dictionaries(st.sampled_from(_FIELDS), _JSON_VALUE, max_size=7)
_DOCUMENT = st.one_of(
    st.dictionaries(st.text(max_size=4), _REPORT, max_size=3).map(json.dumps),
    _JSON_VALUE.map(json.dumps),
).map(str.encode) | st.sampled_from((b"", b"{", b"\xff{}", b"[]", b"null"))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_DOCUMENT, st.booleans())
def test_compare_on_malformed_reports(document, as_csv):
    code = _run(
        {"reports.json": document},
        lambda root: ["compare", str(root / "reports.json"),
                      *(["--csv"] if as_csv else [])],
    )
    assert code in EXIT_CODES


# ---------------------------------------------------------------------------
# week anchors and synth start dates near both ends of the calendar

_EDGE_DATES = (date(1, 1, 1), date(1, 1, 2), date(2015, 1, 1), date(9999, 12, 24),
               date(9999, 12, 25), date(9999, 12, 31))
_DATE = st.sampled_from(_EDGE_DATES) | st.dates()
# test rows at both ends of the calendar, so windows there are not empty
_PREDICTIONS = ",".join(PREDICTION_COLUMNS).encode() + b"\n" + b"".join(
    b"%s,1.0,2.0,3.0,4.0\n" % stamp.encode()
    for stamp in ("0001-01-01T00:00", "2015-01-01T00:00", "2015-01-01T01:00",
                  "2015-01-03T12:00", "9999-12-31T23:00")
)
_ANCHOR = st.one_of(
    st.tuples(
        _DATE.map(date.isoformat),
        st.sampled_from(("", "T00:00", "T23:59:59.999999", " 12:00", "T12")),
        st.sampled_from(("", "", "Z", "+00:00", "+01:00", "-05:30", "+24:00")),
    ).map("".join),
    st.sampled_from(("", "garbage", "2015-13-01", "2015-02-30", "0000-12-31",
                     "10000-01-01", "2015-01-01T25:00", "2015-1-1", "2015-01-01T")),
    st.text(max_size=12),
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_ANCHOR)
def test_week_on_edge_and_malformed_anchors(anchor):
    code = _run(
        {"predictions.csv": _PREDICTIONS},
        # --anchor=...: an anchor that starts with "-" stays a value
        lambda root: ["week", "--predictions", str(root / "predictions.csv"),
                      f"--anchor={anchor}", "--out", str(root / "week.csv")],
    )
    assert code in EXIT_CODES


# rows broken one way each, put where the window from 2015-01-01 holds them
_BROKEN_ROWS = {
    "utc-offset": b"2015-01-03T13:00+01:00,1.0,2.0,3.0,4.0\n",
    "out-of-order": b"2015-01-02T00:00,1.0,2.0,3.0,4.0\n",
    "blank-cell": b"2015-01-03T13:00,1.0,,3.0,4.0\n",
    "six-columns": b"2015-01-03T13:00,1.0,2.0,3.0,4.0,5.0\n",
}


def _with_row(extra: bytes) -> bytes:
    """_PREDICTIONS with `extra` after its 2015-01-03T12:00 row."""
    lines = _PREDICTIONS.splitlines(keepends=True)
    return b"".join(lines[:5] + [extra] + lines[5:])


@pytest.mark.parametrize("files, predictions, out, code", [
    # a byte that is not UTF-8 after the rows: a data error
    ({"predictions.csv": _PREDICTIONS + b"\xff\n"}, "predictions.csv", "week.csv", 3),
    # a missing file or a directory as the predictions: a data error
    ({}, "absent.csv", "week.csv", 3),
    ({}, ".", "week.csv", 3),
    # an output in a directory that does not exist: a config error
    ({"predictions.csv": _PREDICTIONS}, "predictions.csv", "absent/week.csv", 2),
    # a malformed row anywhere in the file: a data error
    *(({"predictions.csv": _with_row(row)}, "predictions.csv", "week.csv", 3)
      for row in _BROKEN_ROWS.values()),
], ids=["not-utf8", "absent", "directory", "out-dir-absent", *_BROKEN_ROWS])
def test_week_on_unreadable_predictions_or_out(files, predictions, out, code):
    assert _run(files, lambda root: [
        "week", "--predictions", str(root / predictions), "--anchor", "2015-01-01",
        "--out", str(root / out),
    ]) == code


# hourly prediction rows, a negative estimate among them (boosting can
# predict below 0), and edits that each make a row malformed
_ROWS = [b"2015-01-01T%02d:00,%d.5,1.25,-0.5,0.0" % (h, h) for h in range(24)]
_FAULTS = {
    "utc offset": lambda row: row.replace(b",", b"+01:00,", 1),
    "seconds": lambda row: row.replace(b",", b":30,", 1),
    "repeated": lambda row: row + b"\n" + row,
    "blank cell": lambda row: row.replace(b",1.25,", b",,"),
    "nan": lambda row: row.replace(b",1.25,", b",nan,"),
    "two columns": lambda row: row.split(b",")[0] + b",1.0",
    "six columns": lambda row: row + b",1.0",
}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 23), st.sampled_from(sorted(_FAULTS))),
                max_size=3),
       st.sampled_from(("2015-01-01", "2015-01-01T12:00", "2014-12-26")))
def test_week_on_malformed_prediction_rows(faults, anchor):
    rows = list(_ROWS)
    for i, fault in faults:
        rows[i] = _FAULTS[fault](rows[i])
    header = ",".join(PREDICTION_COLUMNS).encode()
    code = _run(
        {"predictions.csv": b"\n".join([header, *rows]) + b"\n"},
        lambda root: ["week", "--predictions", str(root / "predictions.csv"),
                      "--anchor", anchor, "--out", str(root / "week.csv")],
    )
    assert code in EXIT_CODES
    # every fault is a data error, wherever its row falls
    assert code == (3 if faults else 0)


_START = st.one_of(
    st.dates(max_value=date(1, 1, 10)).map(date.isoformat),
    st.dates(min_value=date(9999, 12, 22)).map(date.isoformat),
    st.sampled_from(("0000-12-31", "10000-01-01", "9999-12-32", "0001-00-01")),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_START, st.integers(1, 3))
def test_synth_near_the_calendar_ends(start, days):
    code = _run(
        {},
        lambda root: ["synth", "--start", start, "--days", str(days),
                      "--meters", "1", "--out", str(root / "x.csv")],
    )
    assert code in EXIT_CODES
