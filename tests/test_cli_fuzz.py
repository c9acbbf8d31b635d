"""`cli.main` on small malformed inputs: it returns a documented exit code
(0, or 2/3/4 for config/data/invariant errors) and lets no exception escape."""
import json
import tempfile
from datetime import date
from pathlib import Path

from hypothesis import given, settings, strategies as st

from loadcast.cli import main

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
                     # lags at 12, 24 and 84 buckets of two hours
                     ["--granularity", "120", "--split", "monthly", "--lags"])),
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
# synth start dates near both ends of the calendar

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
