import concurrent.futures
import itertools
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loadcast import readings as readings_module
from loadcast.errors import ConfigError, DataError
from loadcast.readings import (
    Granularity,
    Readings,
    aggregate,
    interpolate_nulls,
    parse_readings,
)

from datetime import datetime, timedelta
from types import SimpleNamespace

import oracles


HEADER = "timestamp,m1,m2,m3\n"


def minutes(start, count):
    return [start + timedelta(minutes=i) for i in range(count)]


def readings_of(timestamps, rows):
    """Readings from datetimes and one tuple of values per row (None = null)."""
    values = [[np.nan if v is None else v for v in row] for row in rows]
    return Readings(
        np.array(timestamps, dtype="datetime64[us]"),
        np.array(values, dtype=float).reshape(len(rows), -1),
    )


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


class TestParse:
    def test_basic_row_with_null(self):
        text = "timestamp,a,b,c\n2015-01-01T00:00,10.0,,3.5\n"
        readings = parse_readings(text)
        assert len(readings) == 1
        assert readings.timestamps[0] == np.datetime64(datetime(2015, 1, 1, 0, 0))
        np.testing.assert_array_equal(readings.values[0], [10.0, np.nan, 3.5])

    def test_header_only(self):
        for text in ("timestamp,a\n", "timestamp,a", "timestamp,a\n\n\r\n"):
            with pytest.raises(DataError, match="^no data rows after the header$"):
                parse_readings(text)

    def test_non_monotonic(self):
        text = (
            "timestamp,a\n"
            "2015-01-01T00:00,1\n"
            "2015-01-01T00:00,2\n"
        )
        with pytest.raises(DataError, match="non-monotonic timestamp at row 3"):
            parse_readings(text)

    def test_malformed_timestamp_names_row(self):
        text = "timestamp,a\n2015-01-01T00:00,1\nnot-a-date,2\n"
        with pytest.raises(DataError, match="row 3"):
            parse_readings(text)

    def test_inconsistent_columns(self):
        text = "timestamp,a,b\n2015-01-01T00:00,1\n"
        with pytest.raises(DataError, match="column count at row 2"):
            parse_readings(text)

    def test_negative_reading(self):
        text = "timestamp,a\n2015-01-01T00:00,-1\n"
        with pytest.raises(DataError, match="negative reading at row 2"):
            parse_readings(text)

    def test_signed_reads_negative_cells_and_checks_the_rest(self):
        text = "timestamp,a,b\n2015-01-01T00:00,-1,-0.0\n2015-01-01T00:01,-2.5e-3,4\n"
        values = parse_readings(text, signed=True).values
        assert values.tolist() == [[-1.0, -0.0], [-0.0025, 4.0]]
        assert np.signbit(values[0, 1])
        with pytest.raises(DataError, match="^non-finite reading at row 4, column 1$"):
            parse_readings(text + "2015-01-01T00:02,-inf,1\n", signed=True)

    def test_every_cell_of_a_rejected_column_is_checked(self):
        cells = [b"x", b"1", b"y", b"-2"]
        chars = np.zeros((2, len(cells)), dtype=np.uint8)
        for j, cell in enumerate(cells):
            chars[: len(cell), j] = list(cell)
        length = np.array([len(cell) for cell in cells])
        values, problem = readings_module._convert_cells(chars, length)
        kinds = [readings_module._CELL_PROBLEMS.get(p) for p in problem.tolist()]
        assert kinds == ["malformed", None, "malformed", "negative"]
        np.testing.assert_array_equal(values, [np.nan, 1.0, np.nan, -2.0])

    def test_missing_header(self):
        with pytest.raises(DataError):
            parse_readings("")

    @pytest.mark.parametrize("stamp", ["2015-01-01T00:01+00:00", "2015-01-01T00:01Z"])
    def test_utc_offset_rejected(self, stamp):
        text = f"timestamp,a\n2015-01-01T00:00,1\n{stamp},2\n"
        with pytest.raises(DataError, match="UTC offset at row 3"):
            parse_readings(text)

    def test_line_endings_and_blank_lines(self):
        text = "timestamp,a\r\n\r\n2015-01-01T00:00, 1.5 \r\n2015-01-01 00:01,\n"
        readings = parse_readings(text)
        np.testing.assert_array_equal(readings.values[:, 0], [1.5, np.nan])
        with pytest.raises(DataError, match="negative reading at row 4"):
            parse_readings(
                "timestamp,a\r\n\r\n2015-01-01T00:00,1\r2015-01-01T00:01,-1\n"
            )
        # CR CR is two line ends, and CR CRLF two as well
        with pytest.raises(DataError, match="negative reading at row 5"):
            parse_readings(
                "timestamp,a\r\r2015-01-01T00:00,1\r\r\n2015-01-01T00:01,-1\r"
            )


def _big_file(rows=60_000):
    """Two-meter minute CSV lines; a blank line at index 3 shifts later rows."""
    start = datetime(2015, 1, 1)
    lines = ["timestamp,m1,m2"] + [
        f"{(start + timedelta(minutes=i)).isoformat(timespec='minutes')},1.5,2.5"
        for i in range(rows)
    ]
    lines.insert(3, "")
    return lines


def _set_cell(lines, i, col, value):
    cells = lines[i].split(",")
    cells[col] = value
    lines[i] = ",".join(cells)


def _two_rejected_then_negative(lines, i):
    # column 2 holds two cells the string cast rejects among one it reads,
    # and a later row a negative cell in column 1
    for k, cell in enumerate(("x", "1e0", "y")):
        _set_cell(lines, i + k, 2, cell)
    _set_cell(lines, i + 3, 1, "-1.5")


# fault injected into a line, and the message it must produce at row 50,000
DEEP_FAULTS = {
    "column count": (
        lambda lines, i: lines.__setitem__(i, lines[i] + ",3.5"),
        r"inconsistent column count at row 50000: expected 3, got 4",
    ),
    "malformed timestamp": (
        lambda lines, i: _set_cell(lines, i, 0, "2015-13-01T00:00"),
        r"malformed timestamp at row 50000: '2015-13-01T00:00'",
    ),
    "UTC offset": (
        lambda lines, i: _set_cell(lines, i, 0, lines[i].split(",")[0] + "+01:00"),
        r"timestamp with a UTC offset at row 50000: ",
    ),
    "non-monotonic": (
        lambda lines, i: _set_cell(lines, i, 0, lines[i - 1].split(",")[0]),
        r"non-monotonic timestamp at row 50000$",
    ),
    "malformed reading": (
        lambda lines, i: _set_cell(lines, i, 2, "2.5x"),
        r"malformed reading at row 50000, column 2$",
    ),
    "non-finite reading": (
        lambda lines, i: _set_cell(lines, i, 1, "nan"),
        r"non-finite reading at row 50000, column 1$",
    ),
    "negative reading": (
        lambda lines, i: _set_cell(lines, i, 2, "-2.5"),
        r"negative reading at row 50000, column 2$",
    ),
    "two rejected cells, then a negative one": (
        _two_rejected_then_negative,
        r"malformed reading at row 50000, column 2$",
    ),
}


class TestErrorsDeepInFile:
    @pytest.mark.parametrize("kind", sorted(DEEP_FAULTS))
    def test_names_the_row(self, kind):
        inject, message = DEEP_FAULTS[kind]
        lines = _big_file()
        inject(lines, 49_999)  # row 50,000: the header is row 1
        # a later fault of another kind must not be the one reported
        later = "negative reading" if kind == "column count" else "column count"
        DEEP_FAULTS[later][0](lines, 54_999)
        with pytest.raises(DataError, match=message):
            parse_readings("\n".join(lines) + "\n")


# valid timestamp layouts, and rejected ones
_FORMATS = (
    lambda ts: ts.isoformat(timespec="minutes"),
    lambda ts: ts.isoformat(sep=" ", timespec="seconds"),
    lambda ts: ts.isoformat(timespec="microseconds"),
)
_BAD_TIMESTAMPS = (
    "", "not-a-date", "2015-02-30T00:00", "2015-01-01T24:00", "2015-13-01",
    "2015-01-01T00:00:60", "2015-1-01T00:00", "2015-01-01T00:00:00.",
)
_CELLS = (
    "1.5", "", " ", "0", "-0", "-1", "nan", "inf", "1e3", "abc", " 2.25 ",
    "1e400", "+3", "1_0", ".5", "5.", "-inf", "1.5.2", "0x10", "\t7\t",
)
_ROW = st.tuples(
    st.sampled_from(("next", "next", "next", "next", "same", "bad", "blank",
                     "short", "long")),
    st.integers(0, len(_FORMATS) - 1),
    st.integers(0, len(_BAD_TIMESTAMPS) - 1),
    st.lists(st.sampled_from(_CELLS), min_size=2, max_size=2),
)


def _render(rows):
    return "\n".join(_lines(rows)) + "\n"


def _lines(rows):
    lines = ["timestamp,a,b"]
    minute = 0
    for kind, fmt, bad, cells in rows:
        if kind == "blank":
            lines.append("")
            continue
        minute += kind != "same"
        ts = datetime(2015, 1, 1) + timedelta(minutes=minute, seconds=minute % 7)
        stamp = _BAD_TIMESTAMPS[bad] if kind == "bad" else _FORMATS[fmt](ts)
        cells = {"short": cells[:1], "long": cells + ["1"]}.get(kind, cells)
        lines.append(",".join([stamp] + cells))
    return lines


class TestParseProperties:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(_ROW, max_size=12))
    def test_agrees_with_row_oracle(self, rows):
        text = _render(rows)
        try:
            expected = oracles.parse_rows(text)
        except ValueError as exc:
            with pytest.raises(DataError) as info:
                parse_readings(text)
            assert str(info.value) == str(exc)
            return
        got = parse_readings(text)
        assert got.timestamps.tolist() == [ts for ts, _ in expected]
        want = [[np.nan if v is None else v for v in values] for _, values in expected]
        assert np.array_equal(bits(got.values), bits(want).reshape(-1, 2))

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(
        st.sampled_from(("", "timestamp,a,b\n", "timestamp\n", " timestamp ,a\n")),
        st.lists(
            st.sampled_from(list("0123456789-:T .,\n\r\t+Ze\"\x00é") + [
                "nan", "inf", "2015-01-01T00:0", "timestamp,", "\ud800", "1e999",
            ]),
            max_size=60,
        ),
    )
    def test_returns_or_raises_data_error(self, header, pieces):
        try:
            readings = parse_readings(header + "".join(pieces))
        except DataError:
            return
        assert readings.values.ndim == 2 and len(readings.values) == len(readings)
        assert (np.diff(readings.timestamps) > np.timedelta64(0, "us")).all()
        known = readings.values[~np.isnan(readings.values)]
        assert (np.isfinite(known) & (known >= 0)).all()


# cell spellings beside the random plain decimals: edge cases of the digit
# path (a lone or repeated dot, leading zeros, 15 and 16 digits) and cells
# that only numpy's string cast reads or rejects
SPELLINGS = (
    "5.", ".5", ".", "..", "1.2.3", "007", "0.000", "+1", "-0.0", "1e3", " 1",
    "1 ", "inf", "nan", "1_0", "", "123456.789012345", "925.1070446233593",
)


@st.composite
def _decimal(draw):
    """1 to 17 digits, with or without a dot anywhere among them."""
    digits = draw(st.text("0123456789", min_size=1, max_size=17))
    dot = draw(st.none() | st.integers(0, len(digits)))
    return digits if dot is None else digits[:dot] + "." + digits[dot:]


def _cast_outcome(cells):
    """The parse of one column of `cells` as numpy's string cast reads each
    cell on its own, but for a cell with an underscore, which is malformed:
    the column's bytes, or the first cell's error."""
    values = []
    for row, cell in enumerate(cells, start=2):
        if not cell.strip(" "):
            values.append(np.nan)
            continue
        try:
            if "_" in cell:
                raise ValueError(cell)
            value = np.array([cell.encode()], dtype="S").astype(np.float64)[0]
        except ValueError:
            return f"malformed reading at row {row}, column 1"
        if not np.isfinite(value):
            return f"non-finite reading at row {row}, column 1"
        if value < 0:
            return f"negative reading at row {row}, column 1"
        values.append(value)
    return np.array(values).tobytes()


def _column_outcome(cells):
    stamps = np.datetime64("2015-01-01T00:00") + np.arange(len(cells))
    text = "timestamp,a\n" + "".join(
        f"{stamp},{cell}\n"
        for stamp, cell in zip(np.datetime_as_string(stamps).tolist(), cells)
    )
    try:
        return parse_readings(text).values.tobytes()
    except DataError as exc:
        return str(exc)


class TestCellsAsTheStringCast:
    # plain cells are read by digit arithmetic and the others by numpy's
    # string cast; values and errors must be those of the cast, to the bit
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.lists(_decimal() | st.sampled_from(SPELLINGS), min_size=1, max_size=40))
    def test_random_decimals(self, cells):
        assert _column_outcome(cells) == _cast_outcome(cells)

    @pytest.mark.parametrize("cell", SPELLINGS)
    def test_spelling(self, cell):
        cells = ["68.434", cell, "0.5"]
        assert _column_outcome(cells) == _cast_outcome(cells)


def _outcome(data):
    """A parse's arrays as bytes, or its DataError message."""
    try:
        readings = parse_readings(data)
    except DataError as exc:
        return str(exc)
    return readings.timestamps.tobytes(), readings.values.tobytes(), readings.values.shape


def _minute_csv(rows, meters=6, seed=5) -> bytes:
    rng = np.random.default_rng(seed)
    stamps = np.datetime64("2015-01-01T00:00") + np.arange(rows)
    lines = ["timestamp," + ",".join(f"m{j + 1}" for j in range(meters))] + [
        ",".join([stamp, *(f"{v:.3f}" for v in row)])
        for stamp, row in zip(
            np.datetime_as_string(stamps, unit="m").tolist(),
            rng.uniform(0, 150, (rows, meters)).tolist(),
        )
    ]
    return ("\n".join(lines) + "\n").encode()


class TestBlocks:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        st.lists(_ROW, max_size=12),
        st.lists(st.sampled_from(("\n", "\n", "\r\n", "\r")), min_size=13, max_size=13),
        st.booleans(),
        st.integers(1, 40),
    )
    def test_small_blocks_parse_as_one_block(self, rows, endings, final_newline, block):
        # blank lines, CRLF and lone CR, ragged rows, bad cells and
        # timestamps, and repeated timestamps land on block edges
        lines = _lines(rows)
        text = "".join(line + end for line, end in zip(lines, endings))
        if not final_newline:
            text = text[: -len(endings[len(lines) - 1])]
        data = text.encode()
        whole = _outcome(data)
        # a CRLF is one line end and a lone CR another, each read as an LF
        assert whole == _outcome(text.replace("\r\n", "\n").replace("\r", "\n").encode())
        with mock.patch.object(readings_module, "BLOCK_BYTES", block):
            assert _outcome(data) == whole
        assert _outcome(text) == whole  # a str parses as its UTF-8 bytes

    def test_block_edges_on_a_large_input(self):
        # LF, CRLF, lone CR and a cycle of the three must all parse as LF
        data = _minute_csv(1000)
        whole = _outcome(data)
        lines = data.split(b"\n")
        mixed = itertools.cycle((b"\n", b"\r\n", b"\r"))
        variants = [data, data.replace(b"\n", b"\r\n"), data.replace(b"\n", b"\r"),
                    b"".join(line + next(mixed) for line in lines[:-1])]
        # in the CRLF input, the first block's bytes stop between the CR and
        # the LF of data row 49 with this size, and just after the LF with
        # one more
        width = len(b"\r\n".join(lines[1:50])) + 1
        for variant in variants:
            for block in (1, 59, 60, 61, width, width + 1, 4096):
                with mock.patch.object(readings_module, "BLOCK_BYTES", block):
                    assert _outcome(variant) == whole

    @pytest.mark.parametrize("line_end", [b"\n", b"\r\n", b"\r"])
    def test_peak_memory_is_the_result_and_a_few_blocks(self, monkeypatch, line_end):
        # the input's bytes are allocated before tracing starts; the parse
        # itself holds the result and one block's temporaries, where a
        # whole-input parse held position arrays and byte matrices of every
        # row (about six times the input)
        block = 1 << 16
        data = _minute_csv(60_000).replace(b"\n", line_end)
        assert len(data) > 50 * block
        monkeypatch.setattr(readings_module, "BLOCK_BYTES", block)
        tracemalloc.start()
        try:
            readings = parse_readings(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        result = readings.timestamps.nbytes + readings.values.nbytes
        assert peak < result + 16 * block

    def test_not_utf8_in_a_later_block(self, monkeypatch):
        good = _minute_csv(200)
        monkeypatch.setattr(readings_module, "BLOCK_BYTES", 64)
        for bad in (b"\xff", b"\xc3(", b"\xed\xa0\x80", b"\xe2\x82"):
            data = good + b"2015-01-02T00:00,1," + bad
            with pytest.raises(UnicodeDecodeError) as whole:
                data.decode("utf-8")
            with pytest.raises(UnicodeDecodeError) as info:
                parse_readings(data)
            assert str(info.value) == str(whole.value)
            assert info.value.start > 64

    def test_utf8_beyond_ascii(self, monkeypatch):
        monkeypatch.setattr(readings_module, "BLOCK_BYTES", 8)
        data = "timestamp,zähler,m²\n2015-01-01T00:00,1,2\n".encode()
        assert len(parse_readings(data)) == 1
        with pytest.raises(DataError, match="^malformed reading at row 3, column 1$"):
            parse_readings(data + "2015-01-01T00:01,1é,2\n".encode())


class TestGranularity:
    def test_must_divide_day(self):
        with pytest.raises(ConfigError):
            Granularity(7)

    def test_positive(self):
        with pytest.raises(ConfigError):
            Granularity(0)


class TestInterpolate:
    def _col(self, values, start=datetime(2015, 1, 1)):
        return readings_of(minutes(start, len(values)), [(v,) for v in values])

    def test_midpoint(self):
        out = interpolate_nulls(self._col([1.0, None, 3.0]))
        assert out.values[:, 0].tolist() == [1.0, 2.0, 3.0]

    def test_edge_fill(self):
        out = interpolate_nulls(self._col([None, 4.0, 4.0, None]))
        assert out.values[:, 0].tolist() == [4.0, 4.0, 4.0, 4.0]

    def test_linear_formula(self):
        # v(t) = v0 + (v1 - v0) * (t - t0) / (t1 - t0), by hand: 0,3,6,9
        out = interpolate_nulls(self._col([0.0, None, None, 9.0]))
        assert out.values[:, 0].tolist() == [0.0, 3.0, 6.0, 9.0]

    def test_respects_minute_distance(self):
        # gap of 10 minutes between anchors, null at minute 4: 0 + 10*4/10
        start = datetime(2015, 1, 1)
        readings = readings_of(
            [start, start + timedelta(minutes=4), start + timedelta(minutes=10)],
            [(0.0,), (None,), (10.0,)],
        )
        out = interpolate_nulls(readings)
        assert out.values[1, 0] == pytest.approx(4.0)

    def test_entirely_null_column(self):
        readings = readings_of(
            [datetime(2015, 1, 1), datetime(2015, 1, 1, 0, 1)],
            [(1.0, None), (2.0, None)],
        )
        with pytest.raises(DataError, match="column 2"):
            interpolate_nulls(readings)

    def test_idempotent_and_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = rng.integers(3, 40)
            vals = [float(v) for v in rng.uniform(0, 100, n)]
            for i in rng.choice(n, size=max(1, n // 3), replace=False):
                vals[i] = None
            if all(v is None for v in vals):
                vals[0] = 5.0
            readings = self._col(vals)
            once = interpolate_nulls(readings)
            twice = interpolate_nulls(once)
            assert not np.isnan(once.values).any()
            # existing values bit-identical, repair idempotent
            for v, o in zip(vals, once.values[:, 0]):
                if v is not None:
                    assert o == v
            assert np.array_equal(once.values, twice.values)
            # every repaired value within its anchoring neighbours
            known = [i for i, v in enumerate(vals) if v is not None]
            for i, v in enumerate(vals):
                if v is not None:
                    continue
                before = [j for j in known if j < i]
                after = [j for j in known if j > i]
                anchors = []
                if before:
                    anchors.append(vals[before[-1]])
                if after:
                    anchors.append(vals[after[0]])
                assert min(anchors) - 1e-12 <= once.values[i, 0] <= max(anchors) + 1e-12


def bucket_records(readings, granularity):
    """aggregate's output as one (bucket_start, target) namespace per
    bucket."""
    buckets = aggregate(readings, granularity)
    assert buckets.values.shape == (len(buckets), 1)
    return [
        SimpleNamespace(bucket_start=start, target=target)
        for start, target in zip(buckets.timestamps.tolist(), buckets.values[:, 0].tolist())
    ]


class TestAggregate:
    def test_constant_hour(self):
        start = datetime(2015, 1, 1, 10, 0)
        readings = readings_of(minutes(start, 60), [(5.0,)] * 60)
        records = bucket_records(readings, Granularity(60))
        assert len(records) == 1
        assert records[0].target == 5.0
        assert records[0].bucket_start == datetime(2015, 1, 1, 10, 0)

    def test_index_formula(self):
        readings = readings_of([datetime(2015, 1, 1, 10, 30)], [(1.0,)])
        records = bucket_records(readings, Granularity(60))
        # floor(630 / 60) = 10: the bucket that starts at 10:00
        assert records[0].bucket_start == datetime(2015, 1, 1, 10, 0)

    def test_sum_across_meters(self):
        start = datetime(2015, 1, 1)
        readings = readings_of(minutes(start, 1440), [(2.0, 3.0)] * 1440)
        records = bucket_records(readings, Granularity(1440))
        assert len(records) == 1
        assert records[0].bucket_start == start
        assert records[0].target == pytest.approx(5.0)

    def test_rejects_nulls(self):
        readings = readings_of([datetime(2015, 1, 1)], [(None,)])
        with pytest.raises(DataError, match="null reading"):
            aggregate(readings, Granularity(60))

    def test_chronological_output(self):
        start = datetime(2015, 1, 1)
        readings = readings_of(
            minutes(start, 3 * 1440), [(float(i),) for i in range(3 * 1440)]
        )
        records = bucket_records(readings, Granularity(60))
        starts = [r.bucket_start for r in records]
        assert starts == sorted(starts)
        assert len(records) == 72

    def test_empty(self):
        empty = Readings(np.array([], dtype="datetime64[us]"), np.empty((0, 1)))
        assert bucket_records(interpolate_nulls(empty), Granularity(60)) == []


def _gappy_csv(seed):
    """Three meters over about three days, starting and ending mid-bucket,
    with 2 % null cells, single missing minutes, a missing 97-minute stretch
    and some rows carrying seconds or microseconds."""
    rng = np.random.default_rng(seed)
    start = datetime(2015, 2, 27, 21, 7)
    keep = rng.random(3 * 1440 + 311) > 0.05
    keep[1000:1097] = False
    lines = ["timestamp,m1,m2,m3"]
    for i in np.flatnonzero(keep):
        ts = start + timedelta(
            minutes=int(i),
            seconds=int(i % 11 == 0) * 30,
            microseconds=int(i % 3 == 0) * int(i * 7919 % 1_000_000),
        )
        cells = [
            "" if rng.random() < 0.02 else f"{v:.3f}" for v in rng.uniform(0, 150, 3)
        ]
        lines.append(",".join([ts.isoformat()] + cells))
    return "\n".join(lines) + "\n"


class TestAgainstRowOracle:
    @pytest.mark.parametrize("g", [1, 15, 60, 1440])
    def test_bucket_means_bit_identical(self, g):
        for seed in (1, 2, 3):
            text = _gappy_csv(seed)
            rows = oracles.parse_rows(text)
            repaired = oracles.interpolate_rows(rows)
            expected = oracles.bucket_means(repaired, g)

            readings = parse_readings(text)
            filled = interpolate_nulls(readings)
            records = bucket_records(filled, Granularity(g))

            nulls = [[np.nan if v is None else v for v in vals] for _, vals in rows]
            assert np.array_equal(bits(readings.values), bits(nulls))
            assert np.array_equal(bits(filled.values), bits([v for _, v in repaired]))
            assert len(records) == len(expected)
            for record, (start, mean) in zip(records, expected):
                assert record.bucket_start == start
                assert record.target.hex() == mean.hex()
            sizes = {}
            for ts, _ in rows:
                key = (ts.date(), (ts.hour * 60 + ts.minute) // g)
                sizes[key] = sizes.get(key, 0) + 1
            if g > 1:  # the input exercises partial buckets
                assert any(n != g for n in sizes.values())


def _block_first_rows(data, block):
    """Row number of each block's first row when `data` is parsed in blocks of
    about `block` bytes (the header is row 1; no blank lines)."""
    with mock.patch.object(readings_module, "BLOCK_BYTES", block):
        blocks = readings_module._blocks(data, data.index(b"\n") + 1)
    rows, first = [], 2
    for buf, size in blocks:
        rows.append(first)
        first += buf[:size].tobytes().count(b"\n") + 1
    return rows


class TestTwoWorkers:
    """Blocks parsed on two threads, whatever this machine's CPUs."""

    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        monkeypatch.setattr(readings_module, "parse_workers", lambda: 2)

    def test_worker_count(self, monkeypatch):
        monkeypatch.undo()
        workers = readings_module.parse_workers()
        assert 1 <= workers <= 2
        if hasattr(readings_module.os, "sched_getaffinity"):
            assert workers <= len(readings_module.os.sched_getaffinity(0))
        monkeypatch.delattr(readings_module.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(readings_module.os, "cpu_count", lambda: 1)
        assert readings_module.parse_workers() == 1

    def test_no_pool_for_one_block_or_one_worker(self, monkeypatch):
        def no_pool(*args):
            raise AssertionError("a pool was created")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        data = _minute_csv(300)
        whole = _outcome(data)
        monkeypatch.setattr(readings_module, "parse_workers", lambda: 1)
        monkeypatch.setattr(readings_module, "BLOCK_BYTES", 512)
        assert _outcome(data) == whole

    def test_many_blocks_parse_as_one(self, monkeypatch):
        data = _minute_csv(3000)
        whole = _outcome(data)
        for block in (4096, 4097, 50_000):
            monkeypatch.setattr(readings_module, "BLOCK_BYTES", block)
            assert _outcome(data) == whole
            assert _outcome(data.replace(b"\n", b"\r\n")) == whole

    @pytest.mark.parametrize("earlier, later", [
        ("negative reading", "malformed timestamp"),
        ("malformed timestamp", "negative reading"),
        ("column count", "non-monotonic"),
    ])
    def test_the_earlier_block_s_error_is_raised(self, monkeypatch, earlier, later):
        # blocks 4 and 5 go to different workers; the later block's fault is
        # on its first row and the earlier block's on its last, so the later
        # block may well fail first
        lines = _big_file(6000)
        data = ("\n".join(lines) + "\n").encode()
        block = 8192
        firsts = _block_first_rows(data, block)
        assert len(firsts) > 10
        DEEP_FAULTS[earlier][0](lines, firsts[5] - 2)  # the last row of block 4
        DEEP_FAULTS[later][0](lines, firsts[5] - 1)  # the first row of block 5
        monkeypatch.setattr(readings_module, "BLOCK_BYTES", block)
        with pytest.raises(DataError) as info:
            parse_readings("\n".join(lines) + "\n")
        message = DEEP_FAULTS[earlier][1].replace("50000", str(firsts[5] - 1))
        assert re.match(message, str(info.value))

    @pytest.mark.parametrize("step", [0, -1])
    def test_repeated_or_earlier_stamp_on_a_block_edge(self, monkeypatch, step):
        lines = _big_file(6000)[:3] + _big_file(6000)[4:]  # no blank line
        data = ("\n".join(lines) + "\n").encode()
        block = 8192
        edge = _block_first_rows(data, block)[3]  # row number, line index - 1
        stamp = datetime.fromisoformat(lines[edge - 2].split(",")[0])
        _set_cell(lines, edge - 1, 0, (stamp + timedelta(minutes=step)).isoformat())
        _set_cell(lines, edge + 500, 1, "-1")  # a later block's fault
        monkeypatch.setattr(readings_module, "BLOCK_BYTES", block)
        with pytest.raises(DataError, match=f"^non-monotonic timestamp at row {edge}$"):
            parse_readings("\n".join(lines) + "\n")

    def test_repeated_stamp_where_a_run_of_rows_starts(self, monkeypatch):
        # a block's rows are parsed in runs of BLOCK_BYTES / _RUNS bytes; the
        # first row of the second run repeats the stamp before it
        lines = _big_file(2000)[:3] + _big_file(2000)[4:]  # no blank line
        block = 8192
        run = block // readings_module._RUNS
        offsets = np.cumsum([len(line) + 1 for line in lines[:-1]])
        edge = int(np.argmax(offsets - offsets[0] >= run)) + 2  # a row number
        _set_cell(lines, edge - 1, 0, lines[edge - 2].split(",")[0])
        monkeypatch.setattr(readings_module, "BLOCK_BYTES", block)
        with pytest.raises(DataError, match=f"^non-monotonic timestamp at row {edge}$"):
            parse_readings("\n".join(lines) + "\n")

    @pytest.mark.parametrize("g", [1, 15, 1440])
    def test_bucket_means_bit_identical_across_blocks(self, monkeypatch, g):
        monkeypatch.setattr(readings_module, "BLOCK_BYTES", 4096)
        text = _gappy_csv(4)
        rows = oracles.parse_rows(text)
        repaired = oracles.interpolate_rows(rows)
        readings = parse_readings(text)
        filled = interpolate_nulls(readings)
        nulls = [[np.nan if v is None else v for v in vals] for _, vals in rows]
        assert np.array_equal(bits(readings.values), bits(nulls))
        assert np.array_equal(bits(filled.values), bits([v for _, v in repaired]))
        got = [(r.bucket_start, r.target.hex())
               for r in bucket_records(filled, Granularity(g))]
        assert got == [(s, m.hex()) for s, m in oracles.bucket_means(repaired, g)]

    def test_null_runs_at_the_ends_and_longer_than_a_block(self, monkeypatch):
        monkeypatch.setattr(readings_module, "BLOCK_BYTES", 2048)
        rng = np.random.default_rng(8)
        n = 3000
        cells = rng.uniform(0, 150, (n, 3)).round(3).astype(str)
        cells[:40, 0] = ""  # leading
        cells[-25:, 1] = ""  # trailing
        cells[500:900, 2] = ""  # about 16 blocks long
        cells[1000:1400, 0] = ""
        cells[1401:1500, 0] = ""  # one known row between two runs
        stamps = np.datetime64("2015-06-01T00:00") + np.arange(n) * np.timedelta64(61, "s")
        text = "timestamp,a,b,c\n" + "".join(
            f"{stamp},{','.join(row)}\n"
            for stamp, row in zip(np.datetime_as_string(stamps).tolist(), cells.tolist())
        )
        assert len(text) > 40 * 2048
        filled = interpolate_nulls(parse_readings(text))
        repaired = oracles.interpolate_rows(oracles.parse_rows(text))
        assert np.array_equal(bits(filled.values), bits([v for _, v in repaired]))

    def test_peak_memory_with_two_workers(self, monkeypatch):
        block = 1 << 16
        data = _minute_csv(60_000)
        monkeypatch.setattr(readings_module, "BLOCK_BYTES", block)
        tracemalloc.start()
        try:
            readings = parse_readings(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        result = readings.timestamps.nbytes + readings.values.nbytes
        assert peak < result + 16 * block


class TestByteOrderMark:
    BOM = b"\xef\xbb\xbf"

    def test_parses_as_without_one(self):
        data = _minute_csv(200)
        assert _outcome(self.BOM + data) == _outcome(data)
        assert _outcome((self.BOM + data).decode("utf-8")) == _outcome(data)
        # rows and columns are numbered as without the mark
        bad = data + b"2015-01-02T00:00,1,2,3,4,-5,6\n"
        assert _outcome(self.BOM + bad) == _outcome(bad)
        assert _outcome(bad) == "negative reading at row 202, column 5"

    def test_utf8_errors_count_from_the_first_byte(self):
        data = self.BOM + _minute_csv(20) + b"2015-01-02T00:00,1,\xff\n"
        with pytest.raises(UnicodeDecodeError) as whole:
            data.decode("utf-8")
        with pytest.raises(UnicodeDecodeError) as info:
            parse_readings(data)
        assert str(info.value) == str(whole.value)

    def test_only_a_leading_mark_is_skipped(self):
        for data in (self.BOM, self.BOM + b"\n", b"\n" + self.BOM + b"timestamp,a\n"):
            with pytest.raises(DataError):
                parse_readings(data)


def test_bucket_keys_before_1970_with_seconds():
    # the floor division keys stamps before the epoch, with seconds and
    # microseconds, into the buckets of their own date and minute
    start = datetime(1969, 12, 30, 22, 58, 59)
    stamps = [start + timedelta(seconds=37 * i, microseconds=i % 3 * 250_000)
              for i in range(300)]
    rows = [(ts, (float(i % 17), 0.5)) for i, ts in enumerate(stamps)]
    readings = readings_of(stamps, [values for _, values in rows])
    for g in (1, 15, 60, 1440):
        got = [(r.bucket_start, r.target.hex())
               for r in bucket_records(readings, Granularity(g))]
        assert got == [(s, m.hex()) for s, m in oracles.bucket_means(rows, g)]
