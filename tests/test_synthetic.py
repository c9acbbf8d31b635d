import hashlib
import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from loadcast.errors import ConfigError
from loadcast.readings import parse_readings
from loadcast.synthetic import SyntheticSpec, _block_days, format_cells, generate_synthetic


def test_deterministic_noise_free_day(tmp_path):
    spec = SyntheticSpec(
        start=date(2015, 1, 1), days=1, meters=1, noise_std=0.0, null_rate=0.0, seed=1
    )
    path = generate_synthetic(spec, tmp_path / "one.csv")
    readings = parse_readings(path.read_text())
    assert len(readings) == 1440
    values = readings.values[:, 0]
    assert not np.isnan(values).any() and (values >= 0).all()
    # noise-free: the smooth daily component peaks a quarter of the way in
    assert values[360] == values.max()


def test_null_rate_within_binomial_band(tmp_path):
    spec = SyntheticSpec(days=10, meters=1, null_rate=0.01, seed=7)
    path = generate_synthetic(spec, tmp_path / "nulls.csv")
    readings = parse_readings(path.read_text())
    nulls = int(np.isnan(readings.values[:, 0]).sum())
    n = 10 * 1440
    sigma = math.sqrt(n * 0.01 * 0.99)
    assert abs(nulls - n * 0.01) <= 3 * sigma


def test_same_seed_identical_files(tmp_path):
    spec = SyntheticSpec(days=2, meters=3, null_rate=0.02, seed=5)
    a = generate_synthetic(spec, tmp_path / "a.csv")
    b = generate_synthetic(spec, tmp_path / "b.csv")
    assert a.read_bytes() == b.read_bytes()


def test_different_seed_differs(tmp_path):
    a = generate_synthetic(SyntheticSpec(days=1, seed=1), tmp_path / "a.csv")
    b = generate_synthetic(SyntheticSpec(days=1, seed=2), tmp_path / "b.csv")
    assert a.read_bytes() != b.read_bytes()


def test_weekend_step_lowers_level(tmp_path):
    # 2015-01-03 is a Saturday; with no noise the weekend day sits lower
    spec = SyntheticSpec(
        start=date(2015, 1, 2), days=2, meters=1, noise_std=0.0, seed=0
    )
    path = generate_synthetic(spec, tmp_path / "wk.csv")
    readings = parse_readings(path.read_text())
    friday = readings.values[:1440, 0]
    saturday = readings.values[1440:, 0]
    assert sum(saturday) < sum(friday)


def test_header_names_meters(tmp_path):
    path = generate_synthetic(SyntheticSpec(days=1, meters=2), tmp_path / "h.csv")
    header = path.read_text().splitlines()[0]
    assert header == "timestamp,meter_1,meter_2"


def test_spec_validation():
    with pytest.raises(ConfigError):
        SyntheticSpec(days=0)
    with pytest.raises(ConfigError):
        SyntheticSpec(meters=0)
    with pytest.raises(ConfigError):
        SyntheticSpec(null_rate=1.0)
    with pytest.raises(ConfigError):
        SyntheticSpec(noise_std=-1.0)
    for name in ("base_kw", "daily_amplitude", "weekly_amplitude",
                 "seasonal_amplitude", "noise_std"):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigError, match=f"{name} must be finite"):
                SyntheticSpec(**{name: bad})
    with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
        SyntheticSpec(seed=-1)


def _texts(values):
    fields = format_cells(np.asarray(values, dtype=float))
    return [c[c != 0].tobytes().decode() for c in fields]


class TestFormatCells:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.floats(0.0, 1e9), min_size=1, max_size=20))
    def test_equals_python_format(self, values):
        assert _texts(values) == [f"{v:.3f}" for v in values]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(st.integers(0, 2**32), st.integers(0, 10**12)), st.integers(0, 4))
    def test_values_on_a_half_and_their_neighbours(self, k, steps):
        half = (k + 0.5) / 1000
        values = [half]
        for direction in (0.0, np.inf):
            v = half
            for _ in range(steps + 1):
                v = float(np.nextafter(v, direction))
                values.append(v)
        assert _texts(values) == [f"{v:.3f}" for v in values]

    def test_exact_binary_halves(self):
        # v * 1000 is exactly k + 0.5 only for odd multiples of 1/16; :.3f
        # rounds those ties to even
        values = [m / 16 for m in range(1, 400, 2)] + [12345.0625, 4294967.3125, 1e6 + 0.9375]
        assert _texts(values) == [f"{v:.3f}" for v in values]
        assert _texts([0.0625, 0.1875]) == ["0.062", "0.188"]

    def test_mixed_widths_in_one_call(self):
        # whole parts of 1 to 8 digits, on both sides of each 4-digit group
        # boundary, formatted together: no cell takes another's width
        values = [5.0, 12345.678, 0.25, 10000.0, 9999.9994, 99999999.999, 4294967.3125,
                  1000.5, 999.999, 42.042, 10042.0, 1234567.891, 0.0]
        assert _texts(values) == [f"{v:.3f}" for v in values]
        assert _texts(values[::-1]) == [f"{v:.3f}" for v in values[::-1]]

    def test_cells_left_to_python(self):
        values = [0.0, -0.0, 0.0004999, 9.9995, 2.0 ** 32 / 1000, 1e10 + 0.5, 2.0 ** 53, 1e20,
                  np.inf, np.nan]
        assert _texts(values) == [f"{v:.3f}" for v in values]


# start dates whose spans cross a leap day or a year end
_CROSSINGS = (date(2016, 2, 29), date(2000, 2, 29), date(2015, 12, 31), date(2023, 12, 31))
_LEVELS = st.one_of(st.just(0.0), st.floats(0.0, 50.0))


@st.composite
def _specs(draw):
    days = draw(st.integers(1, 40))
    crossing = draw(st.sampled_from(_CROSSINGS))
    return SyntheticSpec(
        start=crossing - timedelta(days=draw(st.integers(0, days - 1))),
        days=days,
        meters=draw(st.integers(1, 8)),
        base_kw=draw(st.one_of(st.just(0.0), st.floats(0.0, 100.0), st.floats(0.0, 1e6))),
        daily_amplitude=draw(_LEVELS),
        weekly_amplitude=draw(_LEVELS),
        seasonal_amplitude=draw(_LEVELS),
        noise_std=draw(st.one_of(st.just(0.0), st.floats(0.0, 200.0))),
        null_rate=draw(st.one_of(st.just(0.0), st.floats(0.001, 0.5))),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=12, deadline=None, derandomize=True)
@given(_specs())
def test_same_bytes_as_the_row_by_row_writer(tmp_path_factory, spec):
    work = tmp_path_factory.mktemp("synth")
    got = generate_synthetic(spec, work / "got.csv").read_bytes()
    want = oracles.row_by_row_synthetic(spec, work / "want.csv").read_bytes()
    assert got == want


@pytest.mark.parametrize("base_kw, widths", [(990.0625, [3, 4, 4]), (9990.0625, [4, 5, 5])])
def test_block_edges_match_the_row_by_row_writer(tmp_path, base_kw, widths):
    # three blocks, the last of 7 days. The level climbs past 1000 (or
    # 10000) kW in the second block, so its cells are one digit wider than
    # the first block's; the first minute, 2015-12-31T00:00, is base_kw + 0.5,
    # a half in thousandths, which Python formats; seed 54 nulls a cell in
    # the last and the first minute at each block edge.
    block = _block_days(2)
    spec = SyntheticSpec(start=date(2015, 12, 31), days=2 * block + 7, meters=2,
                         base_kw=base_kw, daily_amplitude=1.0, weekly_amplitude=0.5,
                         seasonal_amplitude=20.0, noise_std=0.0, null_rate=0.2, seed=54)
    got = generate_synthetic(spec, tmp_path / "got.csv").read_bytes()
    want = oracles.row_by_row_synthetic(spec, tmp_path / "want.csv").read_bytes()
    assert got == want

    rows = [line.split(b",")[1:] for line in got.splitlines()[1:]]
    assert (base_kw + 0.5) * 1000 % 1 == 0.5
    assert rows[0] == [f"{base_kw + 0.5:.3f}".encode()] * 2
    for edge in (block, 2 * block):
        assert b"" in rows[edge * 1440 - 1] and b"" in rows[edge * 1440]
    assert [max(len(cell.split(b".")[0]) for row in rows[b * 1440 : (b + block) * 1440]
                for cell in row if cell)
            for b in (0, block, 2 * block)] == widths


def test_pinned_digest(tmp_path):
    # written by the row-by-row writer before the byte-matrix writer replaced it
    spec = SyntheticSpec(days=3, meters=2, null_rate=0.05, seed=11)
    data = generate_synthetic(spec, tmp_path / "pinned.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == (
        "018a75ed15f4b0f3adc0f1b1e7a176311ba75fb271d288fa01def9a7c6254211"
    )
