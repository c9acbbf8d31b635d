import hashlib
import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from loadcast.errors import ConfigError
from loadcast.readings import parse_readings
from loadcast.synthetic import SyntheticSpec, format_cells, generate_synthetic


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


def _texts(values):
    chars, keep = format_cells(np.asarray(values, dtype=float))
    return [c[k].tobytes().decode() for c, k in zip(chars, keep)]


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


def test_pinned_digest(tmp_path):
    # written by the row-by-row writer before the byte-matrix writer replaced it
    spec = SyntheticSpec(days=3, meters=2, null_rate=0.05, seed=11)
    data = generate_synthetic(spec, tmp_path / "pinned.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == (
        "018a75ed15f4b0f3adc0f1b1e7a176311ba75fb271d288fa01def9a7c6254211"
    )
