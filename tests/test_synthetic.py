import math
from datetime import date

import numpy as np
import pytest

from loadcast.errors import ConfigError
from loadcast.readings import parse_readings
from loadcast.synthetic import SyntheticSpec, generate_synthetic


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
