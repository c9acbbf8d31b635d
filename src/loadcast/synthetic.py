"""Synthetic minute-level meter data with daily, weekly, and seasonal shape.

Stands in for a real year of building telemetry: per-minute, per-meter kW
values built from a base level plus seasonal and daily sinusoids, a
weekday/weekend step, and Gaussian noise, clipped at zero. Nulls can be
injected at a configurable rate to exercise the repair path.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class SyntheticSpec:
    start: date = date(2015, 1, 1)
    days: int = 365
    meters: int = 6
    base_kw: float = 60.0
    daily_amplitude: float = 20.0
    weekly_amplitude: float = 8.0
    seasonal_amplitude: float = 25.0
    noise_std: float = 3.0
    null_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.days < 1:
            raise ConfigError(f"days must be >= 1, got {self.days}")
        if self.meters < 1:
            raise ConfigError(f"meters must be >= 1, got {self.meters}")
        try:
            self.start + timedelta(days=self.days - 1)
        except OverflowError:
            raise ConfigError(f"{self.days} days from {self.start} end past {date.max}")
        for name in ("base_kw", "daily_amplitude", "weekly_amplitude",
                     "seasonal_amplitude", "noise_std"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("daily_amplitude", "weekly_amplitude", "seasonal_amplitude"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.noise_std < 0:
            raise ConfigError(f"noise_std must be >= 0, got {self.noise_std}")
        if not 0.0 <= self.null_rate < 1.0:
            raise ConfigError(f"null_rate must be in [0,1), got {self.null_rate}")


def generate_synthetic(spec: SyntheticSpec, out_path) -> Path:
    """Write the minute-level CSV for `spec`; deterministic given the seed."""
    out_path = Path(out_path)
    rng = np.random.default_rng(spec.seed)
    minutes = np.arange(1440)
    daily_wave = spec.daily_amplitude * np.sin(2 * np.pi * minutes / 1440.0)
    time_strings = [f"{m // 60:02d}:{m % 60:02d}" for m in minutes]

    with out_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp"] + [f"meter_{j + 1}" for j in range(spec.meters)])
        for d in range(spec.days):
            day = spec.start + timedelta(days=d)
            doy = day.timetuple().tm_yday
            seasonal = spec.seasonal_amplitude * np.sin(2 * np.pi * doy / 365.0)
            weekly = -spec.weekly_amplitude if day.weekday() >= 5 else spec.weekly_amplitude
            level = spec.base_kw + seasonal + weekly + daily_wave
            values = level[:, None] + rng.normal(0.0, spec.noise_std, (1440, spec.meters))
            np.clip(values, 0.0, None, out=values)
            nulls = (
                rng.random((1440, spec.meters)) < spec.null_rate
                if spec.null_rate > 0
                else None
            )
            day_str = day.isoformat()
            for m in range(1440):
                row = [f"{day_str}T{time_strings[m]}"]
                for j in range(spec.meters):
                    if nulls is not None and nulls[m, j]:
                        row.append("")
                    else:
                        row.append(f"{values[m, j]:.3f}")
                writer.writerow(row)
    return out_path
