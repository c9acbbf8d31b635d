"""Synthetic minute-level meter data with daily, weekly, and seasonal shape.

Stands in for a real year of building telemetry: per-minute, per-meter kW
values built from a base level plus seasonal and daily sinusoids, a
weekday/weekend step, and Gaussian noise, clipped at zero. Nulls can be
injected at a configurable rate to exercise the repair path.
"""
from __future__ import annotations

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


# Below this, values * 1000 is within half an ulp (at most 2**-22, about
# 2.4e-7) of the exact product, so away from the halves rounding it to an
# integer gives the same thousandths as Python's correctly rounded :.3f.
_EXACT_LIMIT = 2.0 ** 32
_HALF_MARGIN = 1e-6
_POW10 = 10 ** np.arange(10, dtype=np.int64)


def format_cells(values: np.ndarray):
    """Each float of `values` as `f"{v:.3f}"`, right-aligned in a fixed-width
    field: returns `(chars, keep)`, uint8 and bool arrays with one more axis
    than `values`, and a cell's text is `chars[..., keep]` along that axis.

    Cells are rounded as integers (`values * 1000`). A cell within
    `_HALF_MARGIN` of a half, at or above `_EXACT_LIMIT`, negative or not
    finite is formatted by Python instead."""
    with np.errstate(invalid="ignore", over="ignore"):
        x = values * 1000.0
        python = ~(
            (x < _EXACT_LIMIT)
            & ~np.signbit(x)
            & (np.abs(x - np.floor(x) - 0.5) >= _HALF_MARGIN)
        )
    whole, thousandths = np.divmod(np.rint(np.where(python, 0.0, x)).astype(np.int64), 1000)
    n_whole = max(1, int(np.searchsorted(_POW10, whole.max(initial=0), side="right")))
    texts = [f"{v:.3f}".encode() for v in values[python].tolist()]
    width = max([n_whole + 4] + [len(t) for t in texts])

    chars = np.zeros(values.shape + (width,), np.uint8)
    keep = np.ones(values.shape + (width,), bool)
    keep[..., : width - n_whole - 4] = False
    for p in range(n_whole):
        col = width - 5 - p
        chars[..., col] = 48 + whole // _POW10[p] % 10
        if p:
            keep[..., col] = whole >= _POW10[p]
    chars[..., width - 4] = ord(".")
    chars[..., width - 3] = 48 + thousandths // 100
    chars[..., width - 2] = 48 + thousandths // 10 % 10
    chars[..., width - 1] = 48 + thousandths % 10
    if texts:
        padded = np.frombuffer(b"".join(t.rjust(width) for t in texts), np.uint8)
        padded = padded.reshape(len(texts), width)
        chars[python] = padded
        keep[python] = padded != ord(" ")
    return chars, keep


def _csv_lines(stamps: np.ndarray, chars: np.ndarray, keep: np.ndarray) -> bytes:
    """CSV lines as bytes: each row's stamp, then `,` and the kept characters
    of each of its cells (`format_cells` fields, one per meter), then CRLF."""
    n, meters, _ = chars.shape
    comma = np.full((n, meters, 1), ord(","), np.uint8)
    crlf = np.broadcast_to(np.frombuffer(b"\r\n", np.uint8), (n, 2))
    text = np.hstack([stamps, np.concatenate([comma, chars], axis=2).reshape(n, -1), crlf])
    mask = np.hstack([
        np.ones(stamps.shape, bool),
        np.concatenate([np.ones(comma.shape, bool), keep], axis=2).reshape(n, -1),
        np.ones(crlf.shape, bool),
    ])
    return text[mask].tobytes()


def generate_synthetic(spec: SyntheticSpec, out_path) -> Path:
    """Write the minute-level CSV for `spec`; deterministic given the seed.

    One day at a time: its values, then its nulls, are drawn from the one
    generator, and the day is written as a single block of bytes."""
    out_path = Path(out_path)
    rng = np.random.default_rng(spec.seed)
    minutes = np.arange(1440)
    daily_wave = spec.daily_amplitude * np.sin(2 * np.pi * minutes / 1440.0)
    clock = "".join(f"T{m // 60:02d}:{m % 60:02d}" for m in minutes)
    clock = np.frombuffer(clock.encode(), np.uint8).reshape(1440, 6)

    with out_path.open("wb") as fh:
        header = ",".join(["timestamp"] + [f"meter_{j + 1}" for j in range(spec.meters)])
        fh.write(f"{header}\r\n".encode())
        for d in range(spec.days):
            day = spec.start + timedelta(days=d)
            doy = day.timetuple().tm_yday
            seasonal = spec.seasonal_amplitude * np.sin(2 * np.pi * doy / 365.0)
            weekly = -spec.weekly_amplitude if day.weekday() >= 5 else spec.weekly_amplitude
            level = spec.base_kw + seasonal + weekly + daily_wave
            values = level[:, None] + rng.normal(0.0, spec.noise_std, (1440, spec.meters))
            np.clip(values, 0.0, None, out=values)
            chars, keep = format_cells(values)
            if spec.null_rate > 0:
                keep[rng.random((1440, spec.meters)) < spec.null_rate] = False
            date_chars = np.frombuffer(day.isoformat().encode(), np.uint8)
            stamps = np.hstack([np.broadcast_to(date_chars, (1440, 10)), clock])
            fh.write(_csv_lines(stamps, chars, keep))
    return out_path
