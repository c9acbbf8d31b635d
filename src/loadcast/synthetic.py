"""Synthetic minute-level meter data with daily, weekly, and seasonal shape.

Stands in for a real year of building telemetry: per-minute, per-meter kW
values built from a base level plus seasonal and daily sinusoids, a
weekday/weekend step, and Gaussian noise, clipped at zero. Nulls can be
injected at a configurable rate to exercise the repair path.

The CSV is built from arrays, a block of days at a time: `format_cells`
writes each cell's `f"{v:.3f}"` text right-aligned in NULs in a fixed-width
field from table lookups, a null is an all-NUL field, and `_csv_lines` lays
the stamps, commas, fields and line ends out in one byte buffer and drops
every NUL in one pass.
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
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


# Below this, values * 1000 is within half an ulp (at most 2**-22, about
# 2.4e-7) of the exact product, so away from the halves rounding it to an
# integer gives the same thousandths as Python's correctly rounded :.3f, and
# the integer fits in a uint32. A non-negative double's bits, read as an
# integer, order as its value does; NaN and negative ones read larger.
_EXACT_LIMIT = np.float64(2 ** 32 - 1).view(np.uint64)
_HALF_MARGIN = 1e-6
# bytes of CSV lines formatted and written at once: a block of whole days
BLOCK_BYTES = 1 << 20


def _words(chars) -> np.ndarray:
    """Each row of 4 bytes as one uint32, so one lookup writes 4 characters."""
    return np.ascontiguousarray(chars, np.uint8).view(np.uint32)[:, 0]


# The whole part is written as its low 4 digits (q in 0..9999) and, when it
# has more, the digits above them (at most 429 below 2**32 - 1 thousandths).
# Low digits under upper ones keep their zeros ("0042"); a leading part is
# right-aligned in NULs, with at least the units digit, so upper digits of 0
# are all NUL. `_LOW` holds the inner words at [q] and the leading ones at
# [q + _GROUP].
_GROUP = np.uint32(10_000)
_q = np.arange(_GROUP)[:, None]
_place = 10 ** np.arange(3, -1, -1)
_digits = 48 + _q // _place % 10
_LEADING = _words(np.where(_q >= _place, _digits, 0))
_LOW = np.concatenate([_words(_digits),
                       _words(np.where((_q >= _place) | (_place == 1), _digits, 0))])
# ".ddd" for each count of thousandths
_POINT = _words(np.column_stack([np.full(1000, ord(".")), _digits[:1000, 1:]]))


def format_cells(values: np.ndarray) -> np.ndarray:
    """Each float of `values` as `f"{v:.3f}"`, right-aligned in NULs in a
    fixed-width field: a uint8 array with one more axis than `values`, of a
    width that is a multiple of 4, and a cell's text is its field's non-NUL
    bytes.

    Cells are rounded as integers (`values * 1000`) and written from table
    lookups: the whole part's low 4 digits, the digits above them, and the
    thousandths, one lookup each. A cell whose product is within
    `_HALF_MARGIN` of a half or 2**32 - 1 or more, or that is negative or not
    finite, is formatted by Python instead."""
    with np.errstate(invalid="ignore", over="ignore"):
        x = values * 1000.0
        rounded = np.rint(x)
        python = ~((x.view(np.uint64) < _EXACT_LIMIT)
                   & (np.abs(x - rounded) <= 0.5 - _HALF_MARGIN))
        rounded = rounded.astype(np.uint32)
    texts = [f"{v:.3f}".encode() for v in values[python].tolist()]
    if texts:
        rounded[python] = 0
    whole, thousandths = np.divmod(rounded, 1000)
    upper, low = np.divmod(whole, _GROUP)
    words = max([2 + bool(upper.any())] + [-(-len(t) // 4) for t in texts])

    fields = np.zeros(values.shape + (words,), np.uint32)
    fields[..., -1] = _POINT.take(thousandths)
    fields[..., -2] = _LOW.take(low + _GROUP * (upper == 0))
    if words > 2:
        fields[..., -3] = _LEADING.take(upper)
    if texts:
        padded = b"".join(t.rjust(4 * words, b"\0") for t in texts)
        fields[python] = np.frombuffer(padded, np.uint32).reshape(len(texts), words)
    return fields.view(np.uint8)


def _csv_lines(dates: np.ndarray, clock: np.ndarray, fields: np.ndarray) -> bytes:
    """CSV lines as bytes for whole days: each row's stamp (its day's date
    from `dates`, then its minute's time from `clock`), then `,` and the
    field of each of its cells (`format_cells` fields, one per meter, all
    NUL for a null), then CRLF; one pass then drops every NUL."""
    rows, meters, width = fields.shape
    stamp = dates.shape[1] + clock.shape[1]
    line = np.empty((len(dates), len(clock), stamp + meters * (1 + width) + 2), np.uint8)
    line[..., : dates.shape[1]] = dates[:, None]
    line[..., dates.shape[1] : stamp] = clock
    line = line.reshape(rows, -1)
    cells = line[:, stamp:-2].reshape(rows, meters, 1 + width)  # a view
    cells[..., 0] = ord(",")
    cells[..., 1:] = fields
    line[:, -2:] = np.frombuffer(b"\r\n", np.uint8)
    return line.tobytes().translate(None, b"\0")


def _block_days(meters: int) -> int:
    """Days in a block of about BLOCK_BYTES of lines of cells with at most
    4 whole digits: a stamp, 9 bytes a meter and CRLF."""
    return max(1, BLOCK_BYTES // (1440 * (18 + 9 * meters)))


def generate_synthetic(spec: SyntheticSpec, out_path) -> Path:
    """Write the minute-level CSV for `spec`; deterministic given the seed.

    One day at a time, its values, then its nulls, are drawn from the one
    generator; each block of days, about BLOCK_BYTES of lines, is then
    formatted and written as a single block of bytes."""
    out_path = Path(out_path)
    rng = np.random.default_rng(spec.seed)
    minutes = np.arange(1440)
    daily_wave = spec.daily_amplitude * np.sin(2 * np.pi * minutes / 1440.0)
    clock = "".join(f"T{m // 60:02d}:{m % 60:02d}" for m in minutes)
    clock = np.frombuffer(clock.encode(), np.uint8).reshape(1440, 6)
    block = _block_days(spec.meters)
    values = np.empty((block, 1440, spec.meters))
    nulls = np.zeros((block, 1440, spec.meters), bool)

    with out_path.open("wb") as fh:
        header = ",".join(["timestamp"] + [f"meter_{j + 1}" for j in range(spec.meters)])
        fh.write(f"{header}\r\n".encode())
        for first in range(0, spec.days, block):
            days = [spec.start + timedelta(days=d)
                    for d in range(first, min(first + block, spec.days))]
            for i, day in enumerate(days):
                doy = day.timetuple().tm_yday
                seasonal = spec.seasonal_amplitude * np.sin(2 * np.pi * doy / 365.0)
                weekly = -spec.weekly_amplitude if day.weekday() >= 5 else spec.weekly_amplitude
                level = spec.base_kw + seasonal + weekly + daily_wave
                np.add(level[:, None], rng.normal(0.0, spec.noise_std, (1440, spec.meters)),
                       out=values[i])
                if spec.null_rate > 0:
                    np.less(rng.random((1440, spec.meters)), spec.null_rate, out=nulls[i])
            n = len(days) * 1440
            drawn = np.clip(values[: len(days)], 0.0, None, out=values[: len(days)])
            fields = format_cells(drawn.reshape(n, -1))
            fields[nulls[: len(days)].reshape(n, -1)] = 0
            dates = np.frombuffer("".join(d.isoformat() for d in days).encode(), np.uint8)
            fh.write(_csv_lines(dates.reshape(len(days), 10), clock, fields))
    return out_path
