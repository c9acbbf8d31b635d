"""Feature scaling fitted on training data only.

Each feature gets one affine map x -> (x - lo) / (hi - lo). MinMax takes lo
and hi from the training minimum and maximum, mapping to [0,1]; MaxAbs takes
lo = 0 and hi = max|x|, mapping to [-1,1]. Targets are never scaled, and the
enum/boolean pass-through features get lo = 0 and hi = 1, which returns them
exactly. A feature with hi == lo maps to 0. Test values outside the training
range are left unclipped.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, SchemaError
from .features import PASSTHROUGH_FEATURES

SCALER_KINDS = ("minmax", "maxabs")


@dataclass
class Scaler:
    """Per-feature affine maps plus the feature schema they were fitted
    against; saved and reloaded as its fields (`Scaler(**doc)`)."""

    kind: str
    feature_names: list = field(default_factory=list)
    lo: list = field(default_factory=list)
    hi: list = field(default_factory=list)

    def __post_init__(self):
        if self.kind not in SCALER_KINDS:
            raise ConfigError(f"unknown scaler kind {self.kind!r}")
        if not len(self.feature_names) == len(self.lo) == len(self.hi):
            raise ConfigError("scaler needs one lo and one hi per feature")

    def transform(self, X: np.ndarray, names: Optional[Sequence[str]] = None) -> np.ndarray:
        if names is not None and list(names) != self.feature_names:
            raise SchemaError(
                f"feature schema mismatch: fitted on {self.feature_names}, "
                f"got {list(names)}"
            )
        lo, hi = np.asarray(self.lo), np.asarray(self.hi)
        constant = hi == lo
        # x - 0.0 and x / 1.0 are x exactly, so maxabs and pass-through
        # columns keep the bits of a plain division or no scaling at all
        out = (np.asarray(X, dtype=float) - lo) / np.where(constant, 1.0, hi - lo)
        out[:, constant] = 0.0  # constant feature, avoid 0/0
        return out

    def inverse_transform(self, X: np.ndarray) -> np.ndarray:
        lo, hi = np.asarray(self.lo), np.asarray(self.hi)
        return np.asarray(X, dtype=float) * (hi - lo) + lo


def fit_scaler(X: np.ndarray, names: Sequence[str], kind: str) -> Scaler:
    """The only place that reads the kind: it picks each feature's lo and hi."""
    X = np.asarray(X, dtype=float)
    if len(X) == 0:
        raise ConfigError("cannot fit a scaler on an empty training set")
    if kind == "minmax":
        lo, hi = X.min(axis=0), X.max(axis=0)
    else:
        lo, hi = np.zeros(X.shape[1]), np.abs(X).max(axis=0)
    passthrough = [name in PASSTHROUGH_FEATURES for name in names]
    lo[passthrough], hi[passthrough] = 0.0, 1.0
    return Scaler(kind, list(names), lo.tolist(), hi.tolist())
