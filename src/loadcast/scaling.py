"""Feature scaling fitted on training data only.

MinMax maps each feature to [0,1] via (x - min) / (max - min); MaxAbs maps to
[-1,1] via x / max|x|. Targets are never scaled, and neither are the
enum/boolean pass-through features. Test values outside the training range are
left unclipped.
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
    """Per-feature scaling statistics plus the feature schema they were
    fitted against."""

    kind: str
    feature_names: list = field(default_factory=list)
    # per scaled feature: (min, max) for minmax, (maxabs,) for maxabs
    stats: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in SCALER_KINDS:
            raise ConfigError(f"unknown scaler kind {self.kind!r}")

    def _check_schema(self, names: Sequence[str]):
        if list(names) != self.feature_names:
            raise SchemaError(
                f"feature schema mismatch: fitted on {self.feature_names}, "
                f"got {list(names)}"
            )

    def fit(self, X: np.ndarray, names: Sequence[str]) -> "Scaler":
        if len(X) == 0:
            raise ConfigError("cannot fit a scaler on an empty training set")
        self.feature_names = list(names)
        self.stats = {}
        for j, name in enumerate(self.feature_names):
            if name in PASSTHROUGH_FEATURES:
                continue
            col = X[:, j]
            if self.kind == "minmax":
                self.stats[name] = (float(col.min()), float(col.max()))
            else:
                self.stats[name] = (float(np.abs(col).max()),)
        return self

    def transform(self, X: np.ndarray, names: Optional[Sequence[str]] = None) -> np.ndarray:
        if names is not None:
            self._check_schema(names)
        out = np.array(X, dtype=float, copy=True)
        for j, name in enumerate(self.feature_names):
            if name not in self.stats:
                continue
            if self.kind == "minmax":
                lo, hi = self.stats[name]
                if hi == lo:
                    out[:, j] = 0.0  # constant feature, avoid 0/0
                else:
                    out[:, j] = (out[:, j] - lo) / (hi - lo)
            else:
                (m,) = self.stats[name]
                if m == 0.0:
                    out[:, j] = 0.0
                else:
                    out[:, j] = out[:, j] / m
        return out

    def inverse_transform(self, X: np.ndarray) -> np.ndarray:
        out = np.array(X, dtype=float, copy=True)
        for j, name in enumerate(self.feature_names):
            if name not in self.stats:
                continue
            if self.kind == "minmax":
                lo, hi = self.stats[name]
                if hi == lo:
                    out[:, j] = lo
                else:
                    out[:, j] = out[:, j] * (hi - lo) + lo
            else:
                (m,) = self.stats[name]
                out[:, j] = out[:, j] * m
        return out

    def to_text(self) -> str:
        """Flat key-value document, reloadable with Scaler.from_text."""
        lines = [f"kind = {self.kind}"]
        lines.append("features = " + ",".join(self.feature_names))
        for name in self.feature_names:
            if name not in self.stats:
                continue
            if self.kind == "minmax":
                lo, hi = self.stats[name]
                lines.append(f"{name}.min = {lo!r}")
                lines.append(f"{name}.max = {hi!r}")
            else:
                (m,) = self.stats[name]
                lines.append(f"{name}.maxabs = {m!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Scaler":
        entries = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            entries[key.strip()] = value.strip()
        kind = entries.pop("kind", None)
        if kind not in SCALER_KINDS:
            raise ConfigError(f"scaler document has bad kind {kind!r}")
        names = [n for n in entries.pop("features", "").split(",") if n]
        scaler = cls(kind=kind, feature_names=names)
        for name in names:
            if name in PASSTHROUGH_FEATURES:
                continue
            if kind == "minmax":
                scaler.stats[name] = (
                    float(entries[f"{name}.min"]),
                    float(entries[f"{name}.max"]),
                )
            else:
                scaler.stats[name] = (float(entries[f"{name}.maxabs"]),)
        return scaler


def fit_scaler(X: np.ndarray, names: Sequence[str], kind: str) -> Scaler:
    return Scaler(kind=kind).fit(X, names)
