"""Train/test splitting strategies over chronological samples.

All strategies keep train and test chronological and disjoint. Stratified
variants apply the train fraction within each month or season group, taking
each group's chronological head for training.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError
from .features import SEASON_OF_MONTH, SEASONS, Samples

STRATEGIES = ("ordered", "seasonal", "monthly", "single_season")


@dataclass(frozen=True)
class SplitSpec:
    strategy: str
    season: Optional[str] = None
    train_fraction: float = 0.8

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown split strategy {self.strategy!r}")
        if self.strategy == "single_season":
            if self.season not in SEASONS:
                raise ConfigError(
                    f"single_season split needs a season in {SEASONS}, "
                    f"got {self.season!r}"
                )
        elif self.season is not None:
            raise ConfigError(f"season only applies to single_season splits")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(
                f"train_fraction must be in (0,1), got {self.train_fraction}"
            )


def split(samples: Samples, spec: SplitSpec):
    """Returns (train, test): increasing, disjoint index arrays into
    `samples` whose union is the selection."""
    months = samples.timestamps.astype("datetime64[M]").astype(np.int64)
    if spec.strategy == "single_season":
        season = SEASONS.index(spec.season)
        selected = np.flatnonzero(SEASON_OF_MONTH[months % 12] == season)
    else:
        selected = np.arange(len(samples))
    if len(selected) == 0:
        raise DataError(
            f"empty selection for split strategy {spec.strategy!r}"
            + (f" (season {spec.season})" if spec.season else "")
        )

    months = months[selected]
    if spec.strategy == "monthly":
        keys = months
    elif spec.strategy == "seasonal":
        # three-month runs from December: a December joins the next year's winter
        keys = (months + 1) // 3
    else:
        keys = np.zeros(len(selected), dtype=np.int64)  # one global group
    _, group, sizes = np.unique(keys, return_inverse=True, return_counts=True)
    # rank of each sample within its group, in timestamp order
    order = np.argsort(group, kind="stable")
    first = np.cumsum(sizes) - sizes
    rank = np.empty(len(group), dtype=np.int64)
    rank[order] = np.arange(len(group)) - first[group[order]]
    in_train = rank < np.ceil(spec.train_fraction * sizes)[group]
    return selected[in_train], selected[~in_train]
