"""Train/test splitting strategies over chronological samples.

All strategies keep train and test chronological and disjoint. Stratified
variants apply the train fraction within each month or season group, taking
each group's chronological head for training. `validation_split` takes
each group's last training rows for validation, so that the validation rows
are drawn like the test rows and every group keeps rows to fit on.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError
from .features import SEASONS, Samples, season_runs

STRATEGIES = ("ordered", "seasonal", "monthly", "single_season")


@dataclass(frozen=True)
class SplitSpec:
    strategy: str = "monthly"
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
    selected, group, rank, n_train = _ranks(samples, spec)
    in_train = rank < n_train[group]
    return selected[in_train], selected[~in_train]


def validation_split(samples: Samples, spec: SplitSpec, fraction: float = 0.1):
    """Returns (core, validation): the train rows of `split`, parted so that
    the last min(max(1, int(fraction * n)), n - 1) of each group's n training
    rows are for validation and the rest for fitting, so every group keeps a
    row to fit on. With one group, validation is the training set's tail.
    No validation row is a DataError."""
    selected, group, rank, n_train = _ranks(samples, spec)
    n_val = np.minimum(np.maximum(1, (fraction * n_train).astype(np.int64)), n_train - 1)
    in_train = rank < n_train[group]
    validation = in_train & (rank >= (n_train - n_val)[group])
    if not validation.any():
        raise DataError("training set too small for validation rows")
    return selected[in_train & ~validation], selected[validation]


def _ranks(samples: Samples, spec: SplitSpec):
    """(selected, group, rank, n_train): the selected sample indices, each
    one's split group and rank within it in timestamp order, and each
    group's number of training rows. Group keys never decrease in timestamp
    order, so a group is one run of samples and a rank the distance from
    the start of its run."""
    months = samples.timestamps.astype("datetime64[M]").astype(np.int64)
    if spec.strategy == "single_season":
        season = SEASONS.index(spec.season)
        selected = np.flatnonzero(season_runs(months) % 4 == season)
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
        keys = season_runs(months)
    else:
        keys = np.zeros(len(selected), dtype=np.int64)  # one global group
    new_run = np.diff(keys, prepend=keys[0] - 1) != 0
    group = np.cumsum(new_run) - 1
    first = np.flatnonzero(new_run)
    rank = np.arange(len(keys)) - first[group]
    sizes = np.diff(first, append=len(keys))
    n_train = np.ceil(spec.train_fraction * sizes).astype(np.int64)
    return selected, group, rank, n_train
