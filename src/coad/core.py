"""Core value types: a table of rows, one observation, p-value clamping.

A Table is the one form of a set of rows on the run path: a dataset, the
parts of a split, a training or validation set, a stream's test points.
Its columns make per-context selection one stable sort of the context
column.  An Observation is the public single-point type.  Both are
immutable, safe to share across threads and independent benchmark runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Additive regularization applied to every fitted variance in this package.
EPS_VAR = 1e-6

__all__ = [
    "EPS_VAR",
    "Table",
    "Observation",
    "observation",
    "clamp_pvalue",
]


def clamp_pvalue(value: float) -> float:
    """Clamp a p-value-like statistic to [0, 1].

    Inflated statistics can exceed 1; thresholds never do, so clamping is
    decision-neutral.
    """
    value = float(value)
    if np.isnan(value):
        raise ValueError("p-value is NaN")
    return min(1.0, max(0.0, value))


@dataclass(frozen=True, eq=False)
class Table:
    """m labeled rows as columns.

    ``features`` is (m, d) with NaN where a value is missing; missing values
    must not be read before imputation.  ``context`` holds each row's
    non-negative context id and ``truth`` its 0/1 anomaly label.  Both are
    checked once, here.  The columns are read-only views.
    """

    features: np.ndarray
    context: np.ndarray
    truth: np.ndarray

    def __post_init__(self) -> None:
        columns = (np.asarray(self.features, dtype=float).view(),
                   np.asarray(self.context, dtype=np.int64).view(),
                   np.asarray(self.truth, dtype=np.int64).view())
        features, context, truth = columns
        if features.ndim != 2 or features.shape[1] < 1 or \
                not context.shape == truth.shape == (len(features),):
            raise ValueError("need an (m, d) feature matrix, d >= 1, and one "
                             "context and one label per row; got shapes "
                             f"{[c.shape for c in columns]}")
        if (context < 0).any():
            raise ValueError("context id must be non-negative")
        if ((truth != 0) & (truth != 1)).any():
            raise ValueError("truth must be 0 or 1")
        for name, column in zip(("features", "context", "truth"), columns):
            column.flags.writeable = False  # the source stays writeable
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def rows(self, index) -> "Table":
        """The rows at ``index``: a slice, positions or a boolean mask."""
        return Table(self.features[index], self.context[index],
                     self.truth[index])

    def by_context(self, n: int) -> list["Table"]:
        """The rows of each context 0..n-1, each in row order, from one
        stable argsort of the context column; rows of a context past n are
        left out."""
        order = np.argsort(self.context, kind="stable")
        bounds = np.searchsorted(self.context[order], np.arange(n + 1))
        return [self.rows(order[lo:hi])
                for lo, hi in zip(bounds[:-1], bounds[1:])]

    def observed(self) -> np.ndarray:
        """The feature matrix of fully observed (or already imputed) rows."""
        if np.isnan(self.features).any():
            raise ValueError("missing value read before imputation")
        return self.features


@dataclass(frozen=True, eq=False)
class Observation:
    """One timestep's input.

    ``features`` is a real vector with NaN in every masked slot; ``mask`` is
    True where the feature is missing.  Masked slots must not be read before
    imputation.  ``truth`` is the ground-truth anomaly label: 0 inlier,
    1 anomaly, None unknown.
    """

    features: np.ndarray
    mask: np.ndarray
    context: int
    truth: int | None = None

    def __post_init__(self) -> None:
        feats = np.array(self.features, dtype=float)
        mask = np.array(self.mask, dtype=bool)
        if feats.ndim != 1 or feats.size < 1:
            raise ValueError("features must be a 1-D vector of length >= 1")
        if mask.shape != feats.shape:
            raise ValueError("features and mask must have equal length")
        if self.context < 0:
            raise ValueError("context id must be non-negative")
        if self.truth not in (None, 0, 1):
            raise ValueError("truth must be 0, 1 or None")
        feats[mask] = np.nan  # poison masked slots until imputation
        feats.flags.writeable = False
        mask.flags.writeable = False
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "mask", mask)

    @property
    def dim(self) -> int:
        return int(self.features.size)

    def observed(self) -> np.ndarray:
        """Feature vector of a fully observed (or already imputed) point."""
        assert not self.mask.any(), "masked observation read before imputation"
        return self.features


def observation(features, context: int = 0, truth: int | None = None,
                mask=None) -> Observation:
    """Build an Observation, inferring the mask from NaNs when omitted."""
    feats = np.asarray(features, dtype=float)
    if mask is None:
        mask = np.isnan(feats)
    return Observation(feats, np.asarray(mask), context, truth)
