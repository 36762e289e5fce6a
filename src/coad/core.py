"""Core value types: the per-step observation and p-value clamping.

An Observation is immutable, safe to share across threads and across
independent benchmark runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Additive regularization applied to every fitted variance in this package.
EPS_VAR = 1e-6

__all__ = [
    "EPS_VAR",
    "Observation",
    "observation",
    "features_matrix",
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


def features_matrix(observations) -> np.ndarray:
    """Stack fully observed (or already imputed) feature vectors into an
    (m, d) matrix; masked slots hold NaN, so one check covers every row."""
    matrix = np.stack([obs.features for obs in observations])
    if np.isnan(matrix).any():
        raise ValueError("masked observation read before imputation")
    return matrix
