"""Pluggable anomaly score functions.

Three reference scorers cover the usual training regimes: a per-context
Gaussian density score (fit on inliers only), a k-means distance score
(labels ignored), and a Gaussian naive Bayes posterior (needs both labels).
All scorers emit higher values for more anomalous points and can be fit
either per context or pooled (context-agnostic).  A fixed-threshold
baseline built from empirical score quantiles is included for comparison
runs; it carries no error-rate guarantee.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import EPS_VAR, Table

__all__ = [
    "ScoreModel",
    "DensityScore",
    "KMeansScore",
    "NaiveBayesScore",
    "QuantileThreshold",
    "fit_density_score",
    "fit_kmeans_score",
    "fit_supervised_score",
    "fit_fixed_threshold",
    "lower_quantile",
]


def lower_quantile(values, level: float) -> float:
    """Lower empirical quantile: the ceil(level * n)-th order statistic."""
    if not 0.0 < level <= 1.0:
        raise ValueError("quantile level must lie in (0, 1]")
    ordered = np.sort(np.asarray(values, dtype=float))
    if ordered.size == 0:
        raise ValueError("cannot take a quantile of no values")
    # the tiny nudge keeps ceil from jumping on exact float products
    idx = max(1, math.ceil(level * ordered.size - 1e-9))
    return float(ordered[min(idx, ordered.size) - 1])


class ScoreModel:
    """Shared scaffolding: context dispatch and vectorized scoring."""

    context_aware: bool
    n_contexts: int

    def _slot(self, context: int) -> int:
        if not self.context_aware:
            return 0
        if not 0 <= context < self.n_contexts:
            raise ValueError(f"context {context} outside [0, {self.n_contexts})")
        return context

    def score(self, x, context: int) -> float:
        return float(self.scores(np.asarray(x, dtype=float)[None, :], context)[0])

    def scores(self, xs: np.ndarray, context: int) -> np.ndarray:
        raise NotImplementedError


def _context_groups(train: Table, n_contexts: int | None,
                    context_aware: bool) -> list[Table]:
    """The rows of each context slot of a fit, by a boolean index; a pooled
    fit has one slot of every row.  Every declared context must be hit."""
    if not len(train):
        raise ValueError("training data is empty")
    if not context_aware:
        return [train]
    top = int(train.context.max())
    if n_contexts is not None and top >= n_contexts:
        raise ValueError(f"context {top} outside declared range")
    groups = [train.rows(train.context == c)
              for c in range(top + 1 if n_contexts is None else n_contexts)]
    for c, group in enumerate(groups):
        if not len(group):
            raise ValueError(f"no training points for context {c}")
    return groups


@dataclass(frozen=True, eq=False)
class DensityScore(ScoreModel):
    """Negative log-density under a per-context diagonal Gaussian fit."""

    means: np.ndarray      # (C, d)
    variances: np.ndarray  # (C, d)
    context_aware: bool
    n_contexts: int

    def scores(self, xs: np.ndarray, context: int) -> np.ndarray:
        slot = self._slot(context)
        mu, var = self.means[slot], self.variances[slot]
        # summed column by column: numpy sums rows of a few values along
        # axis 1 about ten times slower, and for two features the sum is
        # the same
        quad = np.zeros(xs.shape[0])
        for j in range(xs.shape[1]):
            quad += (xs[:, j] - mu[j]) ** 2 / var[j]
        return 0.5 * (np.log(2.0 * np.pi * var).sum() + quad)


def fit_density_score(train: Table, n_contexts: int | None = None,
                      context_aware: bool = True,
                      eps_var: float = EPS_VAR) -> DensityScore:
    """Fit per-context diagonal Gaussians on inlier-only training data.

    Mean is the sample mean, variance the (population) sample variance plus
    ``eps_var``; the score of a point is the negative log-density.
    """
    if (train.truth == 1).any():
        raise ValueError("density score is fit on inliers only")
    groups = _context_groups(train, n_contexts, context_aware)
    means, variances = [], []
    for c, group in enumerate(groups):
        x = group.observed()
        if x.shape[0] < 2:
            raise ValueError(f"need at least 2 points per context, context {c} "
                             f"has {x.shape[0]}")
        means.append(x.mean(axis=0))
        variances.append(x.var(axis=0) + eps_var)
    return DensityScore(np.asarray(means), np.asarray(variances),
                        context_aware, len(groups))


def _kmeans_pp(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding; falls back to uniform picks for zero spread."""
    centers = [x[rng.integers(x.shape[0])]]
    for _ in range(1, k):
        d2 = np.min(((x[:, None, :] - np.asarray(centers)[None]) ** 2).sum(-1),
                    axis=1)
        total = d2.sum()
        if total > 0:
            idx = rng.choice(x.shape[0], p=d2 / total)
        else:
            idx = rng.integers(x.shape[0])
        centers.append(x[idx])
    return np.asarray(centers, dtype=float)


def _lloyd(x: np.ndarray, k: int, rng: np.random.Generator,
           tol: float, max_iter: int, slot: int) -> np.ndarray:
    if k < 1:
        raise ValueError("k must be >= 1")
    if x.shape[0] < k:
        raise ValueError(f"context slot {slot}: need at least k={k} "
                         f"training points, got {x.shape[0]}")
    if np.unique(x, axis=0).shape[0] < k:
        raise ValueError(f"context slot {slot}: k={k} exceeds the number "
                         "of distinct points; duplicate centroids are not "
                         "allowed")
    centers = _kmeans_pp(x, k, rng)
    for _ in range(max_iter):
        d2 = ((x[:, None, :] - centers[None]) ** 2).sum(-1)
        assign = d2.argmin(axis=1)
        new = centers.copy()
        for j in range(k):
            members = x[assign == j]
            if members.shape[0]:
                new[j] = members.mean(axis=0)
            else:
                # reseed empty clusters at the worst-served point
                new[j] = x[d2[np.arange(x.shape[0]), assign].argmax()]
        shift = float(np.sqrt(((new - centers) ** 2).sum(-1)).max())
        centers = new
        if shift < tol:
            break
    return centers


@dataclass(frozen=True, eq=False)
class KMeansScore(ScoreModel):
    """Euclidean distance to the nearest cluster centroid."""

    centroids: np.ndarray  # (slots, k, d)
    context_aware: bool
    n_contexts: int

    def scores(self, xs: np.ndarray, context: int) -> np.ndarray:
        centers = self.centroids[self._slot(context)]
        d2 = ((xs[:, None, :] - centers[None]) ** 2).sum(-1)
        return np.sqrt(d2.min(axis=1))


def fit_kmeans_score(train: Table, k: int = 5,
                     rng: np.random.Generator | None = None,
                     n_contexts: int | None = None, context_aware: bool = True,
                     tol: float = 1e-6, max_iter: int = 300) -> KMeansScore:
    """Lloyd's algorithm with k-means++ seeding; labels are ignored."""
    if rng is None:
        rng = np.random.default_rng(0)
    groups = _context_groups(train, n_contexts, context_aware)
    centroids = [_lloyd(g.observed(), k, rng, tol, max_iter, slot)
                 for slot, g in enumerate(groups)]
    return KMeansScore(np.stack(centroids), context_aware, len(groups))


@dataclass(frozen=True, eq=False)
class NaiveBayesScore(ScoreModel):
    """Posterior probability of the anomaly class under Gaussian naive Bayes."""

    class_means: np.ndarray   # (C, 2, d)
    class_vars: np.ndarray    # (C, 2, d)
    log_priors: np.ndarray    # (C, 2)
    context_aware: bool
    n_contexts: int

    def scores(self, xs: np.ndarray, context: int) -> np.ndarray:
        slot = self._slot(context)
        loglik = np.empty((xs.shape[0], 2))
        for label in (0, 1):
            mu = self.class_means[slot, label]
            var = self.class_vars[slot, label]
            loglik[:, label] = (
                self.log_priors[slot, label]
                - 0.5 * (np.log(2.0 * np.pi * var).sum()
                         + ((xs - mu) ** 2 / var).sum(axis=1)))
        top = loglik.max(axis=1, keepdims=True)
        probs = np.exp(loglik - top)
        return probs[:, 1] / probs.sum(axis=1)


def fit_supervised_score(train: Table, n_contexts: int | None = None,
                         context_aware: bool = True,
                         eps_var: float = EPS_VAR) -> NaiveBayesScore:
    """Fit Gaussian naive Bayes over the anomaly labels."""
    groups = _context_groups(train, n_contexts, context_aware)
    means = np.empty((len(groups), 2, train.dim))
    variances = np.empty_like(means)
    log_priors = np.empty((len(groups), 2))
    for slot, group in enumerate(groups):
        features = group.observed()
        for label in (0, 1):
            x = features[group.truth == label]
            if not len(x):
                raise ValueError(f"class {label} absent in training data for "
                                 f"context slot {slot}")
            means[slot, label] = x.mean(axis=0)
            variances[slot, label] = x.var(axis=0) + eps_var
            log_priors[slot, label] = np.log(len(x) / len(group))
    return NaiveBayesScore(means, variances, log_priors, context_aware,
                           len(groups))


@dataclass(frozen=True, eq=False)
class QuantileThreshold:
    """Per-context score threshold at the empirical (1 - alpha) quantile."""

    thresholds: np.ndarray  # (C,)
    context_aware: bool

    def flag(self, score, context):
        """Whether a score exceeds its context's threshold; elementwise for
        arrays of scores and contexts."""
        slot = context if self.context_aware else 0
        return score > self.thresholds[slot]


def fit_fixed_threshold(model: ScoreModel, train: Table,
                        alpha: float) -> QuantileThreshold:
    """Fixed-threshold baseline: flag scores above the training quantile."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    groups = _context_groups(train, model.n_contexts, model.context_aware)
    thresholds = np.empty(len(groups))
    needed = math.ceil(1.0 / alpha)
    for slot, group in enumerate(groups):
        if len(group) < needed:
            warnings.warn(
                f"context {slot} has {len(group)} points; the "
                f"(1 - {alpha}) quantile needs at least {needed} to be reliable",
                stacklevel=2)
        scores = model.scores(group.observed(), slot)
        thresholds[slot] = lower_quantile(scores, 1.0 - alpha)
    return QuantileThreshold(thresholds, model.context_aware)
