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

from .core import EPS_VAR, features_matrix

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


def _split_by_context(train, n_contexts, context_aware):
    """Group feature matrices by context; every declared context must be hit."""
    if not train:
        raise ValueError("training data is empty")
    if n_contexts is None:
        n_contexts = max(obs.context for obs in train) + 1
    if not context_aware:
        return 1, {0: features_matrix(train)}
    groups: dict[int, list] = {c: [] for c in range(n_contexts)}
    for obs in train:
        if obs.context >= n_contexts:
            raise ValueError(f"context {obs.context} outside declared range")
        groups[obs.context].append(obs)
    for c, members in groups.items():
        if not members:
            raise ValueError(f"no training points for context {c}")
    return n_contexts, {c: features_matrix(m) for c, m in groups.items()}


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


def fit_density_score(train, n_contexts: int | None = None,
                      context_aware: bool = True,
                      eps_var: float = EPS_VAR) -> DensityScore:
    """Fit per-context diagonal Gaussians on inlier-only training data.

    Mean is the sample mean, variance the (population) sample variance plus
    ``eps_var``; the score of a point is the negative log-density.
    """
    if any(obs.truth == 1 for obs in train):
        raise ValueError("density score is fit on inliers only")
    count, groups = _split_by_context(train, n_contexts, context_aware)
    means, variances = [], []
    for c in range(count):
        x = groups[c]
        if x.shape[0] < 2:
            raise ValueError(f"need at least 2 points per context, context {c} "
                             f"has {x.shape[0]}")
        means.append(x.mean(axis=0))
        variances.append(x.var(axis=0) + eps_var)
    return DensityScore(np.asarray(means), np.asarray(variances),
                        context_aware, count)


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
           tol: float, max_iter: int) -> tuple[np.ndarray, list[float]]:
    if k < 1:
        raise ValueError("k must be >= 1")
    if x.shape[0] < k:
        raise ValueError(f"need at least k={k} training points, got {x.shape[0]}")
    if np.unique(x, axis=0).shape[0] < k:
        raise ValueError(f"k={k} exceeds the number of distinct points; "
                         "duplicate centroids are not allowed")
    centers = _kmeans_pp(x, k, rng)
    objective_path: list[float] = []
    for _ in range(max_iter):
        d2 = ((x[:, None, :] - centers[None]) ** 2).sum(-1)
        assign = d2.argmin(axis=1)
        objective_path.append(float(d2[np.arange(x.shape[0]), assign].sum()))
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
    return centers, objective_path


@dataclass(frozen=True, eq=False)
class KMeansScore(ScoreModel):
    """Euclidean distance to the nearest cluster centroid."""

    centroids: tuple[np.ndarray, ...]  # one (k, d) array per context slot
    objective_paths: tuple[tuple[float, ...], ...]
    context_aware: bool
    n_contexts: int

    def scores(self, xs: np.ndarray, context: int) -> np.ndarray:
        centers = self.centroids[self._slot(context)]
        d2 = ((xs[:, None, :] - centers[None]) ** 2).sum(-1)
        return np.sqrt(d2.min(axis=1))


def fit_kmeans_score(train, k: int = 5, rng: np.random.Generator | None = None,
                     n_contexts: int | None = None, context_aware: bool = True,
                     tol: float = 1e-6, max_iter: int = 300) -> KMeansScore:
    """Lloyd's algorithm with k-means++ seeding; labels are ignored."""
    if rng is None:
        rng = np.random.default_rng(0)
    count, groups = _split_by_context(train, n_contexts, context_aware)
    centroids, paths = [], []
    for c in range(count):
        centers, path = _lloyd(groups[c], k, rng, tol, max_iter)
        centroids.append(centers)
        paths.append(tuple(path))
    return KMeansScore(tuple(centroids), tuple(paths), context_aware, count)


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


def fit_supervised_score(train, n_contexts: int | None = None,
                         context_aware: bool = True,
                         eps_var: float = EPS_VAR) -> NaiveBayesScore:
    """Fit Gaussian naive Bayes over the anomaly labels."""
    if any(obs.truth not in (0, 1) for obs in train):
        raise ValueError("supervised training needs a 0/1 label on every point")
    if n_contexts is None:
        n_contexts = max(obs.context for obs in train) + 1
    count = n_contexts if context_aware else 1
    means = np.empty((count, 2, train[0].dim))
    variances = np.empty_like(means)
    log_priors = np.empty((count, 2))
    for slot in range(count):
        members = [obs for obs in train
                   if not context_aware or obs.context == slot]
        for label in (0, 1):
            rows = [obs for obs in members if obs.truth == label]
            if not rows:
                raise ValueError(f"class {label} absent in training data for "
                                 f"context slot {slot}")
            x = features_matrix(rows)
            means[slot, label] = x.mean(axis=0)
            variances[slot, label] = x.var(axis=0) + eps_var
            log_priors[slot, label] = np.log(len(rows) / len(members))
    return NaiveBayesScore(means, variances, log_priors, context_aware, count)


@dataclass(frozen=True, eq=False)
class QuantileThreshold:
    """Per-context score threshold at the empirical (1 - alpha) quantile."""

    thresholds: np.ndarray  # (C,)
    alpha: float
    context_aware: bool

    def flag(self, score, context):
        """Whether a score exceeds its context's threshold; elementwise for
        arrays of scores and contexts."""
        slot = context if self.context_aware else 0
        return score > self.thresholds[slot]


def fit_fixed_threshold(model: ScoreModel, train, alpha: float) -> QuantileThreshold:
    """Fixed-threshold baseline: flag scores above the training quantile."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    thresholds = np.empty(model.n_contexts)
    needed = math.ceil(1.0 / alpha)
    for slot in range(model.n_contexts):
        members = [obs for obs in train
                   if not model.context_aware or obs.context == slot]
        if not members:
            raise ValueError(f"no training points for context {slot}")
        if len(members) < needed:
            warnings.warn(
                f"context {slot} has {len(members)} points; the "
                f"(1 - {alpha}) quantile needs at least {needed} to be reliable",
                stacklevel=2)
        scores = model.scores(features_matrix(members), slot)
        thresholds[slot] = lower_quantile(scores, 1.0 - alpha)
    return QuantileThreshold(thresholds, alpha, model.context_aware)
