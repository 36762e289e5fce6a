"""Pluggable anomaly score functions.

Three reference scorers cover the usual training regimes: a per-context
Gaussian density score (fit on inliers only), a k-means distance score
(labels ignored), and a Gaussian naive Bayes posterior (needs both labels).
All scorers emit higher values for more anomalous points and are fit per
context; a context-blind fit is the same fit on rows that all read as
context 0.  A fixed-threshold baseline built from empirical score
quantiles is included for comparison runs; it carries no error-rate
guarantee.
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
    """Shared scaffolding: context dispatch and vectorized scoring.

    ``scores(xs, context)`` scores the rows of an (m, d) array.  ``context``
    is one context id for every row, or a (k,) array of ids, one per equal
    block of m / k consecutive rows; each block is scored with its own
    context's parameters.
    """

    n_contexts: int

    def _blocks(self, xs: np.ndarray, context) -> tuple[np.ndarray,
                                                         np.ndarray]:
        """``xs`` as (k, m / k, d) blocks, and each block's context id."""
        ids = np.atleast_1d(np.asarray(context))
        outside = (ids < 0) | (ids >= self.n_contexts)
        if outside.any():
            raise ValueError(f"context {ids[outside][0]} outside "
                             f"[0, {self.n_contexts})")
        if len(xs) % ids.size:
            raise ValueError(f"{len(xs)} rows do not split into {ids.size} "
                             "equal context blocks")
        return xs.reshape(ids.size, len(xs) // ids.size, xs.shape[1]), ids

    def score(self, x, context: int) -> float:
        return float(self.scores(np.asarray(x, dtype=float)[None, :], context)[0])

    def scores(self, xs: np.ndarray, context) -> np.ndarray:
        raise NotImplementedError


def _context_groups(train: Table, n_contexts: int | None) -> list[Table]:
    """The rows of each context of a fit, by one stable sort of the context
    column.  Every declared context must be hit."""
    if not len(train):
        raise ValueError("training data is empty")
    top = int(train.context.max())
    if n_contexts is not None and top >= n_contexts:
        raise ValueError(f"context {top} outside declared range")
    groups = train.by_context(top + 1 if n_contexts is None else n_contexts)
    for c, group in enumerate(groups):
        if not len(group):
            raise ValueError(f"no training points for context {c}")
    return groups


@dataclass(frozen=True, eq=False)
class DensityScore(ScoreModel):
    """Negative log-density under a per-context diagonal Gaussian fit."""

    means: np.ndarray      # (C, d)
    variances: np.ndarray  # (C, d)
    n_contexts: int

    def scores(self, xs: np.ndarray, context) -> np.ndarray:
        blocks, slots = self._blocks(xs, context)
        mu, var = self.means[slots], self.variances[slots]  # (k, d)
        # summed column by column: numpy sums rows of a few values along
        # the last axis about ten times slower, and for two features the
        # sum is the same.  Column 0 goes straight into the sum, since
        # 0 + t is t for every t >= 0.  The sum and the term are one
        # allocation: two freed side by side at the top of the heap could
        # exceed glibc's trim threshold and be paged in afresh on every
        # call, which made a 20k-step stream's run time depend on the heap
        # layout (7.7k or 82k minor faults, by the install directory)
        quad, term = np.empty((2, *blocks.shape[:2]))
        for j in range(blocks.shape[2]):
            into = term if j else quad
            np.subtract(blocks[:, :, j], mu[:, j, None], out=into)
            np.square(into, out=into)
            np.divide(into, var[:, j, None], out=into)
            if j:
                quad += term
        quad += np.log(2.0 * np.pi * var).sum(axis=1)[:, None]
        quad *= 0.5
        return quad.reshape(-1)


def fit_density_score(train: Table, n_contexts: int | None = None,
                      eps_var: float = EPS_VAR) -> DensityScore:
    """Fit per-context diagonal Gaussians on inlier-only training data.

    Mean is the sample mean, variance the (population) sample variance plus
    ``eps_var``; the score of a point is the negative log-density.
    """
    if (train.truth == 1).any():
        raise ValueError("density score is fit on inliers only")
    groups = _context_groups(train, n_contexts)
    means, variances = [], []
    for c, group in enumerate(groups):
        x = group.observed()
        if x.shape[0] < 2:
            raise ValueError(f"need at least 2 points per context, context {c} "
                             f"has {x.shape[0]}")
        means.append(x.mean(axis=0))
        variances.append(x.var(axis=0) + eps_var)
    return DensityScore(np.asarray(means), np.asarray(variances), len(groups))


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

    centroids: np.ndarray  # (C, k, d)
    n_contexts: int

    def scores(self, xs: np.ndarray, context) -> np.ndarray:
        blocks, slots = self._blocks(xs, context)
        centers = self.centroids[slots][:, None]  # (k, 1, clusters, d)
        d2 = ((blocks[:, :, None, :] - centers) ** 2).sum(-1)
        return np.sqrt(d2.min(axis=2)).reshape(-1)


def fit_kmeans_score(train: Table, k: int = 5,
                     rng: np.random.Generator | None = None,
                     n_contexts: int | None = None,
                     tol: float = 1e-6, max_iter: int = 300) -> KMeansScore:
    """Lloyd's algorithm with k-means++ seeding; labels are ignored."""
    if rng is None:
        rng = np.random.default_rng(0)
    groups = _context_groups(train, n_contexts)
    centroids = [_lloyd(g.observed(), k, rng, tol, max_iter, slot)
                 for slot, g in enumerate(groups)]
    return KMeansScore(np.stack(centroids), len(groups))


@dataclass(frozen=True, eq=False)
class NaiveBayesScore(ScoreModel):
    """Posterior probability of the anomaly class under Gaussian naive Bayes."""

    class_means: np.ndarray   # (C, 2, d)
    class_vars: np.ndarray    # (C, 2, d)
    log_priors: np.ndarray    # (C, 2)
    n_contexts: int

    def scores(self, xs: np.ndarray, context) -> np.ndarray:
        blocks, slots = self._blocks(xs, context)
        loglik = np.empty((*blocks.shape[:2], 2))
        for label in (0, 1):
            mu = self.class_means[slots, label][:, None]  # (k, 1, d)
            var = self.class_vars[slots, label][:, None]
            loglik[:, :, label] = (
                self.log_priors[slots, label][:, None]
                - 0.5 * (np.log(2.0 * np.pi * var).sum(axis=2)
                         + ((blocks - mu) ** 2 / var).sum(axis=2)))
        top = loglik.max(axis=2, keepdims=True)
        probs = np.exp(loglik - top)
        return (probs[:, :, 1] / probs.sum(axis=2)).reshape(-1)


def fit_supervised_score(train: Table, n_contexts: int | None = None,
                         eps_var: float = EPS_VAR) -> NaiveBayesScore:
    """Fit Gaussian naive Bayes over the anomaly labels."""
    groups = _context_groups(train, n_contexts)
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
    return NaiveBayesScore(means, variances, log_priors, len(groups))


def fit_fixed_threshold(model: ScoreModel, train: Table,
                        alpha: float) -> np.ndarray:
    """Fixed-threshold baseline: the (C,) training score quantiles; a score
    s of context c is flagged when s > thresholds[c]."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    groups = _context_groups(train, model.n_contexts)
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
    return thresholds
