"""Per-context synthetic-data generator and trust calibration.

A diagonal-covariance Gaussian mixture is fit per context by EM, one
whole-array step over all components per iteration until the mean per-row
log-likelihood settles (see ``_em_diag``), and used to mint synthetic
calibration batches; a context-blind generator is the same fit on rows that
all read as context 0.  Trust in the generator is quantified by the largest
positive gap between the empirical CDF of generator-based p-values on
held-out inliers and the uniform CDF; the gap maps to the acquisition
parameter gamma through a decaying exponential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conformal import GAMMA_MAX, _rank_pvalue
from .core import EPS_VAR, Table
from .scoring import _context_groups, _kmeans_pp

__all__ = [
    "TwinModel",
    "fit_twin",
    "sample_synthetic",
    "proxy_pvalues",
    "positive_ecdf_gap",
    "superuniformity_gap",
    "gamma_of_context",
]


@dataclass(frozen=True, eq=False)
class TwinModel:
    """Per-context Gaussian mixtures with diagonal covariances, stacked:
    K components in each of C contexts."""

    weights: np.ndarray    # (C, K)
    means: np.ndarray      # (C, K, d)
    variances: np.ndarray  # (C, K, d)
    iterations: np.ndarray | None = None  # (C,) EM iterations (fit_twin)
    converged: np.ndarray | None = None   # (C,) tol met before max_iter

    def __post_init__(self) -> None:
        w, mu, var = self.weights, self.means, self.variances
        if mu.ndim != 3 or mu.shape != var.shape or mu.shape[:2] != w.shape:
            # the first context one of them lacks, else every context
            sizes = {len(w), len(mu), len(var)}
            c = min(sizes) if len(sizes) > 1 else 0
            raise ValueError(f"context {c}: weights {w.shape}, means "
                             f"{mu.shape} and variances {var.shape} disagree")
        for c in range(len(w)):
            if np.any(w[c] <= 0) or abs(w[c].sum() - 1.0) > 1e-9:
                raise ValueError(f"context {c}: weights must be positive and sum to 1")
            if np.any(var[c] < EPS_VAR * (1.0 - 1e-12)):
                raise ValueError(f"context {c}: variances fell below the floor")

    @property
    def n_contexts(self) -> int:
        return len(self.weights)

    @property
    def dim(self) -> int:
        return self.means.shape[2]


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    top = a.max(axis=axis, keepdims=True)
    return (top + np.log(np.exp(a - top).sum(axis=axis, keepdims=True))).squeeze(axis)


def _em_diag(x: np.ndarray, k: int, rng: np.random.Generator,
             max_iter: int, tol: float, eps_var: float):
    """EM for a diagonal-covariance mixture, seeded by k-means++ assignment.

    One whole-array E/M step per iteration, on the (k, m, d) squared
    deviations from the new means (E[x^2] - mean^2 would cancel on offset or
    binary data).  A component with nk <= 1e-12 keeps its mean and variance.
    Stops once the mean per-row log-likelihood moves less than ``tol``, a
    test that does not tighten as the context grows; returns the fit, the
    iterations run and whether that test fired."""
    m, d = x.shape
    centers = _kmeans_pp(x, k, rng)
    assign = ((x[:, None, :] - centers[None]) ** 2).sum(-1).argmin(axis=1)
    resp = np.zeros((k, m))
    resp[assign, np.arange(m)] = 1.0

    weights = np.full(k, 1.0 / k)
    means = centers.copy()
    variances = np.full((k, d), x.var(axis=0) + eps_var)
    dev = np.empty((k, m, d))  # the one (k, m, d) buffer of the fit
    prev_ll = -np.inf
    for it in range(1, max_iter + 1):
        # M step
        nk = resp.sum(axis=1)
        live = (nk > 1e-12)[:, None]
        denom = np.where(live, nk[:, None], 1.0)
        means = np.where(live, resp @ x / denom, means)
        np.square(np.subtract(x, means[:, None], out=dev), out=dev)
        variances = np.where(live, (resp[:, None, :] @ dev)[:, 0] / denom
                             + eps_var, variances)
        weights = np.maximum(nk, 1e-12)
        weights = weights / weights.sum()
        # E step
        norm = np.log(weights) - 0.5 * np.log(2.0 * np.pi * variances).sum(1)
        quad = (dev @ (1.0 / variances)[:, :, None])[:, :, 0]
        comp_ll = norm[:, None] - 0.5 * quad
        row_ll = _logsumexp(comp_ll, axis=0)
        resp = np.exp(comp_ll - row_ll)
        ll = float(row_ll.mean())
        if abs(ll - prev_ll) < tol:
            return weights, means, variances, it, True
        prev_ll = ll
    return weights, means, variances, max_iter, False


def fit_twin(train: Table, k: int = 2,
             rng: np.random.Generator | None = None,
             n_contexts: int | None = None,
             max_iter: int = 100, tol: float = 1e-3,
             eps_var: float = EPS_VAR) -> TwinModel:
    """Fit one diagonal-covariance mixture per context on inlier data.

    Each context's EM stops once its mean per-row log-likelihood moves less
    than ``tol`` between iterations, or after ``max_iter`` iterations; the
    model records both per context (``iterations``, ``converged``)."""
    if rng is None:
        rng = np.random.default_rng(0)
    fits = []  # one _em_diag result per context
    for c, group in enumerate(_context_groups(train, n_contexts)):
        if len(group) < k:
            raise ValueError(f"context {c} has {len(group)} points; "
                             f"need at least k={k} to fit the mixture")
        fits.append(_em_diag(group.observed(), k, rng, max_iter, tol,
                             eps_var))
    return TwinModel(*(np.stack(part) for part in zip(*fits)))


def sample_synthetic(model: TwinModel, context, uniforms: np.ndarray,
                     noise: np.ndarray, work: np.ndarray | None = None
                     ) -> np.ndarray:
    """Turn drawn randomness into synthetic feature vectors, i.i.d. per
    context; the caller draws.

    ``context`` is one context id or a vector of k ids.  Batch i has
    n_tilde rows: row j takes its mixture component from ``uniforms[i, j]``
    (uniforms is (k, n_tilde)) and its standard normal noise from
    ``noise[i, j]`` (noise is (k, n_tilde, d)).  The k batches come back
    stacked into (k * n_tilde, d) rows.  Given ``work``, a (2, k, n_tilde,
    d) float array, nothing is allocated for them: the rows are a view of
    work[0], and work[1] holds each row's mean on the way.
    """
    contexts = np.atleast_1d(np.asarray(context))
    k = contexts.size
    if uniforms.ndim != 2 or uniforms.shape[0] != k or uniforms.shape[1] < 1:
        raise ValueError(f"need (k, n_tilde) uniforms with k = {k} and "
                         f"n_tilde >= 1, got shape {uniforms.shape}")
    if noise.shape != (*uniforms.shape, model.dim):
        raise ValueError(f"noise shape {noise.shape} does not match "
                         f"uniforms {uniforms.shape} and d = {model.dim}")
    outside = (contexts < 0) | (contexts >= model.n_contexts)
    if outside.any():
        raise ValueError(f"context {contexts[outside][0]} outside "
                         f"[0, {model.n_contexts})")
    # as Generator.choice(p=weights) picks it, the component is the count of
    # normalized cumulative weights at or below the uniform; the last one is
    # 1, above every uniform
    _, width, dim = model.means.shape
    cdf = np.cumsum(model.weights, axis=1)
    cdf /= cdf[:, -1:]
    slot = contexts[:, None] * width  # first component of each row's context
    for j in range(width - 1):
        slot = slot + (uniforms >= cdf[contexts, j][:, None])
    # (k, 1) when K = 1: broadcast, so that each take gives every row.  The
    # ids are checked above, so every slot is in range and the takes skip
    # the bounds check ("raise" would also copy through a temporary)
    slot = np.broadcast_to(slot, uniforms.shape)
    scale, mean = (None, None) if work is None else work
    rows = np.take(np.sqrt(model.variances).reshape(-1, dim), slot, axis=0,
                   out=scale, mode="clip")
    rows *= noise
    rows += np.take(model.means.reshape(-1, dim), slot, axis=0, out=mean,
                    mode="clip")
    return rows.reshape(-1, dim)


def proxy_pvalues(synthetic_scores, validation_scores,
                  plus_one: bool = True) -> np.ndarray:
    """Conformal p-value of each validation score against one synthetic
    pool, sorted once: a NaN pool score sorts last and never counts as >=,
    and -0.0 ties 0.0, as >= has it."""
    pool = np.sort(np.asarray(synthetic_scores, dtype=float))
    val = np.asarray(validation_scores, dtype=float)
    if pool.size == 0 or val.size == 0:
        raise ValueError("score pools must be non-empty")
    bad = ~np.isfinite(val)
    if bad.any():
        raise ValueError(f"test score must be finite, got {val[bad][0]}")
    numbers = pool.size - np.count_nonzero(np.isnan(pool))
    counts = numbers - np.searchsorted(pool[:numbers], val, side="left")
    return _rank_pvalue(counts, pool.size, plus_one)


def positive_ecdf_gap(pvalues) -> float:
    """sup_p (ECDF(p) - p), evaluated exactly at the step-function jumps.

    The ECDF is piecewise constant, so the supremum over [0, 1] is attained
    either at a jump or at p = 0 (where the gap is the fraction of zeros).
    """
    p = np.sort(np.asarray(pvalues, dtype=float))
    if p.size == 0:
        raise ValueError("need at least one p-value")
    ranks = np.arange(1, p.size + 1) / p.size
    return float(max(0.0, np.max(ranks - p)))


def superuniformity_gap(synthetic_scores, validation_scores,
                        plus_one: bool = True) -> float:
    """Superuniformity-violation meter for a synthetic score pool.

    Zero means the generator-based p-values look superuniform on the held-out
    inliers; larger values mean the generator concentrates p-values too low.
    """
    return positive_ecdf_gap(
        proxy_pvalues(synthetic_scores, validation_scores, plus_one))


def gamma_of_context(d: float, lam: float) -> float:
    """Map a superuniformity gap to the acquisition trust parameter.

    gamma = min(GAMMA_MAX, exp(-lam * max(0, d))): a perfect generator earns
    the largest (capped) trust, and trust decays exponentially in the gap.
    """
    if not 0.0 < lam < np.inf:
        raise ValueError("lam must be positive and finite")
    return min(GAMMA_MAX, float(np.exp(-lam * max(0.0, d))))
