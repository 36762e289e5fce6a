"""Per-context synthetic-data generator and trust calibration.

A diagonal-covariance Gaussian mixture is fit per context and used to mint
synthetic calibration batches.  Trust in the generator is quantified by the
largest positive gap between the empirical CDF of generator-based p-values
on held-out inliers and the uniform CDF; the gap maps to the acquisition
parameter gamma through a decaying exponential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conformal import GAMMA_MAX, conformal_pvalues
from .core import EPS_VAR, features_matrix
from .scoring import _kmeans_pp

__all__ = [
    "TwinModel",
    "ValidityReport",
    "fit_twin",
    "sample_synthetic",
    "proxy_pvalues",
    "positive_ecdf_gap",
    "superuniformity_gap",
    "gamma_of_context",
]


@dataclass(frozen=True, eq=False)
class TwinModel:
    """Per-context Gaussian mixture with diagonal covariances."""

    weights: tuple[np.ndarray, ...]    # (K,) per context
    means: tuple[np.ndarray, ...]      # (K, d) per context
    variances: tuple[np.ndarray, ...]  # (K, d) per context

    def __post_init__(self) -> None:
        for c, w in enumerate(self.weights):
            if np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-9:
                raise ValueError(f"context {c}: weights must be positive and sum to 1")
            if np.any(self.variances[c] < EPS_VAR * (1.0 - 1e-12)):
                raise ValueError(f"context {c}: variances fell below the floor")

    @property
    def n_contexts(self) -> int:
        return len(self.weights)

    @property
    def dim(self) -> int:
        return int(self.means[0].shape[1])


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    top = a.max(axis=axis, keepdims=True)
    return (top + np.log(np.exp(a - top).sum(axis=axis, keepdims=True))).squeeze(axis)


def _em_diag(x: np.ndarray, k: int, rng: np.random.Generator,
             max_iter: int, tol: float, eps_var: float):
    """EM for a diagonal-covariance mixture, seeded by k-means++ assignment."""
    m, d = x.shape
    centers = _kmeans_pp(x, k, rng)
    assign = ((x[:, None, :] - centers[None]) ** 2).sum(-1).argmin(axis=1)
    resp = np.zeros((m, k))
    resp[np.arange(m), assign] = 1.0

    weights = np.full(k, 1.0 / k)
    means = centers.copy()
    variances = np.full((k, d), x.var(axis=0) + eps_var)
    prev_ll = -np.inf
    for _ in range(max_iter):
        # M step
        nk = resp.sum(axis=0)
        for j in range(k):
            if nk[j] > 1e-12:
                means[j] = resp[:, j] @ x / nk[j]
                variances[j] = resp[:, j] @ (x - means[j]) ** 2 / nk[j] + eps_var
        weights = np.maximum(nk, 1e-12)
        weights = weights / weights.sum()
        # E step
        comp_ll = np.empty((m, k))
        for j in range(k):
            comp_ll[:, j] = (np.log(weights[j])
                             - 0.5 * np.log(2.0 * np.pi * variances[j]).sum()
                             - 0.5 * ((x - means[j]) ** 2 / variances[j]).sum(axis=1))
        row_ll = _logsumexp(comp_ll, axis=1)
        resp = np.exp(comp_ll - row_ll[:, None])
        ll = float(row_ll.sum())
        if abs(ll - prev_ll) < tol:
            break
        prev_ll = ll
    return weights, means, variances


def fit_twin(train, k: int = 2, rng: np.random.Generator | None = None,
             n_contexts: int | None = None, max_iter: int = 100,
             tol: float = 1e-6, eps_var: float = EPS_VAR) -> TwinModel:
    """Fit one diagonal-covariance mixture per context on inlier data."""
    if rng is None:
        rng = np.random.default_rng(0)
    if not train:
        raise ValueError("training data is empty")
    if n_contexts is None:
        n_contexts = max(obs.context for obs in train) + 1
    weights, means, variances = [], [], []
    for c in range(n_contexts):
        members = [obs for obs in train if obs.context == c]
        if len(members) < k:
            raise ValueError(f"context {c} has {len(members)} points; "
                             f"need at least k={k} to fit the mixture")
        w, mu, var = _em_diag(features_matrix(members), k, rng,
                              max_iter, tol, eps_var)
        weights.append(w)
        means.append(mu)
        variances.append(var)
    return TwinModel(tuple(weights), tuple(means), tuple(variances))


def sample_synthetic(model: TwinModel, context, n_tilde: int,
                     rng: np.random.Generator,
                     noise_rng: np.random.Generator | None = None
                     ) -> np.ndarray:
    """Draw n_tilde i.i.d. synthetic feature vectors per context.

    ``context`` is one context id, giving an (n_tilde, d) batch, or a vector
    of k ids, giving k batches stacked into (k * n_tilde, d) rows.  Each
    row's mixture component comes from one uniform of ``rng`` and its
    Gaussian noise from ``noise_rng``, or from ``rng`` after all the
    uniforms when that is None.  With two generators, successive calls read
    both in order, so a batch does not depend on how the calls split a
    sequence of contexts.
    """
    if n_tilde < 1:
        raise ValueError("n_tilde must be >= 1")
    contexts = np.atleast_1d(np.asarray(context))
    outside = (contexts < 0) | (contexts >= model.n_contexts)
    if outside.any():
        raise ValueError(f"context {contexts[outside][0]} outside "
                         f"[0, {model.n_contexts})")
    uniforms = rng.random((contexts.size, n_tilde))
    noise = (rng if noise_rng is None else noise_rng).standard_normal(
        (contexts.size, n_tilde, model.dim))
    # as Generator.choice(p=weights) picks it, the component is the count of
    # normalized cumulative weights at or below the uniform; the last one is
    # 1, above every uniform, and so is the padding of a smaller mixture
    width = max(w.size for w in model.weights)
    bounds = np.full((model.n_contexts, width - 1), np.inf)
    params = np.zeros((model.n_contexts, width, 2, model.dim))
    for c, weights in enumerate(model.weights):
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        bounds[c, :weights.size - 1] = cdf[:-1]
        params[c, :weights.size, 0] = model.means[c]
        params[c, :weights.size, 1] = np.sqrt(model.variances[c])
    slot = contexts[:, None] * width  # first component of each row's context
    for j in range(width - 1):
        slot = slot + (uniforms >= bounds[contexts, j][:, None])
    drawn = np.take(params.reshape(-1, 2, model.dim), slot, axis=0)
    rows = drawn[..., 0, :] + drawn[..., 1, :] * noise
    return rows.reshape(-1, model.dim)


def proxy_pvalues(synthetic_scores, validation_scores,
                  plus_one: bool = True) -> np.ndarray:
    """Conformal p-value of each validation score against the synthetic pool."""
    synth = np.asarray(synthetic_scores, dtype=float)
    val = np.asarray(validation_scores, dtype=float)
    if synth.size == 0 or val.size == 0:
        raise ValueError("score pools must be non-empty")
    return conformal_pvalues(np.broadcast_to(synth, (val.size, synth.size)),
                             val, plus_one)


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
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    return min(GAMMA_MAX, float(np.exp(-lam * max(0.0, d))))


@dataclass(frozen=True, eq=False)
class ValidityReport:
    """Per-context trust summary: gap, gamma, and the p-value sample."""

    gaps: tuple[float, ...]
    gammas: tuple[float, ...]
    pvalues: tuple[np.ndarray, ...]
    lam: float

    def __post_init__(self) -> None:
        for c, g in enumerate(self.gammas):
            if not 0.0 < g <= GAMMA_MAX:
                raise ValueError(f"context {c}: gamma outside (0, {GAMMA_MAX}]")

    def to_json_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "contexts": [
                {"gap": self.gaps[c], "gamma": self.gammas[c],
                 "pvalues": self.pvalues[c].tolist()}
                for c in range(len(self.gaps))
            ],
        }
