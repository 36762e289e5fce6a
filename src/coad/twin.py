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

from .conformal import GAMMA_MAX
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


def sample_synthetic(model: TwinModel, context: int, n_tilde: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Draw an (n_tilde, d) batch of i.i.d. synthetic feature vectors."""
    if n_tilde < 1:
        raise ValueError("n_tilde must be >= 1")
    if not 0 <= context < model.n_contexts:
        raise ValueError(f"context {context} outside [0, {model.n_contexts})")
    comps = rng.choice(model.weights[context].size, size=n_tilde,
                       p=model.weights[context])
    noise = rng.standard_normal((n_tilde, model.dim))
    return (model.means[context][comps]
            + np.sqrt(model.variances[context][comps]) * noise)


def proxy_pvalues(synthetic_scores, validation_scores,
                  plus_one: bool = True) -> np.ndarray:
    """Conformal p-value of each validation score against the synthetic pool."""
    synth = np.asarray(synthetic_scores, dtype=float)
    val = np.asarray(validation_scores, dtype=float)
    if synth.size == 0 or val.size == 0:
        raise ValueError("score pools must be non-empty")
    counts = (synth[None, :] >= val[:, None]).sum(axis=1)
    if plus_one:
        counts = counts + 1
    return counts / (synth.size + 1)


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
