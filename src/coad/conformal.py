"""Conformal p-values and the probabilistic real-data acquisition rule.

A proxy p-value ranks the test score against synthetic calibration scores;
it is cheap but carries no guarantee.  The acquisition rule queries a real
calibration batch with probability 1 - gamma * q, and the resulting active
statistic -- the proxy when no query happened, the inflated real p-value
otherwise -- is superuniform under the null no matter how biased the
synthetic data is.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import clamp_pvalue

# gamma = 1 would make the inflation factor 1/(1-gamma) blow up, so the
# trust parameter is capped just below one.
EPS_GAMMA = 1e-3
GAMMA_MAX = 1.0 - EPS_GAMMA

__all__ = [
    "EPS_GAMMA",
    "GAMMA_MAX",
    "conformal_pvalue",
    "acquisition_probability",
    "draw_acquisition",
    "active_pvalue",
    "active_outcome",
]


def conformal_pvalue(cal_scores, test_score: float, plus_one: bool = True) -> float:
    """Rank-based p-value of a test score against calibration scores.

    With ``plus_one`` (the default) the statistic is
    (1 + #{i: s_i >= s}) / (n + 1), superuniform for exchangeable scores.
    ``plus_one=False`` drops the offset; the statistic can then hit zero and
    loses the low-tail guarantee (kept only for fidelity experiments).
    Ties count through >=.
    """
    scores = np.asarray(cal_scores, dtype=float)
    if scores.size == 0:
        raise ValueError("calibration batch must be non-empty")
    if not np.isfinite(test_score):
        raise ValueError(f"test score must be finite, got {test_score}")
    count = int(np.count_nonzero(scores >= test_score))
    if plus_one:
        count += 1
    return count / (scores.size + 1)


def _check_gamma(gamma: float) -> None:
    if not 0.0 < gamma <= GAMMA_MAX:
        raise ValueError(f"gamma must lie in (0, {GAMMA_MAX}], got {gamma}")


def acquisition_probability(q: float, gamma: float) -> float:
    """Probability of buying a real calibration batch: 1 - gamma * q."""
    _check_gamma(gamma)
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"proxy p-value must lie in [0, 1], got {q}")
    return 1.0 - gamma * q


def draw_acquisition(q: float, gamma: float, rng: np.random.Generator) -> int:
    """Bernoulli draw of the acquisition indicator; 1 means query real data."""
    return int(rng.random() < acquisition_probability(q, gamma))


def active_pvalue(q: float, u: int, p: float | None, gamma: float) -> float:
    """Combine proxy and (optionally) real p-values into the test statistic.

    Z = q when no real data was acquired, and min(1, p / (1 - gamma))
    otherwise.  The inflation compensates for only querying when the proxy
    already looked suspicious.
    """
    _check_gamma(gamma)
    if u not in (0, 1):
        raise ValueError("acquisition indicator must be 0 or 1")
    if u == 0:
        if p is not None:
            raise ValueError("real p-value present without acquisition")
        return clamp_pvalue(q)
    if p is None:
        raise ValueError("acquisition happened but no real p-value given")
    return clamp_pvalue(p / (1.0 - gamma))


def active_outcome(q: float, gamma: float, rng: np.random.Generator,
                   real_pvalue: Callable[[], float]
                   ) -> tuple[int, float | None, float]:
    """Run one acquisition round and return (u, p, z).

    ``real_pvalue`` is called only when the Bernoulli draw asks for real
    data, so callers pay for a real batch only when one is used; ``p`` is
    None when it was not called.
    """
    u = draw_acquisition(q, gamma, rng)
    p = float(real_pvalue()) if u else None
    return u, p, active_pvalue(q, u, p, gamma)
