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
    "conformal_pvalues",
    "acquisition_probability",
    "draw_acquisition",
    "active_pvalue",
    "active_pvalues",
    "active_outcome",
]


def _rank_pvalue(count, n: int, plus_one: bool):
    """(1 + count) / (n + 1), or count / (n + 1) without the offset; ``count``
    may be an int or an integer array."""
    return (count + 1 if plus_one else count) / (n + 1)


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
    return _rank_pvalue(int(np.count_nonzero(scores >= test_score)),
                        scores.size, plus_one)


def conformal_pvalues(cal_scores, test_scores,
                      plus_one: bool = True) -> np.ndarray:
    """``conformal_pvalue`` of each test score against its own batch: row i
    of the (k, n) ``cal_scores`` calibrates entry i of the (k,)
    ``test_scores``."""
    cal = np.asarray(cal_scores, dtype=float)
    tests = np.asarray(test_scores, dtype=float)
    if cal.shape[-1] == 0:
        raise ValueError("calibration batch must be non-empty")
    bad = ~np.isfinite(tests)
    if bad.any():
        raise ValueError(f"test score must be finite, got {tests[bad][0]}")
    return _rank_pvalue(np.count_nonzero(cal >= tests[:, None], axis=1),
                        cal.shape[-1], plus_one)


def _check_range(name: str, values, low: float, high: float) -> None:
    """Raise unless a number, or every entry of an array, lies in
    [low, high]."""
    smallest, largest = (values.min(), values.max()) \
        if isinstance(values, np.ndarray) else (values, values)
    if not low <= smallest or not largest <= high:
        raise ValueError(f"{name} must lie in [{low}, {high}], got {values}")


def acquisition_probability(q, gamma):
    """Probability of buying a real calibration batch: 1 - gamma * q,
    elementwise for arrays of per-step values."""
    _check_range("gamma", gamma, 0.0, GAMMA_MAX)
    _check_range("proxy p-value", q, 0.0, 1.0)
    return 1.0 - gamma * q


def draw_acquisition(q: float, gamma: float, rng: np.random.Generator) -> int:
    """Bernoulli draw of the acquisition indicator; 1 means query real data."""
    return int(rng.random() < acquisition_probability(q, gamma))


def _inflate(p, gamma):
    """The real p-value of the active statistic: p / (1 - gamma), which
    compensates for only querying when the proxy already looked
    suspicious; clamped to 1 by the callers."""
    return p / (1.0 - gamma)


def active_pvalue(q: float, u: int, p: float | None, gamma: float) -> float:
    """Combine proxy and (optionally) real p-values into the test statistic.

    Z = q when no real data was acquired, and min(1, p / (1 - gamma))
    otherwise.
    """
    _check_range("gamma", gamma, 0.0, GAMMA_MAX)
    if u not in (0, 1):
        raise ValueError("acquisition indicator must be 0 or 1")
    if u == 0:
        if p is not None:
            raise ValueError("real p-value present without acquisition")
        return clamp_pvalue(q)
    if p is None:
        raise ValueError("acquisition happened but no real p-value given")
    return clamp_pvalue(_inflate(p, gamma))


def active_pvalues(q, u, p, gamma) -> np.ndarray:
    """``active_pvalue`` of every step of a chunk: q where u is 0 and
    min(1, p / (1 - gamma)) where u is 1; ``p`` is read only where u is 1."""
    _check_range("gamma", gamma, 0.0, GAMMA_MAX)
    z = np.where(u, _inflate(p, gamma), q)
    if np.isnan(z).any():
        raise ValueError("p-value is NaN")
    return np.minimum(1.0, z)


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
