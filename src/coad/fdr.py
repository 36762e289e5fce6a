"""Decaying-memory LORD threshold schedule and the sequential detector step.

The threshold at time t is

    alpha_t = alpha * eta * max(zeta_t, 1 - delta)
            + alpha * sum_j delta^(t - rho_j) * zeta_(t - rho_j)

where rho_j are past detection times (strictly before t, so the threshold
is measurable before the current statistic is seen) and {zeta_t} is a
non-increasing sequence normalized to sum to 1 over its horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .conformal import GAMMA_MAX, active_outcome, conformal_pvalue

T_NORM_DEFAULT = 10**6

__all__ = [
    "T_NORM_DEFAULT",
    "ZetaSequence",
    "DetectorState",
    "StepRecord",
    "build_zeta",
    "zeta",
    "next_threshold",
    "step",
]


@dataclass(frozen=True, eq=False)
class ZetaSequence:
    """Precomputed zeta_1..zeta_T, non-increasing and summing to 1."""

    values: np.ndarray

    def __len__(self) -> int:
        return int(self.values.size)

    def value(self, t: int) -> float:
        """zeta_t for 1 <= t <= horizon."""
        if not 1 <= t <= self.values.size:
            raise ValueError(f"t must lie in [1, {self.values.size}], got {t}")
        return float(self.values[t - 1])


@lru_cache(maxsize=4)
def build_zeta(t_norm: int = T_NORM_DEFAULT) -> ZetaSequence:
    """Normalize zeta_t = log(max(t, 2)) / (t * exp(sqrt(log t))) over t_norm terms."""
    if t_norm < 1:
        raise ValueError("t_norm must be >= 1")
    t = np.arange(1, t_norm + 1, dtype=float)
    raw = np.log(np.maximum(t, 2.0)) / (t * np.exp(np.sqrt(np.log(t))))
    values = raw / raw.sum()
    values.flags.writeable = False
    return ZetaSequence(values)


def zeta(t: int, t_norm: int = T_NORM_DEFAULT) -> float:
    return build_zeta(t_norm).value(t)


@dataclass(frozen=True, eq=False)
class DetectorState:
    """Sequential detector state: clock, past detection times, parameters.

    ``t`` is the index of the step about to be tested (1-based);
    ``detection_times`` holds the strictly increasing rho_j, all < t.
    """

    t: int
    detection_times: tuple[int, ...]
    alpha: float
    delta: float
    eta: float
    zetas: ZetaSequence

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.eta <= 0.0:
            raise ValueError("eta must be positive")
        if self.t < 1:
            raise ValueError("t starts at 1")
        times = self.detection_times
        if any(b <= a for a, b in zip(times, times[1:])) or \
                any(rho >= self.t for rho in times):
            raise ValueError("detection times must be strictly increasing and < t")

    @classmethod
    def fresh(cls, alpha: float, delta: float, eta: float = 1.0,
              t_norm: int = T_NORM_DEFAULT) -> "DetectorState":
        return cls(t=1, detection_times=(), alpha=alpha, delta=delta,
                   eta=eta, zetas=build_zeta(t_norm))

    def record(self, rejected: bool) -> "DetectorState":
        """Advance the clock, appending the current time when rejected."""
        times = self.detection_times + (self.t,) if rejected else self.detection_times
        return DetectorState(t=self.t + 1, detection_times=times,
                             alpha=self.alpha, delta=self.delta,
                             eta=self.eta, zetas=self.zetas)


def next_threshold(state: DetectorState) -> float:
    """Threshold for the current step, from past detections only."""
    zeta_t = state.zetas.value(state.t)
    alpha_t = state.alpha * state.eta * max(zeta_t, 1.0 - state.delta)
    if state.detection_times:
        lags = state.t - np.asarray(state.detection_times)  # all >= 1
        alpha_t += state.alpha * float(
            np.sum(state.delta ** lags * state.zetas.values[lags - 1]))
    return min(1.0, alpha_t)


@dataclass(frozen=True)
class StepRecord:
    """Audit row for one detector step.

    ``q``/``p`` are absent when no synthetic/real batch was scored; ``z``
    and ``alpha_t`` are absent only for the fixed-threshold baseline, which
    tests raw scores instead of p-values.
    """

    t: int
    context: int
    q: float | None
    u: int
    p: float | None
    z: float | None
    alpha_t: float | None
    decision: int
    truth: int | None


def step(
    state: DetectorState,
    test_score: float,
    context: int,
    *,
    rng: np.random.Generator,
    gamma: float = GAMMA_MAX,
    synthetic_scores=None,
    real_scores: Callable[[], np.ndarray] | None = None,
    acquisition: str = "active",
    plus_one: bool = True,
    truth: int | None = None,
) -> tuple[StepRecord, DetectorState]:
    """Run one detector step and return its record plus the advanced state.

    ``acquisition`` selects the calibration regime: "always" queries a real
    batch every step (statistic = real p-value), "never" relies on the
    synthetic batch alone (statistic = proxy p-value), and "active" draws
    the acquisition indicator from the proxy p-value and combines the two.
    ``real_scores`` is invoked lazily, only when a real batch is used.
    """
    q = None
    if synthetic_scores is not None:
        q = conformal_pvalue(synthetic_scores, test_score, plus_one)

    if acquisition == "always":
        if real_scores is None:
            raise ValueError("'always' acquisition needs a real batch")
        u, p = 1, conformal_pvalue(real_scores(), test_score, plus_one)
        z = p
    elif acquisition == "never":
        if q is None:
            raise ValueError("'never' acquisition needs a synthetic batch")
        u, p, z = 0, None, q
    elif acquisition == "active":
        if q is None or real_scores is None:
            raise ValueError("'active' acquisition needs both batch sources")
        u, p, z = active_outcome(
            q, gamma, rng,
            lambda: conformal_pvalue(real_scores(), test_score, plus_one))
    else:
        raise ValueError(f"unknown acquisition rule {acquisition!r}")

    alpha_t = next_threshold(state)
    rejected = z <= alpha_t  # ties reject
    record = StepRecord(t=state.t, context=context, q=q, u=u, p=p, z=z,
                        alpha_t=alpha_t, decision=int(rejected), truth=truth)
    return record, state.record(rejected)
