"""Decaying-memory LORD threshold schedule and the sequential detector step.

The threshold at time t is

    alpha_t = alpha * eta * max(zeta_t, 1 - delta)
            + alpha * sum_j delta^(t - rho_j) * zeta_(t - rho_j)

where rho_j are past detection times (strictly before t, so the threshold
is measurable before the current statistic is seen) and {zeta_t} is a
non-increasing sequence summing to 1 over t <= 10^6 and zero beyond.  The
memory term is a convolution with k_l = delta^l * zeta_l, whose tail past
W(delta) lags sums to less than KERNEL_TAIL, so the state keeps only the
detections of the last W steps, however long the stream runs.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Callable

import numpy as np

from .conformal import GAMMA_MAX, active_outcome, conformal_pvalue

KERNEL_TAIL = 1e-17

__all__ = [
    "KERNEL_TAIL",
    "DetectorState",
    "StepRecord",
    "build_zeta",
    "decay_kernel",
    "next_threshold",
    "step",
]


@cache
def build_zeta() -> np.ndarray:
    """Read-only zeta_1..zeta_(10^6): log(max(t, 2)) / (t * exp(sqrt(log t)))
    normalized to sum to 1."""
    t = np.arange(1, 10**6 + 1, dtype=float)
    raw = np.log(np.maximum(t, 2.0)) / (t * np.exp(np.sqrt(np.log(t))))
    values = raw / raw.sum()
    values.flags.writeable = False
    return values


@lru_cache(maxsize=8)
def decay_kernel(delta: float) -> np.ndarray:
    """Read-only k_l = delta^l * zeta_l for lags 1..W, W <= 10^6 the first with
    delta^W / (1 - delta) <= KERNEL_TAIL, which bounds the dropped tail."""
    zetas = build_zeta()
    width = min(zetas.size, math.ceil(
        math.log(KERNEL_TAIL * (1.0 - delta)) / math.log(delta)))
    kernel = delta ** np.arange(1, width + 1) * zetas[:width]
    kernel.flags.writeable = False
    return kernel


@dataclass(frozen=True, eq=False)
class DetectorState:
    """Sequential detector state: clock, recent detection times, parameters.

    ``t`` is the index of the step about to be tested (1-based);
    ``detection_times`` holds the strictly increasing rho_j < t that lie
    within the ``decay_kernel(delta)`` window.
    """

    t: int
    detection_times: tuple[int, ...]
    alpha: float
    delta: float
    eta: float

    @classmethod
    def fresh(cls, alpha: float, delta: float,
              eta: float = 1.0) -> "DetectorState":
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if not 0.0 < delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if eta <= 0.0:
            raise ValueError("eta must be positive")
        return cls(t=1, detection_times=(), alpha=alpha, delta=delta, eta=eta)

    def record(self, rejected: bool) -> "DetectorState":
        """Advance the clock, appending the current time when rejected and
        dropping the detections the kernel no longer reaches."""
        times = self.detection_times + (self.t,) if rejected else self.detection_times
        oldest = self.t + 1 - decay_kernel(self.delta).size
        times = times[bisect_left(times, oldest):]
        return DetectorState(t=self.t + 1, detection_times=times,
                             alpha=self.alpha, delta=self.delta, eta=self.eta)


def next_threshold(state: DetectorState) -> float:
    """Threshold for the current step, from past detections only."""
    zetas = build_zeta()
    zeta_t = float(zetas[state.t - 1]) if state.t <= zetas.size else 0.0
    alpha_t = state.alpha * state.eta * max(zeta_t, 1.0 - state.delta)
    if state.detection_times:
        lags = state.t - np.asarray(state.detection_times)  # all in [1, W]
        alpha_t += state.alpha * float(
            np.sum(decay_kernel(state.delta)[lags - 1]))
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
