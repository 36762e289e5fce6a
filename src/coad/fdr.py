"""Decaying-memory LORD threshold schedule and the sequential detector step.

The threshold at time t is

    alpha_t = min(1, alpha * eta * max(zeta_t, 1 - delta)
                     + alpha * sum_j delta^(t - rho_j) * zeta_(t - rho_j))

where rho_j are past detection times (strictly before t, so the threshold
is measurable before the current statistic is seen) and {zeta_t} is a
non-increasing sequence summing to 1 over t <= 10^6 and zero beyond.  The
memory term is a convolution with k_l = delta^l * zeta_l, whose tail past
W(delta) lags sums to less than KERNEL_TAIL, so only the detections of the
last W steps count, however long the stream runs.  The memory term is a
left fold in ascending rho_j: ((k_(t - rho_1) + k_(t - rho_2)) + ...), in
floating point too, so the scalar schedule (``DetectorState`` and
``next_threshold``) and the whole-stream walk (``threshold_walk``) give the
same thresholds bit for bit.

Between two detections alpha_t is known in advance, so ``threshold_walk``
finds each next detection with one vector compare over a block of steps
and then adds that detection's kernel slice to the memory of the W steps
after it: its Python work grows with the detections, not with the steps.
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
ZETA_CHUNK = 2**16

__all__ = [
    "KERNEL_TAIL",
    "DetectorState",
    "StepRecord",
    "build_zeta",
    "decay_kernel",
    "next_threshold",
    "step",
    "threshold_walk",
]


@cache
def build_zeta() -> np.ndarray:
    """Read-only zeta_1..zeta_(10^6): log(max(t, 2)) / (t * exp(sqrt(log t)))
    normalized to sum to 1.

    The terms are filled in chunks of ZETA_CHUNK, which bounds the
    temporaries of the elementwise formula; every term is computed as the
    one-shot formula computes it.
    """
    values = np.empty(10**6)
    for lo in range(0, values.size, ZETA_CHUNK):
        t = np.arange(lo + 1, min(values.size, lo + ZETA_CHUNK) + 1,
                      dtype=float)
        values[lo:lo + t.size] = (np.log(np.maximum(t, 2.0))
                                  / (t * np.exp(np.sqrt(np.log(t)))))
    values /= values.sum()
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


def _check_parameters(alpha: float, delta: float, eta: float) -> None:
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if eta <= 0.0:
        raise ValueError("eta must be positive")


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
        _check_parameters(alpha, delta, eta)
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
        kernel = decay_kernel(state.delta)
        memory = 0.0
        for rho in state.detection_times:  # ascending: the left fold
            memory += kernel[state.t - rho - 1]  # lag in [1, W]
        alpha_t += state.alpha * float(memory)
    return min(1.0, alpha_t)


# Steps the walk compares at once after a detection; the block doubles
# each time it holds none.
WALK_BLOCK = 32


def threshold_walk(z, alpha: float, delta: float,
                   eta: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Thresholds alpha_1..alpha_T and 0/1 decisions ``z_t <= alpha_t`` of
    a whole stream of statistics z_1..z_T, as ``next_threshold`` and
    ``DetectorState.record`` give them one step at a time.

    The base term alpha * eta * max(zeta_t, 1 - delta) is one vector.  The
    memory term starts at zero and gets the kernel slice k_1..k_W added
    after each detection, in detection order, so every step's memory is the
    left fold of its in-window detections.  A statistic that is NaN or
    outside [0, 1] raises, since it could never be rejected.
    """
    _check_parameters(alpha, delta, eta)
    z = np.asarray(z, dtype=float)
    bad = np.flatnonzero(~((z >= 0.0) & (z <= 1.0)))
    if bad.size:
        raise ValueError(f"statistic z_t must lie in [0, 1]; step "
                         f"{bad[0] + 1} has {z[bad[0]]}")
    steps = z.size
    zeta = np.zeros(steps)
    head = build_zeta()[:steps]
    zeta[:head.size] = head
    base = alpha * eta * np.maximum(zeta, 1.0 - delta)
    kernel = decay_kernel(delta)
    memory = np.zeros(steps)
    decisions = np.zeros(steps, dtype=int)
    t, block = 0, WALK_BLOCK
    while t < steps:
        hi = min(steps, t + block)
        # z_t <= 1, so the cap at 1 cannot change a decision
        hits = z[t:hi] <= base[t:hi] + alpha * memory[t:hi]
        first = int(hits.argmax())
        if not hits[first]:
            t, block = hi, 2 * block
            continue
        rho = t + first
        decisions[rho] = 1
        reach = min(steps, rho + 1 + kernel.size)
        memory[rho + 1:reach] += kernel[:reach - rho - 1]
        t, block = rho + 1, WALK_BLOCK
    return np.minimum(1.0, base + alpha * memory), decisions


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
