"""Decaying-memory evaluation: smoothed FDR, power, and acquisition rate.

A run's metrics come from five decayed masses, each following the plain
recursion m <- delta * m + x of the decaying-memory FDR.  ``run_trace``
folds them over a run's decision, truth and acquisition columns and takes
the per-timestep ratios as vectors; ``MetricsTracker`` folds one timestep
at a time with the same arithmetic.  Traces are averaged pointwise across
Monte Carlo runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

__all__ = ["MetricsTracker", "RunTrace", "TraceSummary", "aggregate",
           "run_trace"]


@dataclass(frozen=True)
class MetricsTracker:
    """Decayed masses of false anomalies, detections, hits, anomalies, queries.

    Each mass follows m <- delta * m + x, so after inputs x_1..x_t it equals
    sum_tau delta^(t - tau) * x_tau; with 0/1 inputs it stays below
    1 / (1 - delta).
    """

    false_anomalies: float
    detections: float
    true_detections: float
    anomalies: float
    acquisitions: float
    delta: float
    eta: float = 1.0

    @classmethod
    def fresh(cls, delta: float, eta: float = 1.0) -> "MetricsTracker":
        if not 0.0 < delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if eta <= 0.0:
            raise ValueError("eta must be positive")
        return cls(0.0, 0.0, 0.0, 0.0, 0.0, delta, eta)

    def update(self, decision: int, truth: int | None,
               acquired: int) -> "MetricsTracker":
        """Fold one timestep (0/1 decision, truth, acquisition flag) in."""
        if truth is None:
            raise ValueError("metrics need ground-truth labels; truth is unknown")
        d = self.delta
        return MetricsTracker(
            false_anomalies=d * self.false_anomalies + decision * (1 - truth),
            detections=d * self.detections + decision,
            true_detections=d * self.true_detections + decision * truth,
            anomalies=d * self.anomalies + truth,
            acquisitions=d * self.acquisitions + acquired,
            delta=d, eta=self.eta,
        )

    @property
    def sfdr(self) -> float:
        return self.false_anomalies / (self.detections + self.eta)

    @property
    def power(self) -> float:
        return self.true_detections / (self.anomalies + self.eta)

    @property
    def cdar(self) -> float:
        return self.acquisitions


@dataclass(frozen=True, eq=False)
class RunTrace:
    """Per-timestep (sfdr, power, cdar) realization of a single run."""

    sfdr: np.ndarray
    power: np.ndarray
    cdar: np.ndarray

    def __post_init__(self) -> None:
        if not (self.sfdr.shape == self.power.shape == self.cdar.shape):
            raise ValueError("trace components must share one length")


@dataclass(frozen=True, eq=False)
class TraceSummary:
    """Pointwise mean and standard error across runs for each metric."""

    sfdr_mean: np.ndarray
    sfdr_se: np.ndarray
    power_mean: np.ndarray
    power_se: np.ndarray
    cdar_mean: np.ndarray
    cdar_se: np.ndarray


def _decayed(inputs, delta: float) -> np.ndarray:
    """m_t = delta * m_(t-1) + x_t from m_0 = 0, in step order."""
    masses = accumulate(inputs, lambda m, x: delta * m + x, initial=0.0)
    return np.fromiter(masses, float, count=len(inputs) + 1)[1:]


def run_trace(decision, truth, acquired, delta: float,
              eta: float = 1.0) -> RunTrace:
    """The trace of one run from its 0/1 decision, truth and acquisition
    columns; equal, bit for bit, to folding ``MetricsTracker.update`` over
    the steps."""
    decision, truth, acquired = (np.asarray(c, dtype=int)
                                 for c in (decision, truth, acquired))
    false_anomalies, detections, true_detections, anomalies, acquisitions = (
        _decayed(x.tolist(), delta) for x in (
            decision * (1 - truth), decision, decision * truth, truth,
            acquired))
    return RunTrace(false_anomalies / (detections + eta),
                    true_detections / (anomalies + eta), acquisitions)


def _mean_se(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = rows.mean(axis=0)
    if rows.shape[0] < 2:
        return mean, np.zeros_like(mean)
    se = rows.std(axis=0, ddof=1) / np.sqrt(rows.shape[0])
    return mean, se


def aggregate(traces) -> TraceSummary:
    """Pointwise Monte Carlo mean and standard error over equal-length traces."""
    traces = list(traces)
    if not traces:
        raise ValueError("need at least one trace to aggregate")
    length = traces[0].sfdr.size
    if any(tr.sfdr.size != length for tr in traces):
        raise ValueError("all traces must have the same length")
    sfdr = np.stack([tr.sfdr for tr in traces])
    power = np.stack([tr.power for tr in traces])
    cdar = np.stack([tr.cdar for tr in traces])
    sfdr_mean, sfdr_se = _mean_se(sfdr)
    power_mean, power_se = _mean_se(power)
    cdar_mean, cdar_se = _mean_se(cdar)
    return TraceSummary(sfdr_mean, sfdr_se, power_mean, power_se,
                        cdar_mean, cdar_se)
