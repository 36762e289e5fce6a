"""Decaying-memory evaluation: smoothed FDR, power, and acquisition rate.

A run's metrics come from five decayed masses, each following the plain
recursion m <- delta * m + x of the decaying-memory FDR.  ``run_trace``
folds them over a run's decision, truth and acquisition columns a block of
steps at a time and takes the per-timestep ratios as vectors;
``MetricsTracker`` folds one timestep at a time with the same arithmetic.
Traces are averaged pointwise across Monte Carlo runs.
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
        if not 0.0 < eta < np.inf:
            raise ValueError("eta must be positive and finite")
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


# run_trace folds this many steps at a time, so its transients stay a few
# hundred KB however long the run is.
TRACE_BLOCK = 2**12


def _decayed(inputs: list, delta: float, start: float) -> np.ndarray:
    """m_t = delta * m_(t-1) + x_t from m_0 = ``start``, in step order."""
    masses = accumulate(inputs, lambda m, x: delta * m + x, initial=start)
    return np.fromiter(masses, float, count=len(inputs) + 1)[1:]


def run_trace(decision, truth, acquired, delta: float,
              eta: float = 1.0) -> RunTrace:
    """The trace of one run from its 0/1 decision, truth and acquisition
    columns; equal, bit for bit, to folding ``MetricsTracker.update`` over
    the steps.

    The five masses are folded one block of TRACE_BLOCK steps at a time,
    each block starting from the masses the last one ended with, and the
    block's ratios are written straight into the trace.
    """
    columns = [np.asarray(c) for c in (decision, truth, acquired)]
    steps = columns[0].size
    sfdr, power, cdar = np.empty(steps), np.empty(steps), np.empty(steps)
    masses = [0.0] * 5
    for lo in range(0, steps, TRACE_BLOCK):
        at = slice(lo, lo + TRACE_BLOCK)
        d, t, a = (np.asarray(c[at], dtype=int) for c in columns)
        folded = [_decayed(x.tolist(), delta, start) for x, start in zip(
            (d * (1 - t), d, d * t, t, a), masses)]
        false_anomalies, detections, true_detections, anomalies, \
            acquisitions = folded
        sfdr[at] = false_anomalies / (detections + eta)
        power[at] = true_detections / (anomalies + eta)
        cdar[at] = acquisitions
        masses = [float(m[-1]) for m in folded]
    return RunTrace(sfdr, power, cdar)


def aggregate(traces) -> TraceSummary:
    """Pointwise Monte Carlo mean and standard error over equal-length
    traces, one metric at a time, so that one (runs, T) stack is alive at
    once."""
    traces = list(traces)
    if not traces:
        raise ValueError("need at least one trace to aggregate")
    length = traces[0].sfdr.size
    if any(tr.sfdr.size != length for tr in traces):
        raise ValueError("all traces must have the same length")
    out = []
    for name in ("sfdr", "power", "cdar"):
        rows = np.stack([getattr(tr, name) for tr in traces])
        out.append(rows.mean(axis=0))
        out.append(rows.std(axis=0, ddof=1) / np.sqrt(len(traces))
                   if len(traces) >= 2 else np.zeros(length))
        del rows  # before the next metric's stack is built
    return TraceSummary(*out)
