import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from coad.metrics import MetricsTracker, RunTrace, aggregate


class TestTracker:
    def test_single_false_anomaly(self):
        tr = MetricsTracker.fresh(delta=0.95, eta=1.0)
        tr = tr.update(decision=1, truth=0, acquired=0)
        assert tr.sfdr == pytest.approx(1.0 / (1.0 + 1.0))

    def test_perfect_detector_zero_sfdr(self):
        tr = MetricsTracker.fresh(delta=0.95)
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = int(rng.random() < 0.3)
            tr = tr.update(decision=a, truth=a, acquired=1)
        assert tr.sfdr == 0.0

    def test_cdar_geometric_limit(self):
        tr = MetricsTracker.fresh(delta=0.95)
        for _ in range(2000):
            tr = tr.update(decision=0, truth=0, acquired=1)
        assert abs(tr.cdar - 20.0) < 1e-9

    @pytest.mark.parametrize("eta", [np.nan, np.inf])
    def test_non_finite_eta_named(self, eta):
        # a NaN eta made sFDR NaN, an infinite one made it 0
        with pytest.raises(ValueError, match="^eta must be positive and "
                                             "finite$"):
            MetricsTracker.fresh(delta=0.9, eta=eta)

    def test_unknown_truth_rejected(self):
        tr = MetricsTracker.fresh(delta=0.95)
        with pytest.raises(ValueError, match="truth"):
            tr.update(decision=0, truth=None, acquired=0)

    def test_never_rejecting_zeroes_rates(self):
        tr = MetricsTracker.fresh(delta=0.9)
        for t in range(50):
            tr = tr.update(decision=0, truth=t % 2, acquired=0)
        assert tr.sfdr == 0.0 and tr.power == 0.0

    def test_sfdr_bounded_by_eta(self):
        tr = MetricsTracker.fresh(delta=0.5, eta=0.25)
        for _ in range(100):
            tr = tr.update(decision=1, truth=0, acquired=0)
        assert tr.sfdr <= tr.false_anomalies / tr.eta
        assert tr.false_anomalies <= 1.0 / (1.0 - 0.5)

    def test_power_ratio(self):
        tr = MetricsTracker.fresh(delta=0.95)
        tr = tr.update(decision=1, truth=1, acquired=1)
        tr = tr.update(decision=0, truth=1, acquired=0)
        # TP mass 0.95, anomaly mass 1.95
        assert tr.power == pytest.approx(0.95 / (1.95 + 1.0))

    def test_quiet_step_only_decays_power_masses(self):
        # a step with no anomaly and no detection scales both power masses
        # by delta and adds nothing
        tr = MetricsTracker.fresh(delta=0.9)
        tr = tr.update(decision=1, truth=1, acquired=0)
        tr2 = tr.update(decision=0, truth=0, acquired=0)
        assert tr2.true_detections == pytest.approx(0.9 * 1.0)
        assert tr2.anomalies == pytest.approx(0.9 * 1.0)


def _trace(values):
    arr = np.asarray(values, dtype=float)
    return RunTrace(arr, arr, arr)


class TestAggregate:
    def test_identical_traces(self):
        agg = aggregate([_trace([0.1, 0.2])] * 5)
        assert np.allclose(agg.sfdr_mean, [0.1, 0.2])
        assert np.allclose(agg.sfdr_se, 0.0)

    def test_two_point_statistics(self):
        agg = aggregate([_trace([0.0]), _trace([1.0])])
        assert agg.sfdr_mean[0] == 0.5
        assert agg.sfdr_se[0] == pytest.approx(0.5)

    def test_coin_flip_standard_error(self):
        rng = np.random.default_rng(0)
        traces = [_trace([float(rng.integers(2))]) for _ in range(100)]
        agg = aggregate(traces)
        assert agg.sfdr_se[0] == pytest.approx(0.05, abs=0.015)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            aggregate([_trace([0.1]), _trace([0.1, 0.2])])

    def test_single_trace_zero_se(self):
        agg = aggregate([_trace([0.3, 0.4])])
        assert np.allclose(agg.sfdr_se, 0.0)

    def test_one_metric_stack_alive_at_once(self):
        # the three (runs, T) stacks, alive together, held 24 B/step on top
        # of the summary; stacked and reduced one at a time, they hold 8
        steps = 200_000
        trace = RunTrace(*np.random.default_rng(0).random((3, steps)))
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            agg = aggregate([trace])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(getattr(agg, f.name).nbytes for f in fields(agg))
        assert (peak - entry - returned) / steps <= 12


def test_trace_shape_validation():
    with pytest.raises(ValueError):
        RunTrace(np.zeros(3), np.zeros(2), np.zeros(3))
