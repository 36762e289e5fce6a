import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coad.core import Observation, Table, clamp_pvalue, observation
from coad.fdr import DetectorState, step
from coad.metrics import MetricsTracker


def _never_step(test_score, synthetic, alpha=0.5, plus_one=True):
    """One "never"-rule step at t = 1, where z is the proxy p-value and
    alpha_t = alpha * max(zeta_1, 1 - 0.5) = alpha / 2."""
    state = DetectorState.fresh(alpha, 0.5)
    record, _ = step(state, test_score, 0, rng=np.random.default_rng(0),
                     synthetic_scores=np.asarray(synthetic, dtype=float),
                     acquisition="never", plus_one=plus_one)
    return record


class TestDecide:
    """The decision rule of ``fdr.step``: reject iff z <= alpha_t."""

    def test_boundary_zero_rejects(self):
        record = _never_step(10.0, [1.0, 2.0], alpha=0.0, plus_one=False)
        assert record.z == 0.0 and record.alpha_t == 0.0
        assert record.decision == 1

    def test_maximal_pvalue_never_rejects(self):
        record = _never_step(-10.0, [1.0, 2.0])
        assert record.z == 1.0 and record.decision == 0

    def test_equality_rejects(self):
        record = _never_step(10.0, [1.0, 2.0, 3.0])  # q = 1/4 = alpha_t
        assert record.z == record.alpha_t == 0.25
        assert record.decision == 1

    def test_fields_echoed(self):
        record = _never_step(1.5, [1.0, 2.0, 3.0])  # q = 3/4
        assert record.z == record.q == 0.75 and record.alpha_t == 0.25
        assert record.decision == 0

    @given(scores=st.lists(st.floats(-5, 5), min_size=1, max_size=20),
           s1=st.floats(-5, 5), s2=st.floats(-5, 5), alpha=st.floats(0, 1))
    def test_monotone(self, scores, s1, s2, alpha):
        lo, hi = sorted((_never_step(s1, scores, alpha),
                         _never_step(s2, scores, alpha)), key=lambda r: r.z)
        if hi.decision:
            assert lo.decision


def _acquisition_mass(xs, delta):
    tracker = MetricsTracker.fresh(delta)
    for x in xs:
        tracker = tracker.update(decision=0, truth=0, acquired=x)
    return tracker.acquisitions


class TestDecayedSum:
    """The recursion m <- delta * m + x behind every MetricsTracker mass."""

    def test_hand_expanded_sum(self):
        # expand sum_tau delta^(t - tau) x_tau by hand: 0.95^2 + 1 = 1.9025
        assert math.isclose(_acquisition_mass([1, 0, 1], 0.95), 1.9025,
                            rel_tol=1e-12)

    def test_all_zero_inputs(self):
        assert _acquisition_mass([0] * 10, 0.5) == 0.0

    def test_geometric_limit(self):
        assert abs(_acquisition_mass([1] * 5000, 0.99) - 100.0) < 1e-9

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.5, 1.5])
    def test_delta_domain(self, delta):
        with pytest.raises(ValueError):
            MetricsTracker.fresh(delta)

    @given(steps=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1),
                                    st.integers(0, 1)),
                          min_size=1, max_size=60),
           delta=st.floats(0.05, 0.99))
    def test_recurrence_equals_closed_form(self, steps, delta):
        tracker = MetricsTracker.fresh(delta)
        for decision, truth, acquired in steps:
            tracker = tracker.update(decision, truth, acquired)
        t = len(steps)

        def closed(x):
            return sum(delta ** (t - tau) * x(*row)
                       for tau, row in enumerate(steps, start=1))

        expected = {
            "false_anomalies": closed(lambda d, a, u: d * (1 - a)),
            "detections": closed(lambda d, a, u: d),
            "true_detections": closed(lambda d, a, u: d * a),
            "anomalies": closed(lambda d, a, u: a),
            "acquisitions": closed(lambda d, a, u: u),
        }
        for name, value in expected.items():
            assert math.isclose(getattr(tracker, name), value,
                                rel_tol=1e-12, abs_tol=1e-12), name


class TestObservation:
    def test_mask_poisons_features(self):
        obs = Observation(np.array([1.0, 2.0]), np.array([False, True]), 0, None)
        assert np.isnan(obs.features[1]) and obs.features[0] == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Observation(np.array([1.0, 2.0]), np.array([False]), 0, None)

    def test_empty_vector(self):
        with pytest.raises(ValueError):
            Observation(np.array([]), np.array([], dtype=bool), 0, None)

    def test_bad_truth(self):
        with pytest.raises(ValueError):
            Observation(np.array([1.0]), np.array([False]), 0, 2)

    def test_observed_asserts_on_mask(self):
        obs = observation([1.0, np.nan], 0)
        assert obs.mask[1]
        with pytest.raises(AssertionError):
            obs.observed()

    def test_immutability(self):
        obs = observation([1.0], 0)
        with pytest.raises(ValueError):
            obs.features[0] = 9.0


class TestTable:
    @staticmethod
    def _table():
        return Table(np.array([[1.0, 2.0], [3.0, np.nan], [5.0, 6.0]]),
                     [0, 1, 0], [0, 1, 0])

    def test_columns_and_length(self):
        t = self._table()
        assert len(t) == 3 and t.dim == 2
        assert t.context.dtype == t.truth.dtype == np.int64

    def test_row_selection(self):
        t = self._table()
        picked = t.rows(t.context == 0)
        assert picked.features.tolist() == [[1.0, 2.0], [5.0, 6.0]]
        assert t.rows([2, 0]).features[:, 0].tolist() == [5.0, 1.0]
        assert len(t.rows(slice(0))) == 0

    @given(st.lists(st.integers(0, 4), max_size=30), st.integers(0, 6))
    def test_by_context_matches_a_boolean_index_per_context(self, ids, n):
        # one stable sort keeps each context's rows in table order; rows of
        # a context past n belong to no group
        t = Table(np.arange(len(ids), dtype=float)[:, None], ids,
                  np.zeros(len(ids)))
        groups = t.by_context(n)
        assert len(groups) == n
        for c, group in enumerate(groups):
            want = t.rows(t.context == c)
            assert group.features.tolist() == want.features.tolist()
            assert group.context.tolist() == [c] * len(want)

    def test_missing_value_read_before_imputation(self):
        t = self._table()
        with pytest.raises(ValueError, match="before imputation"):
            t.observed()
        assert t.rows([0, 2]).observed().shape == (2, 2)

    @pytest.mark.parametrize("features, context, truth, match", [
        (np.ones(3), [0, 0, 0], [0, 0, 0], "matrix"),
        (np.ones((3, 0)), [0, 0, 0], [0, 0, 0], "matrix"),
        (np.ones((3, 1)), [0, 0], [0, 0, 0], "one context"),
        (np.ones((3, 1)), [0, 0, 0], [0, 0], "one label"),
        (np.ones((3, 1)), [0, 0], [0, 0], "per row"),
        (np.ones((3, 1)), [0, -1, 0], [0, 0, 0], "non-negative"),
        (np.ones((3, 1)), [0, 0, 0], [0, 2, 0], "0 or 1"),
    ])
    def test_checked_at_construction(self, features, context, truth, match):
        with pytest.raises(ValueError, match=match):
            Table(features, context, truth)

    def test_immutability_leaves_the_source_writeable(self):
        source = np.zeros((2, 1))
        t = Table(source, [0, 0], [0, 0])
        with pytest.raises(ValueError):
            t.features[0, 0] = 9.0
        source[0, 0] = 1.0
        assert t.features[0, 0] == 1.0  # a view, not a copy


def test_clamp_pvalue():
    assert clamp_pvalue(1.8) == 1.0
    assert clamp_pvalue(-0.2) == 0.0
    assert clamp_pvalue(0.4) == 0.4
    with pytest.raises(ValueError):
        clamp_pvalue(float("nan"))
