import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coad.conformal import (acquisition_probability, active_outcome,
                            active_pvalue, conformal_pvalue, draw_acquisition)


class TestConformalPValue:
    def test_no_exceedance_with_offset(self):
        assert conformal_pvalue([1, 2, 3, 4], 5.0, plus_one=True) == 0.2

    def test_no_exceedance_verbatim(self):
        assert conformal_pvalue([1, 2, 3, 4], 5.0, plus_one=False) == 0.0

    def test_all_exceed(self):
        assert conformal_pvalue([1, 2, 3, 4], 0.0) == 1.0

    def test_ties_count(self):
        assert conformal_pvalue([2, 2, 2], 2.0) == 1.0

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            conformal_pvalue([], 1.0)

    def test_nonfinite_test_score(self):
        with pytest.raises(ValueError):
            conformal_pvalue([1.0], float("nan"))

    @given(scores=st.lists(st.floats(-50, 50), min_size=1, max_size=30),
           test=st.floats(-50, 50))
    def test_bounds(self, scores, test):
        n = len(scores)
        p_plus = conformal_pvalue(scores, test, plus_one=True)
        p_raw = conformal_pvalue(scores, test, plus_one=False)
        assert 1 / (n + 1) <= p_plus <= 1.0
        assert 0.0 <= p_raw <= n / (n + 1)
        assert math.isclose(p_plus - p_raw, 1 / (n + 1), rel_tol=1e-12)

    def test_exhaustive_rank_oracle_small(self):
        # pooled-multiset rank oracle, all integer configurations n <= 5
        for n in range(1, 6):
            for cal in itertools.product(range(4), repeat=n):
                for test in range(4):
                    pool = list(cal) + [test]
                    rank = sum(1 for v in pool if v >= test)
                    assert conformal_pvalue(cal, test, plus_one=True) == \
                        rank / (n + 1)
                    assert conformal_pvalue(cal, test, plus_one=False) == \
                        (rank - 1) / (n + 1)


class TestAcquisition:
    def test_small_proxy_always_buys(self):
        assert acquisition_probability(0.0, 0.7) == 1.0

    def test_q1_gamma08(self):
        assert acquisition_probability(1.0, 0.8) == pytest.approx(0.2)

    def test_half_half(self):
        assert acquisition_probability(0.5, 0.5) == pytest.approx(0.75)

    @pytest.mark.parametrize("gamma", [-0.1, 0.9995, 1.0, 1.2])
    def test_gamma_domain(self, gamma):
        with pytest.raises(ValueError):
            acquisition_probability(0.5, gamma)

    @pytest.mark.parametrize("q", [0.0, 0.3, 1.0])
    def test_zero_gamma_always_queries_and_keeps_p(self, q):
        assert acquisition_probability(q, 0.0) == 1.0
        assert active_pvalue(q, 1, 0.37, 0.0) == 0.37

    def test_q_domain(self):
        with pytest.raises(ValueError):
            acquisition_probability(1.2, 0.5)

    def test_draw_certain(self):
        rng = np.random.default_rng(0)
        assert all(draw_acquisition(0.0, 0.9, rng) == 1 for _ in range(200))

    def test_draw_monte_carlo(self):
        # q=1, gamma=0.999: success probability 0.001
        rng = np.random.default_rng(123)
        trials = 10**5
        hits = sum(draw_acquisition(1.0, 0.999, rng) for _ in range(trials))
        assert abs(hits / trials - 0.001) <= 3 * math.sqrt(0.001 / trials)


class TestActivePValue:
    def test_synthetic_branch(self):
        assert active_pvalue(0.3, 0, None, 0.5) == 0.3

    def test_real_branch_inflates(self):
        assert active_pvalue(0.9, 1, 0.1, 0.5) == pytest.approx(0.2)

    def test_clamp(self):
        assert active_pvalue(0.9, 1, 0.9, 0.5) == 1.0

    def test_missing_real_pvalue(self):
        with pytest.raises(ValueError):
            active_pvalue(0.5, 1, None, 0.5)

    def test_unexpected_real_pvalue(self):
        with pytest.raises(ValueError):
            active_pvalue(0.5, 0, 0.1, 0.5)

    def test_active_outcome_lazy(self):
        calls = []

        def real():
            calls.append(1)
            return 0.25

        rng = np.random.default_rng(0)
        u, p, z = active_outcome(0.0, 0.9, rng, real)  # q=0 forces a query
        assert u == 1 and p == 0.25 and calls == [1]
        assert z == 1.0  # 0.25 / (1 - 0.9) clamps to 1


def _superuniform_check(samples, trials, grid):
    for u in grid:
        ecdf = np.mean(samples <= u)
        assert ecdf <= u + 3 * math.sqrt(u * (1 - u) / trials), \
            f"ECDF({u}) = {ecdf} too large"


def test_superuniformity_light():
    rng = np.random.default_rng(2024)
    trials, n = 20_000, 20
    pvals = np.array([
        conformal_pvalue(rng.standard_normal(n), rng.standard_normal())
        for _ in range(trials)
    ])
    _superuniform_check(pvals, trials, (0.01, 0.05, 0.1, 0.2, 0.5))


def test_verbatim_formula_low_tail_defect_light():
    # without the offset, mass lands at exactly zero with probability 1/(n+1)
    rng = np.random.default_rng(7)
    trials, n = 20_000, 20
    zeros = sum(
        conformal_pvalue(rng.standard_normal(n), rng.standard_normal(),
                         plus_one=False) == 0.0
        for _ in range(trials))
    rate = zeros / trials
    expected = 1 / (n + 1)
    se = math.sqrt(expected * (1 - expected) / trials)
    assert abs(rate - expected) <= 4 * se


def test_active_pvalue_validity_light():
    # synthetic scores arbitrarily biased; the combined statistic stays valid
    rng = np.random.default_rng(11)
    trials, n = 20_000, 20
    zs = np.empty(trials)
    for i in range(trials):
        test = rng.standard_normal()
        q = conformal_pvalue(0.5 * rng.standard_normal(n), test)
        _, _, zs[i] = active_outcome(
            q, 0.7, rng,
            lambda: conformal_pvalue(rng.standard_normal(n), test))
    _superuniform_check(zs, trials, (0.01, 0.05, 0.1, 0.2, 0.5))
