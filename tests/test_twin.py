import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coad import harness
from coad.conformal import GAMMA_MAX
from coad.core import EPS_VAR
from coad.harness import config_from, run_benchmark
from coad.scoring import _kmeans_pp
from coad.twin import (TwinModel, fit_twin, gamma_of_context, positive_ecdf_gap,
                       proxy_pvalues, sample_synthetic, superuniformity_gap)
from tables import concat, table
from test_acceptance import A4_BASE


class TestFitTwin:
    def test_single_component_fixed_point(self):
        model = fit_twin(table([1.0, 2.0, 3.0]), k=1,
                         rng=np.random.default_rng(0))
        assert model.means[0][0, 0] == pytest.approx(2.0, abs=1e-12)
        expected_var = np.var([1.0, 2.0, 3.0]) + EPS_VAR
        assert model.variances[0][0, 0] == pytest.approx(expected_var,
                                                         rel=1e-12)

    def test_constant_data_floor_engages(self):
        model = fit_twin(table([5.0] * 6), k=1, rng=np.random.default_rng(0))
        assert model.variances[0][0, 0] == EPS_VAR

    def test_separated_clusters_recovered(self):
        rng = np.random.default_rng(42)
        pts = np.concatenate([rng.normal(0.0, 1.0, 50),
                              rng.normal(100.0, 1.0, 50)])
        model = fit_twin(table(pts), k=2, rng=np.random.default_rng(1))
        means = sorted(model.means[0].ravel())
        assert abs(means[0] - 0.0) < 0.5 and abs(means[1] - 100.0) < 0.5
        assert np.all(np.abs(model.weights[0] - 0.5) < 0.1)

    def test_too_few_points_names_context(self):
        train = concat(table([1.0, 2.0, 3.0], context=0),
                       table([9.0], context=1))
        with pytest.raises(ValueError, match="context 1"):
            fit_twin(train, k=2, rng=np.random.default_rng(0))

    def test_pooled_fit_ignores_context(self):
        # the context-blind generator is the per-context fit on the
        # one-context view, every row read as context 0: one mixture over
        # every row
        pts = np.random.default_rng(4).normal(0, 1, (30, 2))
        train = concat(table(pts[:10], context=0), table(pts[10:], context=1))
        view = replace(train, context=np.zeros(len(train), dtype=int))
        pooled = fit_twin(view, k=2, rng=np.random.default_rng(5),
                          n_contexts=1)
        single = fit_twin(table(pts), k=2, rng=np.random.default_rng(5))
        assert pooled.n_contexts == 1
        assert np.array_equal(pooled.means[0], single.means[0])
        assert np.array_equal(pooled.variances[0], single.variances[0])

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(0, 1, (40, 2))
        a = fit_twin(table(pts), k=2, rng=np.random.default_rng(3))
        b = fit_twin(table(pts), k=2, rng=np.random.default_rng(3))
        assert all(np.array_equal(x, y) for x, y in zip(a.means, b.means))
        assert all(np.array_equal(x, y)
                   for x, y in zip(a.variances, b.variances))


def _em_loop(x, k, rng, max_iter=100, tol=1e-3, eps_var=EPS_VAR):
    """The per-component EM loop the whole-array fit replaced, kept as its
    oracle: the same k-means++ seeding, empty-component rule, floors and
    stopping test (the mean per-row log-likelihood moves less than ``tol``),
    one component at a time."""
    m, d = x.shape
    centers = _kmeans_pp(x, k, rng)
    assign = ((x[:, None, :] - centers[None]) ** 2).sum(-1).argmin(axis=1)
    resp = np.zeros((m, k))
    resp[np.arange(m), assign] = 1.0
    weights = np.full(k, 1.0 / k)
    means = centers.copy()
    variances = np.full((k, d), x.var(axis=0) + eps_var)
    prev_ll = -np.inf
    for _ in range(max_iter):
        nk = resp.sum(axis=0)
        for j in range(k):
            if nk[j] > 1e-12:
                means[j] = resp[:, j] @ x / nk[j]
                variances[j] = resp[:, j] @ (x - means[j]) ** 2 / nk[j] + eps_var
        weights = np.maximum(nk, 1e-12)
        weights = weights / weights.sum()
        comp_ll = np.empty((m, k))
        for j in range(k):
            comp_ll[:, j] = (np.log(weights[j])
                             - 0.5 * np.log(2.0 * np.pi * variances[j]).sum()
                             - 0.5 * ((x - means[j]) ** 2 / variances[j]).sum(axis=1))
        top = comp_ll.max(axis=1, keepdims=True)
        row_ll = (top + np.log(np.exp(comp_ll - top).sum(axis=1,
                                                         keepdims=True)))[:, 0]
        resp = np.exp(comp_ll - row_ll[:, None])
        ll = float(row_ll.mean())
        if abs(ll - prev_ll) < tol:
            break
        prev_ll = ll
    return weights, means, variances


def _data(kind, m, d, rng):
    if kind == "gaussian":
        return rng.normal(0.0, 1.0, (m, d))
    if kind == "offset":
        return 1e3 + rng.normal(0.0, 1.0, (m, d))
    if kind == "binary":  # O-RAN-like 0/1 features
        return (rng.random((m, d)) < 0.3).astype(float)
    # bimodal: two unit clusters 8 apart
    return rng.normal(0.0, 1.0, (m, d)) + np.where(rng.random((m, 1)) < 0.4,
                                                   -4.0, 4.0)


def _assert_matches_loop(x, k, seed, **kwargs):
    model = fit_twin(table(x), k=k, rng=np.random.default_rng(seed), **kwargs)
    expected = _em_loop(x, k, np.random.default_rng(seed), **kwargs)
    for got, want in zip((model.weights, model.means, model.variances),
                         expected):
        np.testing.assert_allclose(got[0], want, rtol=1e-9, atol=0.0)
    return model


class TestEmMatchesLoop:
    @pytest.mark.parametrize("kind", ["gaussian", "offset", "binary",
                                      "bimodal"])
    @pytest.mark.parametrize("d", [1, 2, 30])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fit_matches_per_component_loop(self, kind, d, k):
        x = _data(kind, 240, d, np.random.default_rng(100 * k + d))
        _assert_matches_loop(x, k, seed=k + d)

    def test_constant_data_empty_component_keeps_its_start(self):
        # k-means++ falls back to equal centers, so every row goes to
        # component 0 and component 1 keeps its start: the center and the
        # zero spread plus the floor
        model = _assert_matches_loop(np.full((6, 1), 5.0), 2, seed=0)
        assert not np.isnan(model.variances).any()
        assert not np.isnan(model.means).any()
        assert model.weights[0, 1] < 1e-12
        assert model.means[0, 1, 0] == 5.0
        assert np.all(model.variances[0] == EPS_VAR)

    def test_constant_binary_feature_sits_at_floor(self):
        x = _data("binary", 240, 30, np.random.default_rng(6))
        x[:, 11] = 0.0  # a feature that never fires
        model = _assert_matches_loop(x, 2, seed=6)
        assert not np.isnan(model.variances).any()
        assert not np.isnan(model.means).any()
        assert np.all(model.variances[0, :, 11] == EPS_VAR)
        assert np.all(model.means[0, :, 11] == 0.0)


class TestEmIterations:
    def test_fit_at_cap_is_not_converged(self):
        x = _data("gaussian", 240, 2, np.random.default_rng(3))
        train = concat(table(x[:120], context=0), table(x[120:], context=1))
        model = fit_twin(train, k=2, rng=np.random.default_rng(3),
                         max_iter=5)
        assert model.iterations.shape == model.converged.shape == (2,)
        assert model.iterations.tolist() == [5, 5]
        assert model.converged.tolist() == [False, False]
        _assert_matches_loop(x, 2, seed=3, max_iter=5)

    def test_converged_fit_records_where_tol_fired(self):
        # one component converges at the second iteration, when the
        # log-likelihood repeats; a cap of one iteration stops it short
        x = _data("gaussian", 60, 2, np.random.default_rng(4))
        model = fit_twin(table(x), k=1, rng=np.random.default_rng(4))
        assert model.iterations.tolist() == [2]
        assert model.converged.tolist() == [True]
        short = fit_twin(table(x), k=1, rng=np.random.default_rng(4),
                         max_iter=1)
        assert short.iterations.tolist() == [1]
        assert short.converged.tolist() == [False]

    @pytest.mark.parametrize("rows", [300, 3_000, 30_000])
    def test_unimodal_fit_stops_early_at_any_size(self, rows):
        # the stopping test reads the mean per-row log-likelihood, so it
        # does not tighten as a context gains rows
        for seed in range(3):
            x = np.random.default_rng(seed).normal(0.0, 1.0, (rows, 2))
            model = fit_twin(table(x), k=2, rng=np.random.default_rng(seed))
            assert model.converged.tolist() == [True]
            assert model.iterations[0] <= 10

    def test_a4_shape_fits_stop_before_the_cap(self, monkeypatch):
        # every twin fit of every lane over 20 runs of A4's shape, seed 1
        iterations = []

        def counted(*args, **kwargs):
            model = fit_twin(*args, **kwargs)
            iterations.extend(model.iterations.tolist())
            return model

        monkeypatch.setattr(harness, "fit_twin", counted)
        run_benchmark(config_from(dict(
            A4_BASE, method="C_PP_COAD,COAD,PP_COAD,C_COAD", runs="20")))
        # a context-aware lane fits both contexts, a blind one their union
        assert len(iterations) == 20 * (2 + 1)
        assert max(iterations) < 100


def _sample(model, context, n_tilde, rng):
    """One batch of n_tilde synthetic rows, drawn from ``rng`` as a lane
    draws its pool: all the component uniforms, then all the noise."""
    uniforms = rng.random((1, n_tilde))
    return sample_synthetic(model, context, uniforms,
                            rng.standard_normal((1, n_tilde, model.dim)))


class TestSampleSynthetic:
    def _unit_model(self):
        rng = np.random.default_rng(0)
        return fit_twin(table(rng.normal(0.0, 1.0, 2000)), k=1,
                        rng=np.random.default_rng(0))

    def test_mean_concentrates(self):
        model = self._unit_model()
        draws = _sample(model, 0, 10**5, np.random.default_rng(5))
        assert abs(draws.mean()) < 3.5 / math.sqrt(10**5) + 0.05

    def test_shape(self):
        model = self._unit_model()
        assert _sample(model, 0, 1, np.random.default_rng(0)).shape \
            == (1, 1)

    def test_replay_identical(self):
        model = self._unit_model()
        a = _sample(model, 0, 64, np.random.default_rng(11))
        b = _sample(model, 0, 64, np.random.default_rng(11))
        assert np.array_equal(a, b)

    def test_bad_context(self):
        with pytest.raises(ValueError):
            _sample(self._unit_model(), 3, 5, np.random.default_rng(0))

    def test_bad_size(self):
        with pytest.raises(ValueError):
            _sample(self._unit_model(), 0, 0, np.random.default_rng(0))

    def test_matches_per_row_reference(self):
        # row (i, r) of context c takes component j, the count of the
        # normalized cumulative weights at or below its uniform, and is
        # means[c, j] + sqrt(variances[c, j]) * noise; with K = 1 every row
        # takes component 0, and its (k, 1) components must still give
        # every row
        for width in (1, 3):
            self._check_per_row_reference(width)

    @staticmethod
    def _check_per_row_reference(width):
        rng = np.random.default_rng(21)
        weights = rng.random((3, width)) + 0.1
        weights /= weights.sum(axis=1, keepdims=True)
        model = TwinModel(weights, rng.normal(0, 5, (3, width, 2)),
                          rng.random((3, width, 2)) + 0.5)
        contexts = np.array([2, 0, 2, 1, 1, 0, 2])
        uniforms = rng.random((contexts.size, 40))
        noise = rng.standard_normal((contexts.size, 40, 2))
        rows = sample_synthetic(model, contexts, uniforms, noise)
        assert rows.shape == (contexts.size * 40, 2)
        expected, picked = [], set()
        for i, c in enumerate(contexts):
            cdf = np.cumsum(weights[c])
            cdf /= cdf[-1]
            for r in range(40):
                j = np.searchsorted(cdf[:-1], uniforms[i, r], side="right")
                picked.add((c, j))
                expected.append(model.means[c, j] + np.sqrt(
                    model.variances[c, j]) * noise[i, r])
        assert np.array_equal(rows, np.array(expected)), width
        assert len(picked) == 3 * width  # every component of every context


def _model(weights=((0.5, 0.5), (0.25, 0.75)), variances=1.0, contexts=2,
           means_contexts=None):
    weights = np.asarray(weights, dtype=float)
    k = weights.shape[1]
    means = np.zeros((means_contexts or contexts, k, 2))
    return TwinModel(weights, means,
                     np.full((contexts, k, 2), variances, dtype=float))


class TestTwinModelChecks:
    def test_valid(self):
        model = _model()
        assert (model.n_contexts, model.dim) == (2, 2)

    def test_bad_weights_name_context(self):
        with pytest.raises(ValueError, match="^context 1: weights"):
            _model(weights=((0.5, 0.5), (0.5, 0.6)))
        with pytest.raises(ValueError, match="^context 0: weights"):
            _model(weights=((1.0, 0.0), (0.5, 0.5)))

    def test_variance_under_floor_names_context(self):
        variances = np.ones((2, 2, 2))
        variances[1, 0, 1] = EPS_VAR / 2
        with pytest.raises(ValueError, match="^context 1: variances fell "
                                             "below the floor"):
            TwinModel(np.full((2, 2), 0.5), np.zeros((2, 2, 2)), variances)

    def test_mismatched_shapes_name_context(self):
        with pytest.raises(ValueError, match="^context 2: .* disagree$"):
            _model(weights=np.full((3, 2), 0.5), contexts=3,
                   means_contexts=2)
        with pytest.raises(ValueError, match="^context 0: .* disagree$"):
            TwinModel(np.full((2, 2), 0.5), np.zeros((2, 2, 2)),
                      np.ones((2, 2, 3)))
        with pytest.raises(ValueError, match="^context 0: .* disagree$"):
            TwinModel(np.full(2, 0.5), np.zeros((2, 2)), np.ones((2, 2)))


class TestEcdfGap:
    def test_uniform_grid(self):
        # grid i/(m+1): the gap peaks at the last breakpoint, 1/(m+1)
        pvals = np.arange(1, 10) / 10.0
        assert positive_ecdf_gap(pvals) == pytest.approx(0.1, abs=1e-12)

    def test_all_ones(self):
        assert positive_ecdf_gap(np.ones(7)) == 0.0

    def test_all_zeros(self):
        assert positive_ecdf_gap(np.zeros(7)) == 1.0

    def test_empty(self):
        with pytest.raises(ValueError):
            positive_ecdf_gap([])

    @settings(max_examples=50)
    @given(pvals=st.lists(st.floats(0, 1), min_size=1, max_size=60))
    def test_matches_dense_grid_scan(self, pvals):
        pvals = np.asarray(pvals)
        exact = positive_ecdf_gap(pvals)
        grid = np.linspace(0.0, 1.0, 10**4)
        ecdf = (pvals[None, :] <= grid[:, None]).mean(axis=1)
        brute = max(0.0, float(np.max(ecdf - grid)))
        assert exact >= brute - 1e-12
        assert exact <= brute + 1.0 / pvals.size + 1e-3


class TestProxyPvalues:
    # a few values, so that scores tie across and within pools
    SCORES = (-np.inf, -1.5, -0.0, 0.0, 0.25, 2.0, np.inf, np.nan)

    @settings(max_examples=200)
    @given(data=st.data(), m=st.integers(1, 24), plus_one=st.booleans())
    def test_counts_match_broadcast_compare(self, data, m, plus_one):
        # NaN pool scores are never >=, and -0.0 ties 0.0
        synth = np.array(data.draw(st.lists(st.sampled_from(self.SCORES),
                                            min_size=m, max_size=m)))
        val = np.array(data.draw(st.lists(
            st.sampled_from(self.SCORES[1:-2]), min_size=1, max_size=12)))
        counts = np.count_nonzero(synth >= val[:, None], axis=1)
        want = (counts + 1 if plus_one else counts) / (m + 1)
        got = proxy_pvalues(synth, val, plus_one)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_validation_score_named(self, bad):
        with pytest.raises(ValueError, match=f"must be finite, got {bad}"):
            proxy_pvalues(np.zeros(3), np.array([0.0, bad]))


class TestSuperuniformityGap:
    def test_composes_pvalues_and_gap(self):
        synth = np.arange(10).astype(float)
        val = np.array([2.5, 7.5])
        pvals = proxy_pvalues(synth, val)
        assert superuniformity_gap(synth, val) == positive_ecdf_gap(pvals)

    def test_matched_pools_small_gap(self):
        rng = np.random.default_rng(0)
        gaps = [superuniformity_gap(rng.standard_normal(500),
                                    rng.standard_normal(500))
                for _ in range(20)]
        assert np.mean(gaps) < 3.0 / math.sqrt(500)

    def test_shrunk_pool_large_gap(self):
        # synthetic scores stochastically smaller -> p-values pile up low
        rng = np.random.default_rng(1)
        hits = sum(
            superuniformity_gap(np.abs(0.5 * rng.standard_normal(500)),
                                np.abs(rng.standard_normal(500))) > 0.1
            for _ in range(20))
        assert hits >= 19

    def test_empty_pools(self):
        with pytest.raises(ValueError):
            superuniformity_gap([], [1.0])


class TestGamma:
    def test_nonpositive_gap_clamps(self):
        assert gamma_of_context(-1.0, 5.0) == GAMMA_MAX
        assert gamma_of_context(0.0, 5.0) == GAMMA_MAX

    def test_example_point(self):
        assert gamma_of_context(0.2, 5.0) == pytest.approx(math.exp(-1.0),
                                                           rel=1e-12)

    def test_large_lambda_limit(self):
        assert gamma_of_context(0.5, 1e6) < 1e-9

    def test_lambda_domain(self):
        with pytest.raises(ValueError):
            gamma_of_context(0.1, 0.0)

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_lambda_named(self, lam):
        # min(GAMMA_MAX, nan) returned GAMMA_MAX, and an infinite lambda
        # returned gamma 0 whatever the gap
        with pytest.raises(ValueError, match="^lam must be positive and "
                                             "finite$"):
            gamma_of_context(0.1, lam)

    def test_monotone_in_gap_and_lambda(self):
        gaps = np.linspace(0.01, 1.0, 25)
        lams = np.linspace(0.5, 20.0, 25)
        for lam in (1.0, 5.0, 12.0):
            vals = [gamma_of_context(d, lam) for d in gaps]
            assert all(b <= a for a, b in zip(vals, vals[1:]))
        for d in (0.05, 0.3, 0.9):
            vals = [gamma_of_context(d, lam) for lam in lams]
            assert all(b <= a for a, b in zip(vals, vals[1:]))
