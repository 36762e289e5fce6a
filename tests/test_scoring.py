import math

import numpy as np
import pytest

from coad.core import Table
from coad.scoring import (DensityScore, KMeansScore, NaiveBayesScore,
                          ScoreModel, fit_density_score, fit_fixed_threshold,
                          fit_kmeans_score, fit_supervised_score,
                          lower_quantile)
from tables import concat, table


class TestLowerQuantile:
    def test_integer_scores(self):
        assert lower_quantile(range(1, 101), 0.9) == 90.0

    def test_level_one_is_max(self):
        assert lower_quantile([3.0, 1.0, 7.0], 1.0) == 7.0

    def test_constant(self):
        assert lower_quantile([4.0] * 10, 0.25) == 4.0

    def test_domain(self):
        with pytest.raises(ValueError):
            lower_quantile([1.0], 0.0)
        with pytest.raises(ValueError):
            lower_quantile([], 0.5)


class TestDensityScore:
    def test_two_point_closed_form(self):
        model = fit_density_score(table([0.0, 2.0]))
        # -log N(1; mu=1, var=1+1e-6) evaluated by hand
        expected = 0.5 * math.log(2.0 * math.pi * (1.0 + 1e-6))
        assert model.score([1.0], 0) == pytest.approx(expected, rel=1e-12)
        assert model.score([1.0], 0) == pytest.approx(0.9189, abs=5e-5)

    def test_minimum_at_mean(self):
        model = fit_density_score(table([0.0, 2.0, 4.0]))
        grid = np.linspace(-3, 7, 101)
        scores = [model.score([g], 0) for g in grid]
        assert grid[int(np.argmin(scores))] == pytest.approx(2.0, abs=0.06)

    def test_contexts_differ(self):
        train = concat(table([0.0, 1.0], context=0),
                       table([10.0, 11.0], context=1))
        model = fit_density_score(train, n_contexts=2)
        assert model.score([3.0], 0) != model.score([3.0], 1)

    def test_orientation(self):
        model = fit_density_score(table([0.0, 2.0, 4.0]))
        at_mean = model.score([2.0], 0)
        for far in (-5.0, 9.0, 30.0):
            assert model.score([far], 0) > at_mean

    def test_context_agnostic_ignores_context(self):
        train = concat(table([0.0, 1.0], context=0),
                       table([10.0, 11.0], context=1))
        model = fit_density_score(train, n_contexts=2, context_aware=False)
        assert model.score([3.0], 0) == model.score([3.0], 1)

    def test_rejects_anomalies_in_train(self):
        with pytest.raises(ValueError):
            fit_density_score(concat(table([0.0], truth=1),
                                     table([1.0, 2.0])))

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_density_score(table([1.0]))

    def test_empty_context_named(self):
        with pytest.raises(ValueError, match="context 1"):
            fit_density_score(table([0.0, 1.0], context=0), n_contexts=2)


class TestKMeansScore:
    def test_point_on_centroid(self):
        train = table([(0.0, 0.0), (10.0, 10.0)])
        model = fit_kmeans_score(train, k=2, rng=np.random.default_rng(0))
        assert model.score([0.0, 0.0], 0) == pytest.approx(0.0, abs=1e-9)

    def test_equidistant_point(self):
        train = table([(0.0, 0.0), (10.0, 10.0)])
        model = fit_kmeans_score(train, k=2, rng=np.random.default_rng(0))
        assert model.score([5.0, 5.0], 0) == pytest.approx(math.sqrt(50.0))

    def test_single_cluster_is_distance_to_mean(self):
        train = table([(0.0,), (2.0,), (4.0,)])
        model = fit_kmeans_score(train, k=1, rng=np.random.default_rng(0))
        assert model.score([5.0], 0) == pytest.approx(3.0)

    def test_duplicate_centroid_error(self):
        train = table([(1.0,), (1.0,), (2.0,)])
        with pytest.raises(ValueError, match="[Dd]uplicate"):
            fit_kmeans_score(train, k=3, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("points, message", [
        ([(0.0,), (9.0,)], "need at least k=3 training points, got 2"),
        ([(0.0,), (0.0,), (9.0,)], "k=3 exceeds the number of distinct"),
    ])
    def test_failed_fit_names_the_context_slot(self, points, message):
        # context 0 can hold three clusters; context 1's rows cannot
        train = concat(table([(1.0,), (2.0,), (3.0,)], context=0),
                       table(points, context=1))
        with pytest.raises(ValueError, match=f"^context slot 1: {message}"):
            fit_kmeans_score(train, k=3, n_contexts=2,
                             rng=np.random.default_rng(0))

    def test_objective_non_increasing(self):
        # each Lloyd update keeps or lowers the k-means objective: the sum
        # of squared distances to the nearest centroid
        rng = np.random.default_rng(3)
        pts = np.concatenate([rng.normal(0, 1, (40, 2)),
                              rng.normal(8, 1, (40, 2))])
        objectives = [float((fit_kmeans_score(
            table(pts), k=3, rng=np.random.default_rng(1),
            max_iter=updates).scores(pts, 0) ** 2).sum())
            for updates in range(1, 10)]
        assert all(b <= a + 1e-9 for a, b in zip(objectives, objectives[1:]))
        assert objectives[-1] < objectives[0]

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(0, 1, (50, 2))
        m1 = fit_kmeans_score(table(pts), k=4, rng=np.random.default_rng(9))
        m2 = fit_kmeans_score(table(pts), k=4, rng=np.random.default_rng(9))
        assert all(np.array_equal(a, b)
                   for a, b in zip(m1.centroids, m2.centroids))

    def test_labels_ignored(self):
        pts = [(0.0, 0.0), (10.0, 10.0), (0.1, 0.1), (9.9, 9.9)]
        with_labels = Table(np.array(pts), np.zeros(4), [0, 1, 0, 1])
        without = table(pts)
        m1 = fit_kmeans_score(with_labels, k=2, rng=np.random.default_rng(2))
        m2 = fit_kmeans_score(without, k=2, rng=np.random.default_rng(2))
        assert all(np.array_equal(a, b)
                   for a, b in zip(m1.centroids, m2.centroids))


class TestNaiveBayesScore:
    def test_symmetric_midpoint(self):
        rng = np.random.default_rng(0)
        inliers = table(rng.normal(-1, 1, 500), truth=0)
        anomalies = table(rng.normal(1, 1, 500), truth=1)
        model = fit_supervised_score(concat(inliers, anomalies))
        assert model.score([0.0], 0) == pytest.approx(0.5, abs=0.05)

    def test_limit_toward_anomaly_class(self):
        train = concat(table([-1.2, -1.0, -0.8], truth=0),
                       table([0.8, 1.0, 1.2], truth=1))
        model = fit_supervised_score(train)
        assert model.score([50.0], 0) == pytest.approx(1.0, abs=1e-9)

    def test_prior_only_when_likelihoods_match(self):
        # identical class-conditional fits, priors 0.9 / 0.1
        inliers = table([-1.0, 1.0] * 9, truth=0)
        anomalies = table([-1.0, 1.0], truth=1)
        model = fit_supervised_score(concat(inliers, anomalies))
        assert model.score([0.3], 0) == pytest.approx(0.1, rel=1e-9)

    def test_class_absent_raises(self):
        with pytest.raises(ValueError, match="class 1"):
            fit_supervised_score(table([0.0, 1.0], truth=0))

    def test_label_required(self):
        # every row's 0/1 label is checked where the rows become a Table
        with pytest.raises(ValueError, match="truth"):
            fit_supervised_score(Table(np.zeros((2, 1)), [0, 0], [2, 1]))

    def test_rejects_unseen_context(self):
        # a row past the declared contexts belongs to no fitted slot
        train = concat(table([0.0, 1.0], truth=0), table([2.0], truth=1),
                       table([3.0], context=2))
        with pytest.raises(ValueError, match="context 2 outside"):
            fit_supervised_score(train, n_contexts=2)

    def test_scores_in_unit_interval(self):
        train = concat(table([-1.0, -0.5, 0.0], truth=0),
                       table([3.0, 4.0], truth=1))
        model = fit_supervised_score(train)
        for x in np.linspace(-10, 10, 50):
            assert 0.0 <= model.score([x], 0) <= 1.0


class _IdentityScore(ScoreModel):
    """Score equal to the first feature; used to pin quantile arithmetic."""

    def __init__(self, n_contexts=1, context_aware=True):
        self.n_contexts = n_contexts
        self.context_aware = context_aware

    def scores(self, xs, context):
        return np.asarray(xs)[:, 0].astype(float)


class TestFixedThreshold:
    def test_quantile_of_1_to_100(self):
        train = table([float(v) for v in range(1, 101)])
        thr = fit_fixed_threshold(_IdentityScore(), train, alpha=0.1)
        assert thr.thresholds[0] == 90.0
        assert thr.flag(90.5, 0) and not thr.flag(90.0, 0)

    def test_alpha_to_zero_gives_max(self):
        train = table([float(v) for v in range(1, 101)])
        with pytest.warns(UserWarning):  # quantile needs ~1/alpha points
            thr = fit_fixed_threshold(_IdentityScore(), train, alpha=1e-9)
        assert thr.thresholds[0] == 100.0

    def test_constant_scores(self):
        with pytest.warns(UserWarning):
            thr = fit_fixed_threshold(_IdentityScore(), table([5.0] * 3),
                                      alpha=0.1)
        assert thr.thresholds[0] == 5.0
        assert thr.flag(5.1, 0) and not thr.flag(5.0, 0)

    def test_small_context_warns(self):
        with pytest.warns(UserWarning, match="quantile"):
            fit_fixed_threshold(_IdentityScore(), table([1.0, 2.0]), alpha=0.1)

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            fit_fixed_threshold(_IdentityScore(), table([1.0] * 20), alpha=0.0)

    def test_per_context_thresholds(self):
        train = concat(table([float(v) for v in range(10)], context=0),
                       table([float(v + 100) for v in range(10)], context=1))
        thr = fit_fixed_threshold(_IdentityScore(n_contexts=2), train,
                                  alpha=0.2)
        assert thr.thresholds[0] < thr.thresholds[1]


def test_fit_determinism_bit_identical():
    rng = np.random.default_rng(0)
    pts = rng.normal(0, 1, (60, 3))
    a = fit_density_score(table(pts))
    b = fit_density_score(table(pts))
    assert np.array_equal(a.means, b.means)
    assert np.array_equal(a.variances, b.variances)
