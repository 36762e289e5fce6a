import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coad.core import observation
from coad.data import (DatasetSchema, Imputer, SplitPlan, apply_mcar_mask,
                       build_stream, impute, load_csv, make_splits,
                       parse_kv_file)

SCHEMA_TEXT = """\
# toy medical schema
feature.age = continuous
feature.tsh = continuous
feature.sex = categorical
label = class
label.anomaly_values = 1,2
context.column = age
context.bins = 50
missing.tokens = ?,
categories.sex = M|F
"""


@pytest.fixture
def schema(tmp_path):
    path = tmp_path / "toy.schema"
    path.write_text(SCHEMA_TEXT)
    return DatasetSchema.from_file(path)


class TestSchema:
    def test_parse_kv(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("a = 1\n# comment\nb=x y  # trailing\n")
        assert parse_kv_file(p) == {"a": "1", "b": "x y"}
        p.write_text("not a pair\n")
        with pytest.raises(ValueError):
            parse_kv_file(p)

    def test_fields(self, schema):
        assert schema.kinds == ("continuous", "continuous", "categorical")
        assert schema.n_contexts == 2
        assert schema.anomaly_values == {"1", "2"}

    def test_context_bins(self, schema):
        assert schema.context_of(30.0) == 0
        assert schema.context_of(70.0) == 1
        assert schema.context_of(50.0) == 1  # right-open first bin

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            DatasetSchema(features=(("x", "ordinal"),), label="y")

    def test_missing_label_names_file_and_key(self, tmp_path):
        path = tmp_path / "nolabel.schema"
        path.write_text(SCHEMA_TEXT.replace("label = class\n", ""))
        with pytest.raises(ValueError, match=r"nolabel\.schema.*'label'"):
            DatasetSchema.from_file(path)

    @pytest.mark.parametrize("bins", ["5,1", "1,1"])
    def test_bins_must_increase(self, tmp_path, bins):
        path = tmp_path / "bins.schema"
        path.write_text(SCHEMA_TEXT.replace("context.bins = 50",
                                            f"context.bins = {bins}"))
        with pytest.raises(ValueError, match="strictly increasing"):
            DatasetSchema.from_file(path)


class TestLoadCsv:
    def _write(self, tmp_path, body):
        path = tmp_path / "toy.csv"
        path.write_text("age,tsh,sex,class\n" + body)
        return path

    def test_basic_rows(self, tmp_path, schema):
        path = self._write(tmp_path, "30,1.5,M,3\n70,2.5,F,1\n")
        rows = load_csv(path, schema)
        assert len(rows) == 2
        assert rows[0].context == 0 and rows[0].truth == 0
        assert rows[1].context == 1 and rows[1].truth == 1
        assert rows[0].features[2] == 0.0  # M -> declared code 0

    def test_missing_token_masks(self, tmp_path, schema):
        rows = load_csv(self._write(tmp_path, "30,?,M,3\n"), schema)
        assert rows[0].mask[1] and not rows[0].mask[0]

    def test_unknown_declared_category_masked(self, tmp_path, schema):
        rows = load_csv(self._write(tmp_path, "30,1.0,X,3\n"), schema)
        assert rows[0].mask[2]

    def test_malformed_row_number(self, tmp_path, schema):
        path = self._write(tmp_path, "30,1.0,M,3\nforty,1.0,M,3\n")
        with pytest.raises(ValueError, match="row 3"):
            load_csv(path, schema)

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
    def test_non_finite_continuous_rejected(self, tmp_path, schema, token):
        # a NaN fill or score would silently break the conformal ranks
        path = self._write(tmp_path, f"30,1.0,M,3\n30,{token},M,3\n")
        with pytest.raises(ValueError, match="row 3: column 'tsh'"):
            load_csv(path, schema)

    def test_missing_context_value(self, tmp_path, schema):
        with pytest.raises(ValueError, match="context"):
            load_csv(self._write(tmp_path, "?,1.0,M,3\n"), schema)

    def test_empty_file_warns(self, tmp_path, schema):
        path = self._write(tmp_path, "")
        with pytest.warns(UserWarning):
            assert load_csv(path, schema) == []

    def test_undeclared_categorical_first_seen_codes(self, tmp_path):
        schema = DatasetSchema(features=(("color", "categorical"),),
                               label="y")
        path = tmp_path / "c.csv"
        path.write_text("color,y\nred,0\nblue,0\nred,0\n")
        rows = load_csv(path, schema)
        assert [r.features[0] for r in rows] == [0.0, 1.0, 0.0]


def _inliers(count, d=2):
    return [observation(np.full(d, float(i)), 0, 0) for i in range(count)]


def _anomalies(count, d=2):
    return [observation(np.full(d, 1000.0 + i), 0, 1) for i in range(count)]


class TestMakeSplits:
    def test_thirds_arithmetic(self):
        splits = make_splits(_inliers(90), SplitPlan(), steps=10,
                             rng=np.random.default_rng(0))
        assert (len(splits.score_train), len(splits.twin_train),
                len(splits.calibration)) == (30, 30, 30)
        assert splits.n == 3

    def test_twinless_doubles(self):
        splits = make_splits(_inliers(90), SplitPlan(kind="twinless"),
                             steps=10, rng=np.random.default_rng(0))
        assert (len(splits.score_train), len(splits.twin_train),
                len(splits.calibration)) == (30, 0, 60)
        assert splits.n == 6

    def test_prediction_only_folds_calibration(self):
        splits = make_splits(_inliers(90), SplitPlan(kind="prediction_only"),
                             steps=10, rng=np.random.default_rng(0))
        assert (len(splits.score_train), len(splits.twin_train)) == (30, 60)
        assert splits.n == 0 and splits.calibration == ()

    def test_replay_identical(self):
        data = _inliers(60) + _anomalies(12)
        a = make_splits(data, SplitPlan(test_reserve=5), 5,
                        np.random.default_rng(77))
        b = make_splits(data, SplitPlan(test_reserve=5), 5,
                        np.random.default_rng(77))
        assert [o.features[0] for o in a.score_train] == \
            [o.features[0] for o in b.score_train]
        assert [o.features[0] for o in a.anomaly_pool] == \
            [o.features[0] for o in b.anomaly_pool]

    def test_partition_disjoint_and_complete(self):
        data = _inliers(75) + _anomalies(15)
        splits = make_splits(data, SplitPlan(test_reserve=6), 6,
                             np.random.default_rng(3))
        parts = (list(splits.score_train) + list(splits.twin_train)
                 + list(splits.calibration) + list(splits.test_inliers)
                 + list(splits.anomaly_pool))
        assert len(parts) == len(data)
        assert Counter(o.features[0] for o in parts) == \
            Counter(o.features[0] for o in data)

    def test_anomalies_only_in_score_or_pool(self):
        data = _inliers(60) + _anomalies(30)
        splits = make_splits(data, SplitPlan(), 5, np.random.default_rng(0))
        assert all(o.truth != 1 for o in splits.twin_train)
        assert all(o.truth != 1 for o in splits.calibration)
        assert all(o.truth == 1 for o in splits.anomaly_pool)
        assert len(splits.anomaly_pool) == 20  # score share is 10 of 30

    def test_insufficient_rows(self):
        with pytest.raises(ValueError, match="at least"):
            make_splits(_inliers(12), SplitPlan(), steps=10,
                        rng=np.random.default_rng(0))

    def test_pinned_n_validated(self):
        with pytest.raises(ValueError):
            make_splits(_inliers(90), SplitPlan(n_per_step=10), steps=10,
                        rng=np.random.default_rng(0))

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            SplitPlan(kind="mystery")
        with pytest.raises(ValueError):
            SplitPlan(fractions=(0.5, 0.2, 0.2))


class TestBuildStream:
    def test_fresh_disjoint_batches(self):
        data = _inliers(100) + _anomalies(10)
        splits = make_splits(data, SplitPlan(test_reserve=10), 9,
                             np.random.default_rng(1))
        stream = build_stream(splits, 9, np.random.default_rng(2),
                              anomaly_rate=0.3)
        seen = [o.features[0] for item in stream for o in item.calibration]
        assert len(seen) == len(set(seen)) == 9 * splits.n

    def test_count_controlled_anomaly_steps(self):
        data = _inliers(100) + _anomalies(20)
        splits = make_splits(data, SplitPlan(test_reserve=10), 10,
                             np.random.default_rng(1))
        stream = build_stream(splits, 10, np.random.default_rng(2),
                              anomaly_rate=0.3)
        assert sum(item.test.truth for item in stream) == 3

    def test_reserve_shortage(self):
        data = _inliers(100)
        splits = make_splits(data, SplitPlan(test_reserve=2), 10,
                             np.random.default_rng(1))
        with pytest.raises(ValueError, match="test points"):
            build_stream(splits, 10, np.random.default_rng(2),
                         anomaly_rate=0.0)

    def test_rate_domain(self):
        data = _inliers(100)
        splits = make_splits(data, SplitPlan(test_reserve=10), 5,
                             np.random.default_rng(1))
        with pytest.raises(ValueError):
            build_stream(splits, 5, np.random.default_rng(2), anomaly_rate=1.0)


class TestMcar:
    def test_identity_at_zero(self):
        x = np.array([1.0, 2.0, 3.0])
        assert apply_mcar_mask(x, 0.0, np.random.default_rng(0)) is x

    def test_binomial_rate(self):
        rng = np.random.default_rng(0)
        x = np.tile(np.arange(10, dtype=float), (10**4, 1))
        counts = np.isnan(apply_mcar_mask(x, 0.3, rng)).sum(axis=1)
        se = math.sqrt(10 * 0.3 * 0.7 / 10**4)
        assert abs(np.mean(counts) - 3.0) <= 3 * se

    def test_value_independence(self):
        x1 = np.arange(8, dtype=float)
        x2 = 2 * np.arange(8, dtype=float)
        m1 = np.isnan(apply_mcar_mask(x1, 0.4, np.random.default_rng(5)))
        m2 = np.isnan(apply_mcar_mask(x2, 0.4, np.random.default_rng(5)))
        assert np.array_equal(m1, m2)

    def test_keeps_existing_holes_and_values(self):
        x = np.array([[np.nan, 1.0, 2.0], [3.0, np.nan, 4.0]])
        out = apply_mcar_mask(x, 0.5, np.random.default_rng(3))
        assert np.isnan(out[np.isnan(x)]).all()
        kept = ~np.isnan(out)
        assert np.array_equal(out[kept], x[kept])

    def test_chunks_read_the_stream_in_order(self):
        x = np.arange(24, dtype=float).reshape(4, 3, 2)
        whole = apply_mcar_mask(x, 0.3, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        parts = [apply_mcar_mask(x[i:i + 1], 0.3, rng) for i in range(4)]
        assert np.array_equal(np.isnan(whole), np.isnan(np.concatenate(parts)))

    def test_domain(self):
        with pytest.raises(ValueError):
            apply_mcar_mask(np.array([1.0]), 1.0, np.random.default_rng(0))


class TestImputer:
    def _fit(self):
        cols = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 1.0], [100.0, 0.0]])
        train = [observation(row, 0) for row in cols]
        return Imputer.fit(train, ("continuous", "categorical"))

    def test_median_mean_of_middle_two(self):
        imp = self._fit()
        assert imp.fill_values[0] == 2.5

    def test_mode_first_seen_tiebreak(self):
        train = [observation([0.0], 0), observation([0.0], 0),
                 observation([1.0], 0)]
        imp = Imputer.fit(train, ("categorical",))
        assert imp.fill_values[0] == 0.0
        # tie: first-seen order wins
        train = [observation([2.0], 0), observation([1.0], 0),
                 observation([1.0], 0), observation([2.0], 0)]
        assert Imputer.fit(train, ("categorical",)).fill_values[0] == 2.0

    def test_fully_observed_unchanged(self):
        imp = self._fit()
        obs = observation([7.0, 1.0], 0)
        assert impute(imp, obs) is obs

    def test_fills_and_clears_mask(self):
        imp = self._fit()
        obs = observation([np.nan, 1.0], 3, 1)
        out = impute(imp, obs)
        assert out.features[0] == 2.5 and not out.mask.any()
        assert out.context == 3 and out.truth == 1

    def test_idempotent(self):
        imp = self._fit()
        obs = observation([np.nan, np.nan], 0)
        once = impute(imp, obs)
        assert np.array_equal(impute(imp, once).features, once.features)

    @given(mask=st.lists(st.booleans(), min_size=2, max_size=2))
    def test_idempotence_property(self, mask):
        imp = self._fit()
        feats = np.where(mask, np.nan, 1.0)
        once = impute(imp, observation(feats, 0))
        twice = impute(imp, once)
        assert np.array_equal(once.features, twice.features)
        assert not twice.mask.any()

    @staticmethod
    def _loop_fill(train, kinds):
        """The per-row, per-feature fit the vectorized one replaced."""
        fill = np.empty(len(kinds))
        for i, kind in enumerate(kinds):
            column = [obs.features[i] for obs in train if not obs.mask[i]]
            if kind == "continuous":
                fill[i] = float(np.median(column))
            else:
                counts: dict[float, int] = {}
                for v in column:  # ties break by first appearance
                    counts[v] = counts.get(v, 0) + 1
                fill[i] = max(counts, key=counts.get)
        return fill

    @settings(max_examples=60)
    @given(data=st.data())
    def test_matches_loop_reference(self, data):
        rows = data.draw(st.integers(1, 12))
        kinds = ("continuous", "categorical", "categorical")
        values = st.sampled_from([0.0, -0.0, 1.0, 2.0, 0.5, -3.25])
        train = []
        for r in range(rows):
            feats = data.draw(st.lists(values, min_size=3, max_size=3))
            # the first row keeps every feature observed
            mask = [False] * 3 if r == 0 else \
                data.draw(st.lists(st.booleans(), min_size=3, max_size=3))
            train.append(observation(np.array(feats), 0,
                                     mask=np.array(mask)))
        fill = Imputer.fit(train, kinds).fill_values
        assert fill.tobytes() == self._loop_fill(train, kinds).tobytes()

    def test_mostly_masked_column_and_ties(self):
        # column 0: one observed value; column 1: 1 and 2 tie, 2 came first
        train = [observation([np.nan, 2.0], 0), observation([np.nan, 1.0], 0),
                 observation([7.5, 1.0], 0), observation([np.nan, 2.0], 0),
                 observation([np.nan, 3.0], 0)]
        kinds = ("continuous", "categorical")
        fill = Imputer.fit(train, kinds).fill_values
        assert fill.tolist() == [7.5, 2.0]
        assert fill.tobytes() == self._loop_fill(train, kinds).tobytes()

    def test_no_observed_values(self):
        train = [observation([np.nan], 0)]
        with pytest.raises(ValueError, match="feature 0"):
            Imputer.fit(train, ("continuous",))

    def test_kind_count_checked(self):
        with pytest.raises(ValueError):
            Imputer.fit([observation([1.0, 2.0], 0)], ("continuous",))
