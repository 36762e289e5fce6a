import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coad.core import Table
from coad.data import (MODE_CODES, DatasetSchema, Imputer, apply_mcar_mask,
                       build_stream, impute, load_csv, make_splits,
                       parse_kv_file)
from tables import concat, load_csv_by_rows, table

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

    def test_repeated_key_names_both_lines(self, tmp_path):
        # the last value won without a word
        p = tmp_path / "c.cfg"
        p.write_text("a = 1\nb = 2\n\na=3\n")
        with pytest.raises(ValueError,
                           match=r"c\.cfg:4: key 'a' repeats line 1$"):
            parse_kv_file(p)

    def test_config_bom_is_no_key(self, tmp_path):
        # a file saved with a UTF-8 byte-order mark read '\ufeffmethod'
        p = tmp_path / "bom.cfg"
        p.write_text("method = COAD\n", encoding="utf-8-sig")
        assert parse_kv_file(p) == {"method": "COAD"}

    def test_schema_bom_keeps_the_first_feature(self, tmp_path):
        # the first key read '\ufefffeature.a' and the feature was dropped
        path = tmp_path / "bom.schema"
        path.write_text("feature.a = continuous\nfeature.b = categorical\n"
                        "label = y\n", encoding="utf-8-sig")
        assert DatasetSchema.from_file(path).features == (
            ("a", "continuous"), ("b", "categorical"))

    def test_missing_tokens_stripped(self, tmp_path):
        # ' NA' matched no cell, as cells are stripped before the lookup
        path = tmp_path / "na.schema"
        path.write_text(SCHEMA_TEXT.replace("missing.tokens = ?,",
                                            "missing.tokens = ?, NA"))
        schema = DatasetSchema.from_file(path)
        assert schema.missing_tokens == {"?", "NA"}
        csv_path = tmp_path / "na.csv"
        csv_path.write_text("age,tsh,sex,class\n30,1.0,M,3\n30,NA,?,3\n")
        rows = load_csv(csv_path, schema)
        assert np.isnan(rows.features[1]).tolist() == [False, True, True]

    def test_fields(self, schema):
        assert schema.categorical == (False, False, True)
        assert schema.n_contexts == 2
        assert schema.anomaly_values == {"1", "2"}

    def test_context_bins(self, schema):
        assert schema.context_of(30.0) == 0
        assert schema.context_of(70.0) == 1
        assert schema.context_of(50.0) == 1  # right-open first bin
        # a whole column is binned at once, by the same rule
        assert schema.context_of(np.array([30.0, 50.0, 70.0])).tolist() == \
            [0, 1, 1]

    def test_unknown_kind(self):
        with pytest.raises(ValueError,
                           match=r"^feature\.x: unknown kind 'ordinal'$"):
            DatasetSchema(features=(("x", "ordinal"),), label="y")

    @pytest.mark.parametrize("old, new, message", [
        ("feature.tsh = continuous", "feature.tsh = ordinal",
         r"feature\.tsh: unknown kind 'ordinal'"),
        ("context.column = age\n", "",
         r"context\.bins needs a context\.column to bin"),
    ])
    def test_post_init_faults_name_the_file(self, tmp_path, old, new,
                                            message):
        # the schema's own checks named neither the file nor, for a kind,
        # the key
        path = tmp_path / "fault.schema"
        path.write_text(SCHEMA_TEXT.replace(old, new))
        with pytest.raises(ValueError,
                           match=rf"^{re.escape(str(path))}: {message}$"):
            DatasetSchema.from_file(path)

    @pytest.mark.parametrize("line, role", [
        ("feature.class = categorical", "feature.class"),
        ("context.column = class", "the context.column"),
    ])
    def test_label_plays_no_other_role(self, tmp_path, line, role):
        # both loaded: the feature, or every row's context, was the label
        path = tmp_path / "roles.schema"
        text = SCHEMA_TEXT.replace("context.column = age\n", "")
        path.write_text(text.replace("context.bins = 50\n", "") + line + "\n")
        with pytest.raises(ValueError, match=rf"roles\.schema: label column "
                           rf"'class' is also {re.escape(role)}$"):
            DatasetSchema.from_file(path)

    def test_missing_label_names_file_and_key(self, tmp_path):
        path = tmp_path / "nolabel.schema"
        path.write_text(SCHEMA_TEXT.replace("label = class\n", ""))
        with pytest.raises(ValueError, match=r"nolabel\.schema.*'label'"):
            DatasetSchema.from_file(path)

    @pytest.mark.parametrize("bins", ["5,1", "1,1", "nan", "1,x"])
    def test_bins_must_increase(self, tmp_path, bins):
        # a nan bin compares false with every value and empties context 0;
        # a bin that is no number failed as "could not convert string"
        path = tmp_path / "bins.schema"
        path.write_text(SCHEMA_TEXT.replace("context.bins = 50",
                                            f"context.bins = {bins}"))
        with pytest.raises(ValueError, match=r"bins\.schema: context\.bins "
                           rf"must be .*strictly increasing, got {bins}$"):
            DatasetSchema.from_file(path)

    @pytest.mark.parametrize("line", [
        "contxt.column = age",  # no context column: every row context 0
        "label.anomaly_value = yes",  # the anomaly values stayed {'1'}
        "categories.tsh = low|high",  # a continuous feature
        "categories.smoker = yes|no",  # no feature
        "features.bmi = continuous",
    ])
    def test_unknown_key_named(self, tmp_path, line):
        # each such key loaded without a word
        path = tmp_path / "typo.schema"
        path.write_text(SCHEMA_TEXT + line + "\n")
        key = line.split(" =")[0]
        with pytest.raises(ValueError, match=rf"typo\.schema: unknown schema "
                           rf"key '{key}'$"):
            DatasetSchema.from_file(path)

    def test_repeated_key_named(self, tmp_path):
        # the second feature.sex replaced the first's kind without a word
        path = tmp_path / "twice.schema"
        path.write_text(SCHEMA_TEXT + "feature.sex = continuous\n")
        with pytest.raises(ValueError, match=r"twice\.schema:11: key "
                           r"'feature\.sex' repeats line 4$"):
            DatasetSchema.from_file(path)

    def test_bins_need_a_context_column(self, tmp_path):
        # without one every row binned into context 0 while n_contexts
        # counted the bins, and run 0 failed on an empty context 1
        path = tmp_path / "nocolumn.schema"
        path.write_text(SCHEMA_TEXT.replace("context.column = age\n", ""))
        message = r"context\.bins needs a context\.column"
        with pytest.raises(ValueError, match=message):
            DatasetSchema.from_file(path)
        with pytest.raises(ValueError, match=message):
            DatasetSchema(features=(("x", "continuous"),), label="y",
                          context_bins=(1.0,))


# The header's columns, the tokens a numeric (continuous or context)
# column accepts, and every token a case draws
COLUMNS = ("a", "b", "c", "ctx", "y")
NUMERIC = ("0", "1", "2.5", " 3 ", "-0.0", "1e3", "7", "7 ")
TOKENS = NUMERIC + ("?", " ?", "", "nan", "inf", "-Infinity", "x", "M",
                    "red")


@st.composite
def csv_cases(draw):
    """A schema over COLUMNS and a CSV text for it: well formed, or with
    faults anywhere (bad tokens, wrong widths, a missing or repeated
    column) when ``malformed`` is drawn."""
    kinds = draw(st.lists(st.sampled_from(["continuous", "categorical"]),
                          min_size=1, max_size=3))
    features = tuple(zip("abc", kinds))
    categories = {name: ("M", "F", "red") for name, kind in features
                  if kind == "categorical" and draw(st.booleans())}
    context = draw(st.sampled_from([None, "ctx", "a"]))
    schema = DatasetSchema(features, label="y",
                           anomaly_values=frozenset({"1", "x"}),
                           context_column=context,
                           context_bins=(0.5, 2.0) if context else (),
                           categories=categories)
    malformed = draw(st.booleans())
    header = list(draw(st.permutations(COLUMNS)))
    if draw(st.booleans()):  # a repeated name fails where the schema reads it
        header.append(draw(st.sampled_from(COLUMNS)))
    if malformed and draw(st.booleans()):
        header.pop(draw(st.integers(0, len(header) - 1)))

    def token(column):
        if malformed:
            return draw(st.sampled_from(TOKENS))
        if column == context:
            return draw(st.sampled_from(NUMERIC))
        if column in dict(features) and \
                dict(features)[column] == "continuous":
            return draw(st.sampled_from(NUMERIC + ("?", " ?", "")))
        return draw(st.sampled_from(TOKENS))

    lines = [",".join(header)]
    records = 0 if draw(st.integers(0, 9)) == 0 else draw(st.integers(1, 8))
    for _ in range(records):
        fields = [token(column) for column in header]
        if malformed and draw(st.integers(0, 5)) == 0:
            fields = fields[:-1] if draw(st.booleans()) else fields + ["1"]
        if draw(st.integers(0, 5)) == 0:
            lines.append("")  # a blank record, skipped uncounted
        lines.append(",".join(fields))
    if malformed and draw(st.integers(0, 9)) == 0:
        lines = []  # an empty file
    return schema, "\n".join(lines) + ("\n" if lines else "")


def _outcome(loader, path, schema):
    """A loader's table bytes and warnings, or its error message."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rows = loader(path, schema)
        except ValueError as exc:
            return str(exc)
    return ([str(w.message) for w in caught], rows.features.shape,
            rows.features.tobytes(), rows.context.tobytes(),
            rows.truth.tobytes())


# two continuous features, the first also the context column
TWO_COLUMNS = DatasetSchema((("a", "continuous"), ("b", "continuous")),
                            label="y", context_column="a",
                            context_bins=(0.5,))


class TestLoadCsv:
    def _write(self, tmp_path, body):
        path = tmp_path / "toy.csv"
        path.write_text("age,tsh,sex,class\n" + body)
        return path

    def test_basic_rows(self, tmp_path, schema):
        path = self._write(tmp_path, "30,1.5,M,3\n70,2.5,F,1\n")
        rows = load_csv(path, schema)
        assert len(rows) == 2
        assert rows.context.tolist() == [0, 1]
        assert rows.truth.tolist() == [0, 1]
        assert rows.features[0].tolist() == [30.0, 1.5, 0.0]  # M -> code 0

    def test_missing_token_masks(self, tmp_path, schema):
        rows = load_csv(self._write(tmp_path, "30,?,M,3\n30,1.0,M,3\n"),
                        schema)
        assert np.isnan(rows.features[0]).tolist() == [False, True, False]

    @pytest.mark.parametrize("body", ["", "30,1.0,M,3,2.0\n"])
    def test_repeated_schema_column_named(self, tmp_path, schema, body):
        # the last 'tsh' was read without a word
        path = tmp_path / "twice.csv"
        path.write_text("age,tsh,sex,class,tsh\n" + body)
        with pytest.raises(ValueError, match=r"twice\.csv: column 'tsh' is "
                           r"named 2 times in the header$"):
            load_csv(path, schema)

    @pytest.mark.parametrize("body, column", [
        ("30,?,M,3\n70,,F,1\n", "tsh"),
        ("30,1.0,X,3\n70,2.0,?,1\n", "sex"),  # unknown categories too
    ])
    def test_unobserved_feature_column_named(self, tmp_path, schema, body,
                                             column):
        # run 0's imputer failed on 'feature 1', naming no column
        with pytest.raises(ValueError, match=rf"toy\.csv: column '{column}' "
                           "holds no observed value$"):
            load_csv(self._write(tmp_path, body), schema)

    def test_unknown_declared_category_masked(self, tmp_path, schema):
        rows = load_csv(self._write(tmp_path, "30,1.0,X,3\n30,1.0,F,3\n"),
                        schema)
        assert np.isnan(rows.features[0, 2])

    def test_malformed_row_number(self, tmp_path, schema):
        path = self._write(tmp_path, "30,1.0,M,3\nforty,1.0,M,3\n")
        with pytest.raises(ValueError, match="row 3"):
            load_csv(path, schema)

    def test_short_row_rejected(self, tmp_path, schema):
        path = self._write(tmp_path, "30,1.0,M,3\n70,2.5\n")
        with pytest.raises(ValueError, match=r"toy\.csv: malformed row 3: "
                                             r"expected 4 fields, got 2"):
            load_csv(path, schema)

    def test_long_row_rejected(self, tmp_path, schema):
        # an extra value would otherwise be dropped without a word
        path = self._write(tmp_path, "30,1.0,M,3\n70,2.5,F,1,9\n")
        with pytest.raises(ValueError, match=r"toy\.csv: malformed row 3: "
                                             r"expected 4 fields, got 5"):
            load_csv(path, schema)

    def test_missing_column_named(self, tmp_path, schema):
        path = tmp_path / "nosex.csv"
        path.write_text("age,tsh,class\n30,1.0,3\n")
        with pytest.raises(ValueError,
                           match=r"nosex\.csv: no column 'sex' in the header"):
            load_csv(path, schema)

    def test_missing_column_fails_without_data_rows(self, tmp_path, schema):
        # the header is checked before any record: no "no data rows" warning
        path = tmp_path / "nosex.csv"
        path.write_text("age,tsh,class\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no column 'sex'"):
                load_csv(path, schema)

    def test_bom_before_the_header(self, tmp_path, schema):
        # the first column read '\ufeffage', and the file failed at row 2
        plain = self._write(tmp_path, "30,1.5,M,3\n70,2.5,F,1\n")
        bom = tmp_path / "bom.csv"
        bom.write_text(plain.read_text(), encoding="utf-8-sig")
        assert _outcome(load_csv, bom, schema) == \
            _outcome(load_csv, plain, schema)

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
    def test_non_finite_continuous_rejected(self, tmp_path, schema, token):
        # a NaN fill or score would silently break the conformal ranks
        path = self._write(tmp_path, f"30,1.0,M,3\n30,{token},M,3\n")
        with pytest.raises(ValueError, match="row 3: column 'tsh'"):
            load_csv(path, schema)

    def test_missing_context_value(self, tmp_path, schema):
        with pytest.raises(ValueError, match="context"):
            load_csv(self._write(tmp_path, "?,1.0,M,3\n"), schema)

    def test_non_finite_context_rejected(self, tmp_path):
        # a context column that is no feature is parsed only for its bin;
        # a nan there would bin into the top context without a word
        schema = DatasetSchema(features=(("tsh", "continuous"),),
                               label="class", context_column="site",
                               context_bins=(1.5, 2.5))
        path = tmp_path / "site.csv"
        path.write_text("tsh,site,class\n1.0,1,0\n1.0,nan,0\n")
        with pytest.raises(ValueError,
                           match="row 3: context column 'site': non-finite"):
            load_csv(path, schema)

    def test_empty_file_warns(self, tmp_path, schema):
        path = self._write(tmp_path, "")
        with pytest.warns(UserWarning):
            rows = load_csv(path, schema)
        assert len(rows) == 0 and rows.dim == 3

    def test_undeclared_categorical_first_seen_codes(self, tmp_path):
        schema = DatasetSchema(features=(("color", "categorical"),),
                               label="y")
        path = tmp_path / "c.csv"
        path.write_text("color,y\nred,0\nblue,0\nred,0\n")
        rows = load_csv(path, schema)
        assert rows.features[:, 0].tolist() == [0.0, 1.0, 0.0]

    @settings(max_examples=300, deadline=None)
    @given(case=csv_cases())
    # faults in two columns of one record; a later column faulting at an
    # earlier record; a context fault before a feature fault; a width fault
    # after and before column faults
    @example(case=(TWO_COLUMNS, "a,b,y\n1,2,0\nx,nan,0\n"))
    @example(case=(TWO_COLUMNS, "a,b,y\n1,2,0\n1,x,0\nx,2,0\n"))
    @example(case=(TWO_COLUMNS, "a,b,y\n?,2,0\nx,2,0\n"))
    @example(case=(TWO_COLUMNS, "a,b,y\n1,x,0\n1,2\n"))
    @example(case=(TWO_COLUMNS, "a,b,y\n1,2,0\n1,2\nx,2,0\n"))
    def test_matches_row_parser(self, case):
        # the same table and warnings, or the same message, as the row loop
        schema, text = case
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "case.csv"
            path.write_text(text)
            assert _outcome(load_csv, path, schema) == \
                _outcome(load_csv_by_rows, path, schema)


def _inliers(count, d=2):
    return table([np.full(d, float(i)) for i in range(count)], truth=0)


def _anomalies(count, d=2):
    return table([np.full(d, 1000.0 + i) for i in range(count)], truth=1)


PP = "prediction_powered"


class TestMakeSplits:
    def test_thirds_arithmetic(self):
        splits = make_splits(_inliers(90), PP, steps=10,
                             rng=np.random.default_rng(0))
        assert (len(splits.score_train), len(splits.twin_train),
                len(splits.calibration)) == (30, 30, 30)
        assert splits.n == 3

    def test_integer_thirds_equal_float_cuts(self):
        # the cuts were floor(1/3 * size) and floor((1/3 + 1/3) * size)
        # in floats; the integer thirds agree for every size below 200,000
        sizes = np.arange(200_000)
        assert np.array_equal(sizes // 3, np.floor((1 / 3) * sizes))
        assert np.array_equal(2 * sizes // 3,
                              np.floor((1 / 3 + 1 / 3) * sizes))

    def test_twinless_doubles(self):
        splits = make_splits(_inliers(90), "twinless",
                             steps=10, rng=np.random.default_rng(0))
        assert (len(splits.score_train), len(splits.twin_train),
                len(splits.calibration)) == (30, 0, 60)
        assert splits.n == 6

    def test_prediction_only_folds_calibration(self):
        splits = make_splits(_inliers(90), "prediction_only",
                             steps=10, rng=np.random.default_rng(0))
        assert (len(splits.score_train), len(splits.twin_train)) == (30, 60)
        assert splits.n == 0 and len(splits.calibration) == 0

    def test_replay_identical(self):
        data = concat(_inliers(60), _anomalies(12))
        a = make_splits(data, PP, 5, np.random.default_rng(77),
                        test_reserve=5)
        b = make_splits(data, PP, 5, np.random.default_rng(77),
                        test_reserve=5)
        assert np.array_equal(a.score_train, b.score_train)
        assert np.array_equal(a.anomaly_pool, b.anomaly_pool)

    def test_matches_list_shuffle(self):
        # the row order of the shuffle the columnar split replaced: each
        # class list permuted in turn by one generator
        data = concat(_inliers(40), _anomalies(9), _inliers(5))
        splits = make_splits(data, PP, 4, np.random.default_rng(5),
                             test_reserve=4)
        rng = np.random.default_rng(5)
        inl = [i for i in range(len(data)) if data.truth[i] != 1]
        anom = [i for i in range(len(data)) if data.truth[i] == 1]
        inl = [inl[i] for i in rng.permutation(len(inl))]
        anom = [anom[i] for i in rng.permutation(len(anom))]
        third = (len(inl) - 4) // 3
        assert splits.test_inliers.tolist() == inl[:4]
        assert splits.score_train.tolist() == inl[4:4 + third] + anom[:3]

    def test_partition_disjoint_and_complete(self):
        data = concat(_inliers(75), _anomalies(15))
        splits = make_splits(data, PP, 6, np.random.default_rng(3),
                             test_reserve=6)
        parts = np.concatenate([splits.score_train, splits.twin_train,
                                splits.calibration, splits.test_inliers,
                                splits.anomaly_pool])
        assert sorted(parts.tolist()) == list(range(len(data)))

    def test_anomalies_only_in_score_or_pool(self):
        data = concat(_inliers(60), _anomalies(30))
        splits = make_splits(data, PP, 5, np.random.default_rng(0))
        assert not data.truth[splits.twin_train].any()
        assert not data.truth[splits.calibration].any()
        assert data.truth[splits.anomaly_pool].all()
        assert len(splits.anomaly_pool) == 20  # score share is 10 of 30

    def test_insufficient_rows(self):
        with pytest.raises(ValueError, match="at least"):
            make_splits(_inliers(12), PP, steps=10,
                        rng=np.random.default_rng(0))

    def test_pinned_n_validated(self):
        with pytest.raises(ValueError):
            make_splits(_inliers(90), PP, steps=10,
                        rng=np.random.default_rng(0), n=10)

    def test_plan_validation(self):
        with pytest.raises(ValueError, match="split kind"):
            make_splits(_inliers(90), "mystery", steps=10,
                        rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="test_reserve"):
            make_splits(_inliers(90), PP, steps=10,
                        rng=np.random.default_rng(0), test_reserve=-1)


class TestSplitRules:
    """The validation carve, the generator batch size and the empty-part
    check, which the table run once applied to a split."""

    def test_validation_carve(self):
        # the front fifth of the score-training part (12 of 60: 10 inliers
        # and 2 anomalies) leaves it; its inliers validate the generator
        data = concat(_inliers(36), _anomalies(150))
        plain = make_splits(data, PP, 2, np.random.default_rng(4),
                            test_reserve=6)
        splits = make_splits(data, PP, 2, np.random.default_rng(4),
                             test_reserve=6, validation=True)
        score_train = data.rows(plain.score_train)
        carve = round(0.2 * len(score_train))
        validation = score_train.rows(
            np.flatnonzero(score_train.truth[:carve] == 0))
        rest = score_train.rows(slice(carve, None))
        assert (carve, len(validation)) == (12, 10)
        for got, want in ((splits.validation, validation),
                          (splits.score_train, rest)):
            assert data.features[got].tobytes() == want.features.tobytes()
            assert data.truth[got].tolist() == want.truth.tolist()
        for part in ("twin_train", "calibration", "test_inliers",
                     "anomaly_pool"):
            assert np.array_equal(getattr(splits, part),
                                  getattr(plain, part))

    @pytest.mark.parametrize("kind, validation", [
        (PP, False), ("twinless", True), ("prediction_only", True)])
    def test_no_carve(self, kind, validation):
        data = concat(_inliers(90), _anomalies(9))
        plain = make_splits(data, kind, 5, np.random.default_rng(0))
        splits = make_splits(data, kind, 5, np.random.default_rng(0),
                             validation=validation)
        assert splits.validation.size == 0
        assert np.array_equal(splits.score_train, plain.score_train)

    @pytest.mark.parametrize("kind, n_tilde, want", [
        (PP, 7, 7), ("prediction_only", 7, 7),  # the configured size
        (PP, None, 3), ("twinless", None, 6),  # else n
        ("prediction_only", None, 3),  # else half the generator part a step
    ])
    def test_n_tilde(self, kind, n_tilde, want):
        splits = make_splits(_inliers(90), kind, 10,
                             np.random.default_rng(0), n_tilde=n_tilde)
        assert splits.n_tilde == want

    def test_n_tilde_at_least_one(self):
        # 3 generator rows for 10 steps: half a row a step
        splits = make_splits(_inliers(4), "prediction_only", 10,
                             np.random.default_rng(0))
        assert (splits.twin_train.size, splits.n_tilde) == (3, 1)

    EMPTY = r"no score- or generator-training rows beside the steps = 1 "

    def test_empty_generator_part_fails_where_it_is_used(self):
        # one inlier besides the reserved one: the score third holds an
        # anomaly and the generator third nothing
        data = concat(_inliers(2), _anomalies(3))
        with pytest.raises(ValueError, match=self.EMPTY):
            make_splits(data, PP, 1, np.random.default_rng(0),
                        test_reserve=1)
        splits = make_splits(data, "twinless", 1, np.random.default_rng(0),
                             test_reserve=1)
        assert splits.twin_train.size == 0 and splits.calibration.size == 1
        with pytest.raises(ValueError, match=self.EMPTY):
            make_splits(concat(_inliers(1), _anomalies(3)), "prediction_only",
                        1, np.random.default_rng(0), test_reserve=1)

    def test_empty_score_part_fails(self):
        with pytest.raises(ValueError, match=self.EMPTY):
            make_splits(_inliers(3), "twinless", 1, np.random.default_rng(0),
                        test_reserve=1)


class TestBuildStream:
    def test_fresh_disjoint_batches(self):
        # the step-t real batch is the t-th n-row slice of the calibration
        # part; no row serves twice, as a batch row or as a test point
        data = concat(_inliers(100), _anomalies(10))
        splits = make_splits(data, PP, 9, np.random.default_rng(1),
                             test_reserve=10)
        stream = build_stream(data, splits, 9, np.random.default_rng(2),
                              anomaly_rate=0.3)
        seen = stream.features[:, 0].tolist() + data.features[
            splits.calibration[:9 * splits.n], 0].tolist()
        assert len(seen) == len(set(seen)) == 9 + 9 * splits.n

    def test_test_points_in_step_order(self):
        # anomaly steps take the pool's rows in order, the rest the
        # reserved inliers in order
        data = concat(_inliers(100), _anomalies(10))
        splits = make_splits(data, PP, 9, np.random.default_rng(1),
                             test_reserve=10)
        stream = build_stream(data, splits, 9, np.random.default_rng(2),
                              anomaly_rate=0.3)
        chosen = np.random.default_rng(2).choice(9, size=3, replace=False)
        anomalous = np.isin(np.arange(9), chosen)
        assert stream.truth.tolist() == anomalous.astype(int).tolist()
        assert np.array_equal(stream.features[anomalous],
                              data.features[splits.anomaly_pool[:3]])
        assert np.array_equal(stream.features[~anomalous],
                              data.features[splits.test_inliers[:6]])

    def test_count_controlled_anomaly_steps(self):
        data = concat(_inliers(100), _anomalies(20))
        splits = make_splits(data, PP, 10, np.random.default_rng(1),
                             test_reserve=10)
        stream = build_stream(data, splits, 10, np.random.default_rng(2),
                              anomaly_rate=0.3)
        assert len(stream) == 10 and stream.truth.sum() == 3

    def test_reserve_shortage(self):
        data = _inliers(100)
        splits = make_splits(data, PP, 10, np.random.default_rng(1),
                             test_reserve=2)
        with pytest.raises(ValueError, match="test points"):
            build_stream(data, splits, 10, np.random.default_rng(2),
                         anomaly_rate=0.0)

    def test_rate_domain(self):
        data = _inliers(100)
        splits = make_splits(data, PP, 5, np.random.default_rng(1),
                             test_reserve=10)
        with pytest.raises(ValueError):
            build_stream(data, splits, 5, np.random.default_rng(2),
                         anomaly_rate=1.0)


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
        return Imputer.fit(table(cols), (False, True))

    def test_median_mean_of_middle_two(self):
        imp = self._fit()
        assert imp.fill_values[0] == 2.5

    def test_mode_first_seen_tiebreak(self):
        imp = Imputer.fit(table([0.0, 0.0, 1.0]), (True,))
        assert imp.fill_values[0] == 0.0
        # tie: first-seen order wins
        train = table([2.0, 1.0, 1.0, 2.0])
        assert Imputer.fit(train, (True,)).fill_values[0] == 2.0

    def test_fully_observed_unchanged(self):
        imp = self._fit()
        x = np.array([[7.0, 1.0]])
        assert impute(imp, x) is x

    def test_fills_and_clears_mask(self):
        imp = self._fit()
        out = impute(imp, np.array([[np.nan, 1.0], [4.0, np.nan]]))
        assert out.tolist() == [[2.5, 1.0], [4.0, 0.0]]

    def test_idempotent(self):
        imp = self._fit()
        once = impute(imp, np.array([[np.nan, np.nan]]))
        assert np.array_equal(impute(imp, once), once)

    def test_fills_batches_along_the_feature_axis(self):
        imp = self._fit()
        batches = np.full((3, 2, 2), np.nan)
        assert (impute(imp, batches) == [2.5, 0.0]).all()

    @given(mask=st.lists(st.booleans(), min_size=2, max_size=2))
    def test_idempotence_property(self, mask):
        imp = self._fit()
        feats = np.where(mask, np.nan, 1.0)[None, :]
        once = impute(imp, feats)
        twice = impute(imp, once)
        assert np.array_equal(once, twice)
        assert not np.isnan(twice).any()

    @staticmethod
    def _loop_fill(train, categorical):
        """The per-row, per-feature fit the vectorized one replaced."""
        fill = np.empty(len(categorical))
        for i, cat in enumerate(categorical):
            column = [row[i] for row in train.features if not np.isnan(row[i])]
            if not cat:
                fill[i] = float(np.median(column))
            else:
                counts: dict[float, int] = {}
                for v in column:  # ties break by first appearance
                    counts[v] = counts.get(v, 0) + 1
                fill[i] = max(counts, key=counts.get)
        return fill

    @settings(max_examples=150)
    @given(data=st.data(), values=st.sampled_from([
        (0.0, -0.0, 1.0, 2.0, 0.5, -3.25),  # not codes: per-column np.unique
        (0.0, -0.0, 1.0, 2.0, 3.0),  # codes: one bincount
        (0.0, -0.0, 1.0, float(MODE_CODES)),  # a code past the bound
        (0.0, -0.0, 1.0, -2.0),  # a negative integer: no code
    ]))
    def test_matches_loop_reference(self, data, values):
        rows = data.draw(st.integers(1, 12))
        categorical = (False, True, True)
        values = st.sampled_from(values)
        features = []
        for r in range(rows):
            feats = data.draw(st.lists(values, min_size=3, max_size=3))
            # the first row keeps every feature observed
            mask = [False] * 3 if r == 0 else \
                data.draw(st.lists(st.booleans(), min_size=3, max_size=3))
            features.append(np.where(mask, np.nan, feats))
        train = table(features)
        fill = Imputer.fit(train, categorical).fill_values
        assert fill.tobytes() == \
            self._loop_fill(train, categorical).tobytes()

    def test_mostly_masked_column_and_ties(self):
        # column 0: one observed value; column 1: 1 and 2 tie, 2 came first
        train = table([[np.nan, 2.0], [np.nan, 1.0], [7.5, 1.0],
                       [np.nan, 2.0], [np.nan, 3.0]])
        categorical = (False, True)
        fill = Imputer.fit(train, categorical).fill_values
        assert fill.tolist() == [7.5, 2.0]
        assert fill.tobytes() == \
            self._loop_fill(train, categorical).tobytes()

    def test_no_observed_values(self):
        with pytest.raises(ValueError, match="feature 0"):
            Imputer.fit(table([np.nan]), (False,))

    def test_no_rows(self):
        empty = Table(np.empty((0, 1)), [], [])
        with pytest.raises(ValueError, match="no data"):
            Imputer.fit(empty, (False,))

    def test_kind_count_checked(self):
        with pytest.raises(ValueError, match="one boolean categorical flag"):
            Imputer.fit(table([[1.0, 2.0]]), (False,))

    @pytest.mark.parametrize("categorical", [
        ("continuous", "categorical"),  # np.asarray(..., bool): all True
        (0, 1),
        np.array([[False, True]]),
    ])
    def test_kind_names_rejected(self, categorical):
        # the schema alone reads kind names; the imputer takes their mask
        with pytest.raises(ValueError, match="one boolean categorical flag"):
            Imputer.fit(table([[1.0, 2.0]]), categorical)
