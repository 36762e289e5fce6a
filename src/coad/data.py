"""Dataset ingestion, split protocol, MCAR masking, and imputation.

A CSV file becomes one Table through a schema that names feature columns
(continuous or categorical), the label column, a numeric context column
with bin boundaries, and the missing-value tokens.  The reader takes the
records once and parses them column by column; a malformed file fails
naming its first fault in file order.  Splits follow the
benchmark protocol: shuffle the row indices, cut the inliers into
score-training / generator-training / calibration thirds, and serve the
calibration part as disjoint per-timestep batches.  A split holds row
positions into the dataset; a part becomes a Table only where a run reads
it, through ``Table.rows``.  The imputer fills with training medians and
modes; the categorical modes come from one count table over (column,
code) keys when every value is an integer code below MODE_CODES, and from
a per-column ``np.unique`` pass otherwise.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .core import Table

__all__ = [
    "DatasetSchema",
    "Splits",
    "Imputer",
    "load_csv",
    "make_splits",
    "build_stream",
    "apply_mcar_mask",
    "impute",
    "parse_kv_file",
]


def parse_kv_file(path) -> dict[str, str]:
    """Read a flat ``key = value`` file; '#' starts a comment."""
    out: dict[str, str] = {}
    lines: dict[str, int] = {}  # the line each key was given on
    with open(path, "r", encoding="utf-8-sig") as fh:  # a BOM is no key
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = map(str.strip, line.split("=", 1))
            if key in lines:
                raise ValueError(f"{path}:{lineno}: key {key!r} repeats "
                                 f"line {lines[key]}")
            lines[key] = lineno
            out[key] = value
    return out


@dataclass(frozen=True)
class DatasetSchema:
    """Column layout of a CSV dataset.

    ``features`` lists (name, kind) pairs in vector order, kind being
    "continuous" or "categorical"; the schema alone reads kind names and
    hands the rest ``categorical``, one flag per feature.  ``anomaly_values``
    are the label-column strings counted as anomalies.  The context is
    derived from a numeric column via right-open bins: context =
    #boundaries strictly below-or-at the value; bins without a context
    column are rejected.
    """

    features: tuple[tuple[str, str], ...]
    label: str
    anomaly_values: frozenset[str] = frozenset({"1"})
    context_column: str | None = None
    context_bins: tuple[float, ...] = ()
    missing_tokens: frozenset[str] = frozenset({"?", ""})
    categories: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, kind in self.features:
            if kind not in ("continuous", "categorical"):
                raise ValueError(f"feature.{name}: unknown kind {kind!r}")
        if self.context_bins and self.context_column is None:
            raise ValueError("context.bins needs a context.column to bin")
        if self.label in dict(self.features):
            raise ValueError(f"label column {self.label!r} is also "
                             f"feature.{self.label}")
        if self.label == self.context_column:
            raise ValueError(f"label column {self.label!r} is also the "
                             "context.column")

    @property
    def n_contexts(self) -> int:
        return len(self.context_bins) + 1

    @property
    def categorical(self) -> tuple[bool, ...]:
        return tuple(kind == "categorical" for _, kind in self.features)

    def context_of(self, value):
        """Context of a context-column value, elementwise for an array:
        the number of bin boundaries at or below it."""
        return np.searchsorted(self.context_bins, value, side="right")

    @classmethod
    def from_file(cls, path) -> "DatasetSchema":
        raw = parse_kv_file(path)
        features = {key[len("feature."):]: value for key, value in raw.items()
                    if key.startswith("feature.")}
        categories = {key[len("categories."):]: tuple(
            v.strip() for v in value.split("|"))
            for key, value in raw.items() if key.startswith("categories.")}
        for key in raw:
            name = key.partition(".")[2]
            if not (key in SCHEMA_KEYS or key.startswith("feature.") or
                    key.startswith("categories.") and
                    features.get(name) == "categorical"):
                raise ValueError(f"{path}: unknown schema key {key!r}")
        if not features:
            raise ValueError(f"{path}: no feature.* entries")
        if "label" not in raw:
            raise ValueError(f"{path}: missing required key 'label'")
        text = raw.get("context.bins", "")
        try:
            bins = tuple(float(v) for v in text.split(",")) if text else ()
        except ValueError:
            bins = None
        if bins is None or not all(map(math.isfinite, bins)) or \
                any(b <= a for a, b in zip(bins, bins[1:])):
            raise ValueError(f"{path}: context.bins must be finite and "
                             f"strictly increasing, got {text}")
        missing = frozenset(map(str.strip, raw["missing.tokens"].split(","))) \
            if "missing.tokens" in raw else frozenset({"?", ""})
        anomaly = frozenset(v.strip() for v in
                            raw.get("label.anomaly_values", "1").split(","))
        try:
            return cls(features=tuple(features.items()), label=raw["label"],
                       anomaly_values=anomaly,
                       context_column=raw.get("context.column"),
                       context_bins=bins, missing_tokens=missing,
                       categories=categories)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


# the schema keys besides feature.<name> and categories.<name>
SCHEMA_KEYS = ("label", "label.anomaly_values", "context.column",
               "context.bins", "missing.tokens")


def load_csv(path, schema: DatasetSchema) -> Table:
    """Parse a CSV file into a Table, one row per record.

    Missing tokens leave NaN; declared-but-unknown category values are
    treated as missing too, while undeclared categorical columns get codes
    in first-seen order.  The records are read once and parsed column by
    column.  A header that lacks a schema column, or names one more than
    once, fails before any record is parsed; otherwise a malformed file
    fails naming its first fault in file order: within a record the field
    count is checked first, then the features in schema order, the label
    and the context column.  A file with records fails naming the first
    feature column that holds no observed value.  The context value is
    -inf, which bins into context 0, when the schema names no context
    column.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        records = [row for row in reader if row]  # blank records uncounted
    index = {name: j for j, name in enumerate(header or ())}
    for name in [*(name for name, _ in schema.features), schema.label,
                 schema.context_column]:
        if header is None or name is None:
            continue
        count = header.count(name)
        if not count:
            raise ValueError(f"{path}: no column {name!r} in the header")
        if count > 1:
            raise ValueError(f"{path}: column {name!r} is named {count} "
                             "times in the header")
    if header is None:
        warnings.warn(f"{path}: empty file, no rows loaded", stacklevel=2)
    elif not records:
        warnings.warn(f"{path}: no data rows", stacklevel=2)
    # the header is line 1, so record r is row r + 2; a record of the wrong
    # width ends the part that can be read as columns
    width = len(header or ())
    whole = next((r for r, row in enumerate(records) if len(row) != width),
                 len(records))
    columns = list(zip(*records[:whole]))
    d = len(schema.features)
    matrix = np.empty((whole, d + 2))
    targets = [(name, kind, j) for j, (name, kind) in
               enumerate(schema.features)] + [(schema.label, "label", d + 1)]
    if schema.context_column is not None:
        targets.append((schema.context_column, "context", d))
    else:
        matrix[:, d] = -math.inf
    # (record, target, exception): the width fault comes first in its record
    faults = [] if whole == len(records) else [(whole, -1, ValueError(
        f"expected {width} fields, got {len(records[whole])}"))]
    for t, (name, kind, j) in enumerate(targets):  # zip: no record, no column
        parsed = _parse_column(name, kind, list(map(
            str.strip, columns[index[name]] if whole else ())), schema)
        if isinstance(parsed, tuple):
            faults.append((parsed[0], t, parsed[1]))
        else:
            matrix[:, j] = parsed
    if faults:
        record, _, exc = min(faults, key=lambda fault: fault[:2])
        raise ValueError(f"{path}: malformed row {record + 2}: {exc}") \
            from exc
    empty = np.isnan(matrix[:, :d]).all(axis=0)
    if records and empty.any():  # no run's imputer could fill it
        name = schema.features[empty.argmax()][0]
        raise ValueError(f"{path}: column {name!r} holds no observed value")
    return Table(matrix[:, :d], schema.context_of(matrix[:, d]),
                 matrix[:, d + 1])


def _parse_column(name: str, kind: str, tokens: list[str],
                  schema: DatasetSchema):
    """A column's values (NaN where missing), or (record, exception) at its
    first malformed token."""
    missing = schema.missing_tokens
    if kind == "label":
        return np.fromiter(map(schema.anomaly_values.__contains__, tokens),
                           bool, len(tokens))
    if kind == "categorical":
        if name in schema.categories:
            book = {v: i for i, v in enumerate(schema.categories[name])}
        else:  # codes in first-seen order
            book = {t: i for i, t in enumerate(
                t for t in dict.fromkeys(tokens) if t not in missing)}
        book.update(dict.fromkeys(missing, math.nan))
        # an unknown category behaves like a missing value
        return np.fromiter(map(book.get, tokens, repeat(math.nan)), float,
                           len(tokens))
    # a continuous feature may be missing; nothing else may be NaN
    what = f"column {name!r}" if kind == "continuous" else \
        f"context column {name!r}"
    values = []
    for r, token in enumerate(tokens):
        if token in missing:
            if kind == "context":
                return r, ValueError(f"context column {name!r} is missing")
            values.append(math.nan)
            continue
        try:
            value = float(token)
        except ValueError as exc:
            return r, exc
        if not math.isfinite(value):
            return r, ValueError(f"{what}: non-finite value {token!r}")
        values.append(value)
    return np.array(values)


# --- split protocol ---------------------------------------------------------

SPLIT_KINDS = ("prediction_powered", "twinless", "prediction_only")


@dataclass(frozen=True, eq=False)
class Splits:
    """The parts of one run's split as row positions into its dataset,
    plus the per-step batch sizes n (0 when no real batch is served) and
    n_tilde (the generator's)."""

    score_train: np.ndarray
    twin_train: np.ndarray
    validation: np.ndarray
    calibration: np.ndarray
    test_inliers: np.ndarray
    anomaly_pool: np.ndarray
    n: int
    n_tilde: int


def make_splits(data: Table, kind: str, steps: int, rng: np.random.Generator,
                n: int | None = None, test_reserve: int = 0, *,
                n_tilde: int | None = None,
                validation: bool = False) -> Splits:
    """Shuffle and cut a labeled dataset for one run of ``steps`` timesteps.

    ``test_reserve`` inliers are carved out first as null-step test points;
    the rest are cut in thirds for score training, generator training and
    calibration.  A twinless split folds the generator third into
    calibration; a prediction-only split folds calibration into generator
    training and serves no real batch (n = 0).  Anomalies give their first
    third to the supervised scorer and the rest to the anomaly pool.  With
    ``validation``, a prediction-powered split cuts the front fifth off its
    score-training part and keeps that fifth's inliers to validate the
    generator.  The per-step batch size is ``n``, or
    floor(|calibration| / steps) if None; the generator's is ``n_tilde``,
    else n, else half the generator part per step.  An empty score-training
    part, or generator part where one is used, fails naming ``steps``.
    """
    if kind not in SPLIT_KINDS:
        raise ValueError(f"unknown split kind {kind!r}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if test_reserve < 0:
        raise ValueError("test_reserve must be >= 0")
    inliers = np.flatnonzero(data.truth != 1)
    anomalies = np.flatnonzero(data.truth == 1)
    inliers = inliers[rng.permutation(inliers.size)]
    anomalies = anomalies[rng.permutation(anomalies.size)]

    if inliers.size < test_reserve:
        raise ValueError(f"need at least {test_reserve} inlier rows for "
                         f"the test reserve, got {inliers.size}")
    rest = inliers[test_reserve:]
    cut1, cut2 = rest.size // 3, 2 * rest.size // 3
    twin_part, cal_part = rest[cut1:cut2], rest[cut2:]
    if kind == "twinless":
        twin_part, cal_part = rest[:0], rest[cut1:]
    elif kind == "prediction_only":
        twin_part, cal_part = rest[cut1:], rest[:0]
    anom_cut = anomalies.size // 3
    score_part = np.concatenate([rest[:cut1], anomalies[:anom_cut]])

    if kind == "prediction_only":
        n = 0
    else:
        minimum = steps * max(1, n or 1)
        n = cal_part.size // steps if n is None else n
        if n < 1 or n * steps > cal_part.size:
            raise ValueError(
                f"calibration part has {cal_part.size} rows; need at least "
                f"{minimum} for {steps} fresh batches")
    if not score_part.size or kind != "twinless" and not twin_part.size:
        raise ValueError(f"the dataset leaves no score- or generator-training"
                         f" rows beside the steps = {steps} reserved test "
                         "points")

    carve = round(0.2 * score_part.size) if validation and \
        kind == "prediction_powered" else 0
    front = score_part[:carve]
    # n is 0 only in a prediction-only split, whose generator part holds the
    # calibration third: n_tilde falls back to the batch that third serves
    return Splits(score_train=score_part[carve:], twin_train=twin_part,
                  validation=front[data.truth[front] == 0],
                  calibration=cal_part, test_inliers=inliers[:test_reserve],
                  anomaly_pool=anomalies[anom_cut:], n=n,
                  n_tilde=n_tilde or n or max(1, twin_part.size // 2 // steps))


def build_stream(data: Table, splits: Splits, steps: int,
                 rng: np.random.Generator, anomaly_rate: float = 0.1) -> Table:
    """The stream's test points, one per timestep, in step order.

    Anomaly steps (a count-controlled share of ``steps``) draw their test
    point from the anomaly pool; the rest consume the reserved inliers.
    The step-t calibration batch is the t-th slice of n rows of the
    calibration part.
    """
    if not 0.0 <= anomaly_rate < 1.0:
        raise ValueError("anomaly_rate must lie in [0, 1)")
    k = min(splits.anomaly_pool.size, round(steps * anomaly_rate))
    if splits.test_inliers.size < steps - k:
        raise ValueError(f"need {steps - k} reserved inlier test points, "
                         f"got {splits.test_inliers.size}")
    anomalous = np.zeros(steps, dtype=bool)
    anomalous[rng.choice(steps, size=k, replace=False)] = True
    index = np.empty(steps, dtype=np.intp)
    index[anomalous] = splits.anomaly_pool[:k]
    index[~anomalous] = splits.test_inliers[:steps - k]
    return data.rows(index)


# --- missingness ------------------------------------------------------------


def apply_mcar_mask(features: np.ndarray, q_miss: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Mask each entry of a feature array independently with probability
    q_miss, by setting it to NaN; draws one uniform per entry, in order."""
    if not 0.0 <= q_miss < 1.0:
        raise ValueError("q_miss must lie in [0, 1)")
    if q_miss == 0.0:
        return features
    return np.where(rng.random(features.shape) < q_miss, np.nan, features)


# Categorical values that are all integer codes below this bound (codebook
# indices, 0/1 flags) take their modes from one count table of at most
# MODE_CODES entries per categorical column.
MODE_CODES = 4096


@dataclass(frozen=True, eq=False)
class Imputer:
    """Per-feature fill values: the training median, or the mode where
    ``fit``'s one-flag-per-feature ``categorical`` mask is True, a tie going
    to the value seen first.

    Fully determined at fit time; applying it fills the missing values and
    leaves observed ones untouched.
    """

    fill_values: np.ndarray

    @classmethod
    def fit(cls, train: Table, categorical) -> "Imputer":
        if not len(train):
            raise ValueError("cannot fit an imputer on no data")
        cat = np.asarray(categorical)
        if cat.dtype != bool or cat.shape != (train.dim,):
            raise ValueError("one boolean categorical flag per feature")
        observed = ~np.isnan(train.features)
        empty = np.flatnonzero(~observed.any(axis=0))
        if empty.size:
            raise ValueError(f"feature {empty[0]} has no observed training "
                             "values")
        fill = np.empty(train.dim)
        for i in np.flatnonzero(~cat):
            fill[i] = np.median(train.features[observed[:, i], i])
        if cat.all():  # no column copies
            fill = _modes(train.features, observed)
        elif cat.any():
            fill[cat] = _modes(train.features[:, cat], observed[:, cat])
        return cls(fill)


def _modes(values: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """Each column's most frequent observed value, a tie going to the value
    seen first, read back from the first row that holds it (so -0.0 stays
    -0.0).  Integer codes below MODE_CODES are counted with one bincount
    over (column, code) keys; any other value takes the per-column
    ``np.unique`` path."""
    whole = observed.all()
    codes = values if whole else np.where(observed, values, 0.0)
    if codes.min() >= 0 and codes.max() < MODE_CODES:
        keys = codes.astype(np.intp)
        if (keys == codes).all():
            cols = values.shape[1]
            width = int(keys.max()) + 1
            keys += width * np.arange(cols)
            if not whole:
                keys[~observed] = cols * width  # a bin past every column's
            counts = np.bincount(keys.ravel(), minlength=cols * width + 1)
            counts = counts[:-1].reshape(cols, width)
            top = np.append(counts == counts.max(axis=1, keepdims=True),
                            False)
            return values[top[keys].argmax(axis=0), np.arange(cols)]
    fill = np.empty(values.shape[1])
    for i in range(values.shape[1]):
        column = values[observed[:, i], i]  # row order
        _, first, counts = np.unique(column, return_index=True,
                                     return_counts=True)
        fill[i] = column[first[counts == counts.max()].min()]
    return fill


def impute(imp: Imputer, features: np.ndarray) -> np.ndarray:
    """Fill the NaN holes of an (..., d) feature array from the imputer;
    an array without holes comes back as it is."""
    holes = np.isnan(features)
    if not holes.any():
        return features
    return np.where(holes, imp.fill_values, features)
