"""Dataset ingestion, split protocol, MCAR masking, and imputation.

CSV rows become Observations through a schema that names feature columns
(continuous or categorical), the label column, a numeric context column
with bin boundaries, and the missing-value tokens.  Splits follow the
benchmark protocol: shuffle, cut the inliers into score-training /
generator-training / calibration parts, and serve the calibration part as
disjoint per-timestep batches.
"""

from __future__ import annotations

import csv
import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .core import Observation, observation

__all__ = [
    "DatasetSchema",
    "SplitPlan",
    "Splits",
    "StreamItem",
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
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


@dataclass(frozen=True)
class DatasetSchema:
    """Column layout of a CSV dataset.

    ``features`` lists (name, kind) pairs in vector order, kind being
    "continuous" or "categorical".  ``anomaly_values`` are the label-column
    strings counted as anomalies.  The context is derived from a numeric
    column via right-open bins: context = #boundaries strictly below-or-at
    the value.
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
                raise ValueError(f"feature {name!r}: unknown kind {kind!r}")

    @property
    def n_contexts(self) -> int:
        return len(self.context_bins) + 1

    @property
    def kinds(self) -> tuple[str, ...]:
        return tuple(kind for _, kind in self.features)

    def context_of(self, value: float) -> int:
        return bisect_right(list(self.context_bins), value)

    @classmethod
    def from_file(cls, path) -> "DatasetSchema":
        raw = parse_kv_file(path)
        features = []
        categories = {}
        for key, value in raw.items():
            if key.startswith("feature."):
                features.append((key[len("feature."):], value))
            elif key.startswith("categories."):
                categories[key[len("categories."):]] = tuple(
                    v.strip() for v in value.split("|"))
        if not features:
            raise ValueError(f"{path}: no feature.* entries")
        if "label" not in raw:
            raise ValueError(f"{path}: missing required key 'label'")
        bins = tuple(float(v) for v in raw["context.bins"].split(",")) \
            if raw.get("context.bins") else ()
        if any(b <= a for a, b in zip(bins, bins[1:])):
            raise ValueError(f"{path}: context.bins must be strictly "
                             f"increasing, got {raw['context.bins']}")
        missing = frozenset(raw["missing.tokens"].split(",")) \
            if "missing.tokens" in raw else frozenset({"?", ""})
        anomaly = frozenset(v.strip() for v in
                            raw.get("label.anomaly_values", "1").split(","))
        return cls(features=tuple(features), label=raw["label"],
                   anomaly_values=anomaly,
                   context_column=raw.get("context.column"),
                   context_bins=bins, missing_tokens=missing,
                   categories=categories)


def load_csv(path, schema: DatasetSchema) -> list[Observation]:
    """Parse a CSV file into Observations.

    Missing tokens set the mask; declared-but-unknown category values are
    treated as missing too, while undeclared categorical columns get codes
    in first-seen order.  Malformed rows fail with their row number.
    """
    observations: list[Observation] = []
    codebooks: dict[str, dict[str, int]] = {
        name: {v: i for i, v in enumerate(schema.categories[name])}
        for name, kind in schema.features
        if kind == "categorical" and name in schema.categories}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            warnings.warn(f"{path}: empty file, no rows loaded", stacklevel=2)
            return observations
        for rownum, row in enumerate(reader, start=2):  # header is line 1
            try:
                observations.append(_parse_row(row, schema, codebooks))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}: malformed row {rownum}: {exc}") from exc
    if not observations:
        warnings.warn(f"{path}: no data rows", stacklevel=2)
    return observations


def _parse_row(row, schema, codebooks) -> Observation:
    values = np.empty(len(schema.features))
    mask = np.zeros(len(schema.features), dtype=bool)
    for i, (name, kind) in enumerate(schema.features):
        token = row[name].strip()
        if token in schema.missing_tokens:
            mask[i] = True
        elif kind == "continuous":
            values[i] = float(token)
            if not math.isfinite(values[i]):
                raise ValueError(f"column {name!r}: non-finite value {token!r}")
        elif name in schema.categories:
            code = codebooks[name].get(token)
            if code is None:
                mask[i] = True  # unknown category behaves like missing
            else:
                values[i] = code
        else:
            book = codebooks.setdefault(name, {})
            values[i] = book.setdefault(token, len(book))
    label_token = row[schema.label].strip()
    truth = 1 if label_token in schema.anomaly_values else 0
    if schema.context_column is None:
        context = 0
    else:
        ctx_token = row[schema.context_column].strip()
        if ctx_token in schema.missing_tokens:
            raise ValueError(f"context column {schema.context_column!r} is missing")
        context = schema.context_of(float(ctx_token))
    return Observation(values, mask, context, truth)


# --- split protocol ---------------------------------------------------------

SPLIT_KINDS = ("prediction_powered", "twinless", "prediction_only")


@dataclass(frozen=True)
class SplitPlan:
    """How to cut a dataset for one run.

    ``fractions`` applies to the inlier rows (after removing the test
    reserve): score-training, generator-training, calibration.  Twinless
    plans fold the generator part into calibration, doubling the per-step
    batch; prediction-only plans fold calibration into generator training
    and serve no real batches.  ``test_reserve`` inliers are carved out
    first as null-step test candidates.
    """

    fractions: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
    kind: str = "prediction_powered"
    n_per_step: int | None = None
    test_reserve: int = 0

    def __post_init__(self) -> None:
        if self.kind not in SPLIT_KINDS:
            raise ValueError(f"unknown split kind {self.kind!r}")
        if abs(sum(self.fractions) - 1.0) > 1e-9 or min(self.fractions) < 0:
            raise ValueError("fractions must be non-negative and sum to 1")
        if self.test_reserve < 0:
            raise ValueError("test_reserve must be >= 0")


@dataclass(frozen=True, eq=False)
class Splits:
    score_train: tuple[Observation, ...]
    twin_train: tuple[Observation, ...]
    calibration: tuple[Observation, ...]
    test_inliers: tuple[Observation, ...]
    anomaly_pool: tuple[Observation, ...]
    n: int


@dataclass(frozen=True, eq=False)
class StreamItem:
    test: Observation
    calibration: tuple[Observation, ...]


def make_splits(data, plan: SplitPlan, steps: int,
                rng: np.random.Generator) -> Splits:
    """Shuffle and cut a labeled dataset for one run of ``steps`` timesteps.

    Inliers fill the three parts per the plan; anomalies give their
    score-training share to the supervised scorer and the remainder to the
    stream's anomaly pool.  The per-step batch size n is derived as
    floor(|calibration| / steps) unless pinned by the plan.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    inliers = [obs for obs in data if obs.truth != 1]
    anomalies = [obs for obs in data if obs.truth == 1]
    inliers = [inliers[i] for i in rng.permutation(len(inliers))]
    anomalies = [anomalies[i] for i in rng.permutation(len(anomalies))]

    if len(inliers) < plan.test_reserve:
        raise ValueError(f"need at least {plan.test_reserve} inlier rows for "
                         f"the test reserve, got {len(inliers)}")
    test_inliers = tuple(inliers[:plan.test_reserve])
    rest = inliers[plan.test_reserve:]

    f_score, f_twin, _ = plan.fractions
    cut1 = math.floor(f_score * len(rest))
    cut2 = math.floor((f_score + f_twin) * len(rest))
    score_in, twin_part, cal_part = rest[:cut1], rest[cut1:cut2], rest[cut2:]

    if plan.kind == "twinless":
        cal_part = twin_part + cal_part
        twin_part = []
    elif plan.kind == "prediction_only":
        twin_part = twin_part + cal_part
        cal_part = []

    anom_cut = math.floor(f_score * len(anomalies))
    score_train = score_in + anomalies[:anom_cut]
    anomaly_pool = tuple(anomalies[anom_cut:])

    if plan.kind == "prediction_only":
        n = 0
    else:
        n = plan.n_per_step if plan.n_per_step is not None \
            else len(cal_part) // steps
        if n < 1 or n * steps > len(cal_part):
            minimum = steps * max(1, plan.n_per_step or 1)
            raise ValueError(
                f"calibration part has {len(cal_part)} rows; need at least "
                f"{minimum} for {steps} fresh batches")

    return Splits(score_train=tuple(score_train), twin_train=tuple(twin_part),
                  calibration=tuple(cal_part), test_inliers=test_inliers,
                  anomaly_pool=anomaly_pool, n=n)


def build_stream(splits: Splits, steps: int, rng: np.random.Generator,
                 anomaly_rate: float = 0.1) -> tuple[StreamItem, ...]:
    """Lay out the per-timestep stream: one test point plus a fresh batch.

    Anomaly steps (a count-controlled share of ``steps``) draw their test
    point from the anomaly pool; the rest consume the reserved inliers.
    Calibration batches are disjoint front slices of the calibration part.
    """
    if not 0.0 <= anomaly_rate < 1.0:
        raise ValueError("anomaly_rate must lie in [0, 1)")
    k = min(len(splits.anomaly_pool), round(steps * anomaly_rate))
    if len(splits.test_inliers) < steps - k:
        raise ValueError(f"need {steps - k} reserved inlier test points, "
                         f"got {len(splits.test_inliers)}")
    anomaly_steps = set(rng.choice(steps, size=k, replace=False).tolist())
    items = []
    next_anom = 0
    next_null = 0
    for t in range(steps):
        if t in anomaly_steps:
            test = splits.anomaly_pool[next_anom]
            next_anom += 1
        else:
            test = splits.test_inliers[next_null]
            next_null += 1
        batch = splits.calibration[t * splits.n:(t + 1) * splits.n]
        items.append(StreamItem(test=test, calibration=batch))
    return tuple(items)


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


@dataclass(frozen=True, eq=False)
class Imputer:
    """Per-feature fill values: training median (continuous) or mode.

    Fully determined at fit time; applying it clears the mask and leaves
    observed slots untouched.
    """

    fill_values: np.ndarray
    kinds: tuple[str, ...]

    @classmethod
    def fit(cls, train, kinds) -> "Imputer":
        kinds = tuple(kinds)
        if not train:
            raise ValueError("cannot fit an imputer on no data")
        d = train[0].dim
        if len(kinds) != d:
            raise ValueError("one kind per feature is required")
        features = np.stack([obs.features for obs in train])
        observed = ~np.stack([obs.mask for obs in train])
        fill = np.empty(d)
        for i, kind in enumerate(kinds):
            column = features[observed[:, i], i]  # in row order
            if not column.size:
                raise ValueError(f"feature {i} has no observed training values")
            if kind == "continuous":
                fill[i] = np.median(column)
            else:
                # the mode; a tie goes to the value seen first
                _, first, counts = np.unique(column, return_index=True,
                                             return_counts=True)
                fill[i] = column[first[counts == counts.max()].min()]
        return cls(fill, kinds)


def impute(imp: Imputer, obs: Observation) -> Observation:
    """Fill masked slots from the imputer and clear the mask."""
    if not obs.mask.any():
        return obs
    values = obs.features.copy()
    values[obs.mask] = imp.fill_values[obs.mask]
    return Observation(values, np.zeros(obs.dim, dtype=bool),
                       obs.context, obs.truth)
