"""Benchmark harness: method variants, run configuration, seeded execution,
and artifact emission.

Every source of randomness flows through generators derived from one master
seed via counter-based spawn keys (run index, purpose tag, sub-stream).  A
stream-time generator yields one kind of draw in step order, so replays are
exact, a step's draws do not depend on how a run is chunked, and they do not
shift when a method skips a query.

The benchmark runs run-major.  A run's methods form split groups (all of
them on the Gaussian oracle, the methods of one split kind on a table).  A
group builds its data, as columnar ``Table``s whose split is row positions
gathered only where the run reads them, and fits its imputer once.  Its
methods of one context awareness, at most one per acquisition rule, form a
lane: the lane fits a score model, a generator, FIXED's threshold and the
active method's gammas once, and computes each array of a chunk of the
group's stream once -- test scores, flags, proxy and real p-values,
queries -- for all its methods.  Since each shared object is a function
of (seed, run, purpose, sub-stream) alone, a method's outputs do not
depend on which methods share its runs.

A run has two phases.  No step's statistic -- proxy p-value, acquisition
draw, real p-value, test statistic -- reads the detector's past, so the
statistic phase computes them for a chunk of steps at a time with numpy.
The decision phase then walks the statistics through the threshold
schedule, one vector compare per stretch between detections, and folds the
decisions into the run's metric trace.

``_iter_runs`` yields each finished run, run-major, as (method, run index,
``RunSteps``, ``RunTrace``); ``run_benchmark`` collects that stream per
method.  A run's output stays columnar up to the files: ``RunSteps`` holds
its per-step columns, ``MethodResult.records`` is a view built from them,
and ``emit`` writes the CSVs a block of EMIT_ROWS rows at a time.
"""

from __future__ import annotations

import json
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from . import fdr
from .conformal import (GAMMA_MAX, acquisition_probability, active_pvalues,
                        conformal_pvalues)
from .core import Table
from .data import (DatasetSchema, Imputer, apply_mcar_mask, build_stream,
                   impute, load_csv, make_splits)
# The run engine calls ``fdr.threshold_walk``, not the single-step ``step``;
# the name stays because perfbench/spans.py patches it here.
from .fdr import StepRecord, step  # noqa: F401
from .metrics import RunTrace, TraceSummary, aggregate, run_trace
from .scoring import (QuantileThreshold, ScoreModel, fit_density_score,
                      fit_fixed_threshold, fit_kmeans_score,
                      fit_supervised_score)
from .twin import (TwinModel, fit_twin, gamma_of_context, positive_ecdf_gap,
                   proxy_pvalues, sample_synthetic)

__all__ = [
    "MethodVariant",
    "RunConfig",
    "RunArtifacts",
    "MethodResult",
    "derive_rng",
    "config_from",
    "gaussian_synthetic_stream",
    "run_benchmark",
    "emit",
]


class _Purpose:
    """Stable integer tags for the counter-based stream split."""

    DATA = 0
    SPLITS = 1
    SCORE_FIT = 2
    TWIN_FIT = 3
    VALIDITY = 4  # gamma calibration's synthetic pool, sub n_eff + context
    TEST_POINT = 5
    TWIN_SAMPLE = 6
    REAL_CAL = 7
    ACQUIRE = 8
    MASK = 9
    VALIDATION = 10  # the Gaussian oracle's validation inliers, sub context


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Child generator at (seed; key...), independent across distinct keys."""
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


class MethodVariant(Enum):
    """The seven benchmark methods, all configurations of one step pipeline.

    Each is (context-aware scoring, acquisition rule): "always" queries a
    real batch, "never" trusts the synthetic batch, "active" queries with
    probability 1 - gamma * q, and None (FIXED) tests raw scores.
    """

    FIXED = "FIXED", True, None
    COAD = "COAD", False, "always"
    PP_COAD = "PP_COAD", False, "active"
    C_COAD = "C_COAD", True, "always"
    PO_COAD = "PO_COAD", False, "never"
    C_PO_COAD = "C_PO_COAD", True, "never"
    C_PP_COAD = "C_PP_COAD", True, "active"

    def __new__(cls, value: str, context_aware: bool,
                acquisition: str | None) -> "MethodVariant":
        member = object.__new__(cls)
        member._value_ = value
        member.context_aware = context_aware
        member.acquisition = acquisition
        return member

    @property
    def uses_twin(self) -> bool:
        return self.acquisition in ("never", "active")

    @property
    def uses_real(self) -> bool:
        return self.acquisition in ("always", "active")

    @property
    def split_kind(self) -> str:
        if self.acquisition == "active":
            return "prediction_powered"
        if self.acquisition == "never":
            return "prediction_only"
        return "twinless"  # no generator: calibration gets the extra third


SCORE_KINDS = ("supervised", "unsupervised", "semi_supervised")
DATASETS = ("csv", "gaussian")


@dataclass
class RunConfig:
    """Resolved benchmark configuration (config-file keys mirror field names;
    ``method`` takes a comma list or ``all``, ``lambda`` maps to ``lam``)."""

    methods: tuple[str, ...] = ("C_PP_COAD",)
    score: str = "semi_supervised"
    alpha: float = 0.1
    delta: float = 0.99
    eta: float = 1.0
    lam: float = 5.0
    gamma_override: float | None = None
    steps: int = 50
    runs: int = 100
    seed: int = 0
    dataset: str = "gaussian"
    n: int | None = None
    n_tilde: int | None = None
    q_miss: float = 0.0
    plus_one: bool = True
    gmm_components: int = 2
    kmeans_k: int = 5
    out_dir: str = "results"
    # csv dataset
    csv_path: str | None = None
    schema_path: str | None = None
    # gaussian oracle
    contexts: int = 2
    dim: int = 2
    context_spread: float = 3.0
    anomaly_shift: float = 2.0
    twin_var_scale: float = 1.0
    twin_mean_shift: float = 0.0
    anomaly_rate: float = 0.1
    score_train_size: int = 600
    twin_train_size: int = 600
    val_size: int = 500
    synth_pool: int = 500

    def validate(self) -> None:
        if not self.methods:
            raise ValueError("at least one method is required")
        methods = [MethodVariant(name) for name in self.methods]
        if self.score not in SCORE_KINDS:
            raise ValueError(f"score must be one of {SCORE_KINDS}")
        if self.dataset not in DATASETS:
            raise ValueError(f"dataset must be one of {DATASETS}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.eta <= 0.0:
            raise ValueError("eta must be positive")
        if self.lam <= 0.0:
            raise ValueError("lambda must be positive")
        if self.steps < 1 or self.runs < 1:
            raise ValueError("steps and runs must be >= 1")
        if not 0.0 <= self.q_miss < 1.0:
            raise ValueError("q_miss must lie in [0, 1)")
        if not 0.0 <= self.anomaly_rate < 1.0:
            raise ValueError("anomaly_rate must lie in [0, 1)")
        for size in (self.n, self.n_tilde):
            if size is not None and size < 1:
                raise ValueError("n and n_tilde must be >= 1 when set")
        for key in ("contexts", "dim", "gmm_components", "kmeans_k",
                    "synth_pool"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1")
        for key in ("score_train_size", "twin_train_size", "val_size"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be >= 0")
        for key in ("context_spread", "anomaly_shift", "twin_mean_shift"):
            if not np.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite")
        if not 0.0 <= self.twin_var_scale < np.inf:
            raise ValueError("twin_var_scale must be finite and >= 0")
        if self.gamma_override is not None and \
                not 0.0 < self.gamma_override <= GAMMA_MAX:
            raise ValueError(f"gamma_override must lie in (0, {GAMMA_MAX}]")
        if self.dataset == "gaussian":
            # each fit's rows as gaussian_synthetic_stream draws them
            per_ctx = max(2, self.score_train_size // self.contexts)
            inliers = per_ctx - max(1, round(per_ctx * self.anomaly_rate))
            # the rows per context that the score kind fits on, and its need
            rows, need, what = {
                "semi_supervised": (inliers, 2, "2 inliers"),
                "supervised": (inliers, 1, "1 inlier"),
                "unsupervised": (per_ctx, self.kmeans_k, "kmeans_k rows"),
            }[self.score]
            for m in methods:
                pooled = 1 if m.context_aware else self.contexts  # per fit
                if rows * pooled < need:
                    raise ValueError(f"score_train_size leaves fewer than "
                                     f"{what} per context to fit the score")
                if m.uses_twin and self.twin_train_size // self.contexts \
                        * pooled < self.gmm_components:
                    raise ValueError("twin_train_size leaves fewer than "
                                     "gmm_components rows per context")
        if self.dataset == "csv" and not (self.csv_path and self.schema_path):
            raise ValueError("csv dataset needs csv_path and schema_path")

    def resolved(self) -> dict[str, str]:
        """Flat, fully resolved key=value view (the reproducibility contract)."""
        out: dict[str, str] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "methods":
                out["method"] = ",".join(value)
            elif value is None:
                out[f.name] = "none"
            elif isinstance(value, bool):
                out[f.name] = "true" if value else "false"
            else:
                out[f.name] = str(value)
        return out


def _parse_methods(text: str) -> tuple[str, ...]:
    if text.strip().lower() == "all":
        return tuple(m.value for m in MethodVariant)
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


_KEY_ALIASES = {"method": "methods", "lambda": "lam", "out": "out_dir"}
_PARSERS = {"int": int, "float": float, "bool": _parse_bool, "str": str.strip}
# annotation strings such as "int | None" (annotations are postponed)
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_field(name: str, text: str):
    """Parse a config value by its RunConfig field type; "none" fills an
    optional field with None."""
    if name == "methods":
        return _parse_methods(text)
    kind, _, optional = _FIELD_TYPES[name].partition(" | ")
    if optional and text.strip().lower() == "none":
        return None
    return _PARSERS[kind](text)


def config_from(mapping: dict[str, str] | None = None, **overrides) -> RunConfig:
    """Build a config from a key=value mapping plus overrides; string values
    are parsed by field type, other overrides are taken as given, and a None
    override leaves the field as it was."""
    cfg = RunConfig()
    for key, value in [*(mapping or {}).items(), *overrides.items()]:
        name = _KEY_ALIASES.get(key, key)
        if name not in _FIELD_TYPES:
            raise ValueError(f"unknown config key {key!r}")
        if value is None:
            continue
        if isinstance(value, str):
            try:
                value = _parse_field(name, value)
            except ValueError as exc:
                raise ValueError(f"config key {key!r}: {exc}") from exc
        setattr(cfg, name, value)
    cfg.validate()
    return cfg


# --- per-run data assembly ---------------------------------------------------


@dataclass(eq=False)
class RunData:
    """One run's training sets and its stream.

    ``stream`` holds one test point per step, NaN where a value is missing.
    ``real_batches(lo, hi)`` returns the (hi - lo, n, d) real calibration
    batches of steps lo..hi-1 (0-based); call it once per chunk, in step
    order, since the Gaussian oracle draws them as it goes, into one buffer
    held for the run.  So a call's array is valid only until the next call,
    and nothing may hold it past that.  It is None when the run serves no
    real batches.
    """

    score_train: Table
    twin_train: Table
    validation: Table
    stream: Table
    real_batches: Callable[[int, int], np.ndarray] | None
    n_contexts: int
    kinds: tuple[str, ...]
    n: int
    n_tilde: int


def gaussian_synthetic_stream(cfg: RunConfig,
                              methods: Sequence[MethodVariant],
                              run_idx: int) -> RunData:
    """Per-run data from the Gaussian oracle: labeled stream, training sets,
    and fresh real calibration batches with a known nominal law.

    It holds what any of ``methods`` needs: the generator's training set if
    one uses a twin, the validation inliers if one calibrates gamma, and
    the real batches if one uses them.  Each set comes from its own
    generator of the run, or, for the twin's training set, from the data
    generator after the score-training set, so every method sees the same
    draws whichever methods share the run.  The test points' contexts,
    anomaly flags and noise, and the real batches' noise, are read in step
    order, whether or not a method queries real data at a step.

    Context c's inliers are unit-variance Gaussians at c * context_spread;
    anomalies shift by anomaly_shift; the twin's training law shifts by
    twin_mean_shift and scales the variance by twin_var_scale.
    """
    contexts = cfg.contexts
    level = np.arange(contexts) * cfg.context_spread  # every feature's mean
    means = level[:, None] * np.ones(cfg.dim)[None, :]

    def draw(c: int, size: int, rng: np.random.Generator,
             shift: float = 0.0, scale: float = 1.0) -> np.ndarray:
        return means[c] + shift + scale * rng.standard_normal((size, cfg.dim))

    n = cfg.n if cfg.n is not None else 1100  # A4's batch: defaults detect
    n_tilde = cfg.n_tilde if cfg.n_tilde is not None else n

    data_rng = derive_rng(cfg.seed, run_idx, _Purpose.DATA, 0)
    score_train = []
    per_ctx = max(2, cfg.score_train_size // contexts)
    for c in range(contexts):
        k_anom = max(1, round(per_ctx * cfg.anomaly_rate))
        score_train += [
            (c, 0, draw(c, per_ctx - k_anom, data_rng)),
            (c, 1, draw(c, k_anom, data_rng, cfg.anomaly_shift))]

    twin_train = []
    if any(m.uses_twin for m in methods):
        twin_train = [(c, 0, draw(c, cfg.twin_train_size // contexts,
                                  data_rng, cfg.twin_mean_shift,
                                  np.sqrt(cfg.twin_var_scale)))
                      for c in range(contexts)]

    validation = []
    if cfg.gamma_override is None and \
            any(m.acquisition == "active" for m in methods):
        validation = [(c, 0, draw(c, cfg.val_size, derive_rng(
                          cfg.seed, run_idx, _Purpose.VALIDATION, c)))
                      for c in range(contexts)]

    def stream_rng(sub: int) -> np.random.Generator:
        return derive_rng(cfg.seed, run_idx, _Purpose.TEST_POINT, sub)

    ctx = stream_rng(0).integers(contexts, size=cfg.steps)
    truth = (stream_rng(1).random(cfg.steps) < cfg.anomaly_rate).astype(int)
    tests = (means[ctx] + cfg.anomaly_shift * truth[:, None]
             + stream_rng(2).standard_normal((cfg.steps, cfg.dim)))

    real_batches = None
    if any(m.uses_real for m in methods):
        real_rng = derive_rng(cfg.seed, run_idx, _Purpose.REAL_CAL, 0)
        buffer = np.empty((0, n, cfg.dim))

        def real_batches(lo: int, hi: int) -> np.ndarray:
            nonlocal buffer
            if len(buffer) < hi - lo:
                buffer = np.empty((hi - lo, n, cfg.dim))
            batches = real_rng.standard_normal(out=buffer[:hi - lo])
            # every feature of a context has one mean, so each batch adds
            # one value along its n * d contiguous values
            batches += level[ctx[lo:hi], None, None]
            return batches

    return RunData(score_train=_blocks_table(score_train, cfg.dim),
                   twin_train=_blocks_table(twin_train, cfg.dim),
                   validation=_blocks_table(validation, cfg.dim),
                   stream=Table(tests, ctx, truth), real_batches=real_batches,
                   n_contexts=contexts, kinds=("continuous",) * cfg.dim,
                   n=n, n_tilde=n_tilde)


def _blocks_table(blocks, dim: int) -> Table:
    """The rows of (context, truth, features) blocks, in block order."""
    sizes = [len(x) for _, _, x in blocks]
    return Table(
        np.concatenate([np.empty((0, dim))] + [x for _, _, x in blocks]),
        np.repeat([c for c, _, _ in blocks], sizes),
        np.repeat([t for _, t, _ in blocks], sizes))


@dataclass(eq=False)
class _Dataset:
    """Dataset shared by all runs: its rows plus context metadata."""

    table: Table
    kinds: tuple[str, ...]
    n_contexts: int


def _load_dataset(cfg: RunConfig) -> _Dataset:
    schema = DatasetSchema.from_file(cfg.schema_path)
    table = load_csv(cfg.csv_path, schema)
    inliers = int((table.truth == 0).sum())
    if inliers < cfg.steps:  # each run reserves one inlier test point a step
        raise ValueError(f"{cfg.csv_path}: {inliers} inlier rows, fewer than "
                         f"the steps = {cfg.steps} test points each run "
                         "reserves")
    return _Dataset(table, schema.kinds, schema.n_contexts)


def table_run(cfg: RunConfig, split_kind: str, run_idx: int,
              dataset: _Dataset) -> RunData:
    """Per-run data from a finite dataset via the split protocol, for the
    methods whose split is ``split_kind``."""
    data = dataset.table
    rng = derive_rng(cfg.seed, run_idx, _Purpose.SPLITS, 0)
    splits = make_splits(data, split_kind, cfg.steps, rng, n=cfg.n,
                         test_reserve=cfg.steps)
    if not splits.score_train.size or \
            split_kind != "twinless" and not splits.twin_train.size:
        raise ValueError(f"the dataset leaves no score- or generator-training"
                         f" rows beside the steps = {cfg.steps} reserved test "
                         "points")
    stream = build_stream(data, splits, cfg.steps, rng, cfg.anomaly_rate)
    score_train = data.rows(splits.score_train)
    twin_train = data.rows(splits.twin_train)

    # the inliers of the front fifth validate the generator for gamma
    carve = round(0.2 * len(score_train)) if split_kind == \
        "prediction_powered" and cfg.gamma_override is None else 0
    validation = score_train.rows(
        np.flatnonzero(score_train.truth[:carve] == 0))
    score_train = score_train.rows(slice(carve, None))

    # n_tilde is the configured size, else n; a generator-only split
    # matches the batch a generator-backed split would have served (its
    # calibration share is half the twin part)
    n_tilde = cfg.n_tilde or splits.n or \
        max(1, len(twin_train) // 2 // cfg.steps)

    real_batches = None
    if splits.n > 0:
        # the fresh per-step batches are consecutive n-row slices of the
        # calibration part; only the first steps * n rows are ever read
        n = splits.n
        part = data.features[splits.calibration[:cfg.steps * n]]

        def real_batches(lo: int, hi: int) -> np.ndarray:
            return part[lo * n:hi * n].reshape(hi - lo, n, part.shape[1])

    return RunData(score_train=score_train, twin_train=twin_train,
                   validation=validation, stream=stream,
                   real_batches=real_batches, n_contexts=dataset.n_contexts,
                   kinds=dataset.kinds, n=splits.n, n_tilde=n_tilde)


# --- model fitting ----------------------------------------------------------


def _fit_score_model(cfg: RunConfig, aware: bool, run_idx: int,
                     train, n_contexts: int) -> ScoreModel:
    if cfg.score == "supervised":
        return fit_supervised_score(train, n_contexts=n_contexts,
                                    context_aware=aware)
    if cfg.score == "unsupervised":
        rng = derive_rng(cfg.seed, run_idx, _Purpose.SCORE_FIT, 0)
        return fit_kmeans_score(train, k=cfg.kmeans_k, rng=rng,
                                n_contexts=n_contexts, context_aware=aware)
    inliers = train.rows(train.truth != 1)
    if not len(inliers):  # the density score fits inliers only
        raise ValueError("class 0 absent in the score-training data")
    return fit_density_score(inliers, n_contexts=n_contexts,
                             context_aware=aware)


@dataclass(eq=False)
class _Lane:
    """The methods of a split group that share a context awareness, by
    acquisition rule in config order (at most one per rule), and what they
    share: the score model, FIXED's threshold, the generator and the active
    method's gammas, one per context the score model tells apart."""

    scorer: ScoreModel
    methods: dict[str | None, MethodVariant] = field(default_factory=dict)
    threshold: QuantileThreshold | None = None
    twin: TwinModel | None = None
    gammas: np.ndarray | None = None


def _calibrate_gammas(cfg: RunConfig, lane: _Lane, run_idx: int,
                      validation: Table) -> np.ndarray:
    """The active method's trust gamma(c) per effective context, from its
    validation inliers' p-values against a synthetic pool, or the override.

    Each context with validation inliers draws its own pool from its own
    generator; the pools are sampled and scored together (one call each
    unless the contexts are many), the inliers are scored at once with one
    context id per row, and one ``proxy_pvalues`` call ranks every inlier
    against its context's pool.
    """
    n_eff = lane.scorer.n_contexts
    if cfg.gamma_override is not None:
        return np.full(n_eff, cfg.gamma_override)
    slot = validation.context if lane.scorer.context_aware else \
        np.zeros(len(validation), dtype=int)
    order = np.argsort(slot, kind="stable")
    sizes = np.bincount(slot, minlength=n_eff)
    present = np.flatnonzero(sizes)
    if present.size:
        # the pools of as many contexts as fit in about CHUNK_VALUES
        # values are drawn, sampled and scored at once
        pool_scores = np.empty((present.size, cfg.synth_pool))
        width = max(1, CHUNK_VALUES // (cfg.synth_pool * lane.twin.dim))
        for lo in range(0, present.size, width):
            ids = present[lo:lo + width]
            uniforms = np.empty((ids.size, cfg.synth_pool))
            noise = np.empty((*uniforms.shape, lane.twin.dim))
            for i, c in enumerate(ids):
                srng = derive_rng(cfg.seed, run_idx, _Purpose.VALIDITY,
                                  n_eff + c)
                srng.random(out=uniforms[i])
                srng.standard_normal(out=noise[i])
            pool_scores[lo:lo + width] = lane.scorer.scores(sample_synthetic(
                lane.twin, ids, uniforms, noise), ids).reshape(ids.size, -1)
        val_scores = lane.scorer.scores(validation.rows(order).observed(),
                                        slot[order])
        pvals = proxy_pvalues(pool_scores, val_scores, cfg.plus_one,
                              np.repeat(np.arange(present.size),
                                        sizes[present]))
    gammas, ends = np.empty(n_eff), np.cumsum(sizes)
    for c in range(n_eff):
        if not sizes[c]:
            warnings.warn(f"no validation inliers for context {c}; "
                          "falling back to gamma = 0.5", stacklevel=2)
            gammas[c] = 0.5
            continue
        gammas[c] = gamma_of_context(
            positive_ecdf_gap(pvals[ends[c] - sizes[c]:ends[c]]), cfg.lam)
    return gammas


def _fit_group(cfg: RunConfig, group: Sequence[MethodVariant], run_idx: int,
               rundata: RunData) -> tuple[Imputer, list[_Lane]]:
    """The imputer of one run's split group, fit once, and its lanes in the
    order of their first methods.  Each fit runs when a method, in config
    order, first needs it, and a failing fit names that method."""
    imputer = Imputer.fit(rundata.score_train, rundata.kinds)
    score_train, twin_train, validation = (
        replace(rows, features=impute(imputer, rows.features))
        for rows in (rundata.score_train, rundata.twin_train,
                     rundata.validation))
    lanes: dict[bool, _Lane] = {}
    for method in group:
        aware, rule = method.context_aware, method.acquisition
        with _failing_as(cfg, method, run_idx):
            if aware not in lanes:
                lanes[aware] = _Lane(_fit_score_model(
                    cfg, aware, run_idx, score_train,
                    rundata.n_contexts if aware else 1))
            lane = lanes[aware]
            lane.methods[rule] = method
            if rule is None:
                lane.threshold = fit_fixed_threshold(lane.scorer, score_train,
                                                     cfg.alpha)
            if method.uses_twin and lane.twin is None:
                lane.twin = fit_twin(
                    twin_train, k=cfg.gmm_components, rng=derive_rng(
                        cfg.seed, run_idx, _Purpose.TWIN_FIT, 0),
                    n_contexts=lane.scorer.n_contexts, context_aware=aware)
            if rule == "active":
                lane.gammas = _calibrate_gammas(cfg, lane, run_idx,
                                                validation)
    return imputer, list(lanes.values())


# --- the run engine ---------------------------------------------------------

# Each array drawn or scored at once holds at most about this many values
# (512 KB of float64), however long the stream is.
CHUNK_VALUES = 2**16


def _score_batches(model: ScoreModel, batches: np.ndarray,
                   contexts: np.ndarray) -> np.ndarray:
    """Scores (k, m) of k batches (k, m, d), batch i of context contexts[i],
    with one ``scores`` call on their stacked rows.  A batch of a chunk is
    valid only until the next chunk is drawn: the scores are new arrays,
    and nothing may hold the batches past it."""
    k, m, d = batches.shape
    return model.scores(batches.reshape(k * m, d), contexts).reshape(k, m)


@dataclass(eq=False)
class _Chunk:
    """The stream arrays of the steps ``at`` that every method of a split
    group reads; None where no method of the group needs one.  The draws
    land in buffers held for the run, so a chunk's arrays are valid only
    until the next chunk is drawn, and nothing may hold them past it."""

    at: slice
    tests: np.ndarray             # (k, d) test points, masked, then filled
    uniforms: np.ndarray | None   # (k, n_tilde) twin component uniforms
    noise: np.ndarray | None      # (k, n_tilde, d) twin noise
    work: np.ndarray | None       # (2, k, n_tilde, d) a twin samples into
    acquire: np.ndarray | None    # (k,) acquisition uniforms
    real: np.ndarray | None       # (k, n, d) real batches, masked, filled


def _chunks(cfg: RunConfig, run_idx: int, rundata: RunData,
            methods: Sequence[MethodVariant], imputer: Imputer
            ) -> Iterator[_Chunk]:
    """Draw the stream of a split group chunk by chunk.

    Each stream-time generator is created once per run and yields one kind
    of draw in step order, so a step's values depend neither on the chunk
    size nor on which methods share the run.  Each kind of draw fills one
    buffer held for the run, so nothing outlives its chunk.
    """
    steps, dim = rundata.stream.features.shape
    uses_twin = any(m.uses_twin for m in methods)
    uses_real = any(m.uses_real for m in methods)

    def stream_rng(purpose: int, sub: int = 0) -> np.random.Generator:
        return derive_rng(cfg.seed, run_idx, purpose, sub)

    masked = cfg.q_miss > 0.0
    test_mask = stream_rng(_Purpose.MASK, 0) if masked else None
    real_mask = stream_rng(_Purpose.MASK, 1) if masked and uses_real else None
    comps = noise = acquire = None
    if uses_twin:
        comps = stream_rng(_Purpose.TWIN_SAMPLE, 0)
        noise = stream_rng(_Purpose.TWIN_SAMPLE, 1)
    if any(m.acquisition == "active" for m in methods):
        acquire = stream_rng(_Purpose.ACQUIRE)
    widest = max(rundata.n, rundata.n_tilde if uses_twin else 0, 1)
    chunk = max(1, CHUNK_VALUES // (widest * dim))
    rows = min(chunk, steps)
    if uses_twin:
        uniforms = np.empty((rows, rundata.n_tilde))
        twin_noise = np.empty((rows, rundata.n_tilde, dim))
        work = np.empty((2, *twin_noise.shape))
    if acquire is not None:
        acquired = np.empty(rows)
    for lo in range(0, steps, chunk):
        hi = min(steps, lo + chunk)
        x = rundata.stream.features[lo:hi]
        if test_mask is not None:
            x = apply_mcar_mask(x, cfg.q_miss, test_mask)
        real = None
        if uses_real:
            # drawn at every step, scored only where a method queries
            real = rundata.real_batches(lo, hi)
            if real_mask is not None:
                real = apply_mcar_mask(real, cfg.q_miss, real_mask)
            # CSV rows may hold missing values even at q_miss 0
            real = impute(imputer, real)
        k = hi - lo
        yield _Chunk(
            slice(lo, hi), impute(imputer, x),
            comps.random(out=uniforms[:k]) if uses_twin else None,
            noise.standard_normal(out=twin_noise[:k]) if uses_twin else None,
            work[:, :k] if uses_twin else None,
            None if acquire is None else acquire.random(out=acquired[:k]),
            real)


def _statistics(cfg: RunConfig, lane: _Lane, run_idx: int, rundata: RunData,
                chunk: _Chunk, runs: dict[MethodVariant, RunSteps]) -> None:
    """The statistic phase of one chunk for one lane: compute each array
    once -- test scores, FIXED's flags, proxy p-values q, the active
    method's queries u, real p-values p (of every batch when an "always"
    method reads them all, else of the batches bought) -- and write them
    into each method's ``RunSteps``, FIXED's flags as its decisions.  A
    failure names the first method, in config order, that reads the array
    being computed."""
    at, methods, model = chunk.at, lane.methods, lane.scorer

    def reading(*rules):
        return _failing_as(cfg, next(
            m for rule, m in methods.items() if rule in rules), run_idx)

    with reading(*methods):
        c = rundata.stream.context[at] if model.context_aware \
            else np.zeros(at.stop - at.start, dtype=int)
        s = _score_batches(model, chunk.tests[:, None], c)[:, 0]
    if None in methods:
        with reading(None):
            runs[methods[None]].decision[at] = lane.threshold.flag(s, c)
    if lane.twin is not None:
        with reading("never", "active"):
            q = conformal_pvalues(_score_batches(model, sample_synthetic(
                lane.twin, c, chunk.uniforms, chunk.noise,
                chunk.work).reshape(chunk.noise.shape), c), s, cfg.plus_one)
    if "active" in methods:
        with reading("active"):
            u = chunk.acquire < acquisition_probability(q, lane.gammas[c])
    p = np.full(s.size, np.nan)
    if "always" in methods or "active" in methods and u.any():
        bought = slice(None) if "always" in methods else u
        with reading("always", "active"):
            p[bought] = conformal_pvalues(_score_batches(
                model, chunk.real[bought], c[bought]), s[bought], cfg.plus_one)
    for rule, method in methods.items():
        out = runs[method]
        if rule == "never":
            out.q[at] = out.z[at] = q
        elif rule == "always":
            out.p[at] = out.z[at] = p
        elif rule == "active":
            out.q[at], out.u[at], out.p[at] = q, u, np.where(u, p, np.nan)
            with reading("active"):
                out.z[at] = active_pvalues(q, u, out.p[at], lane.gammas[c])


@dataclass(frozen=True, eq=False)
class RunSteps:
    """One run's per-step output as columns over its steps, NaN where a
    value is absent: FIXED tests raw scores, so its q, p, z and alpha_t
    are NaN and its u is 0."""

    context: np.ndarray
    q: np.ndarray
    u: np.ndarray         # 0/1 real batch bought
    p: np.ndarray
    z: np.ndarray
    alpha_t: np.ndarray
    decision: np.ndarray  # 0/1
    truth: np.ndarray     # 0/1


def _decide(cfg: RunConfig, method: MethodVariant,
            steps: RunSteps) -> RunTrace:
    """The decision phase: the threshold walk, the only part that reads
    past decisions, fills ``alpha_t`` and ``decision`` in place (FIXED's
    decisions are its flags already); then the metric trace."""
    if method is not MethodVariant.FIXED:
        steps.alpha_t[:], steps.decision[:] = fdr.threshold_walk(
            steps.z, cfg.alpha, cfg.delta, cfg.eta)
    return run_trace(steps.decision, steps.truth, steps.u, cfg.delta, cfg.eta)


class _RunFailure(RuntimeError):
    """A failed run, named by method, run index and master seed."""


@contextmanager
def _failing_as(cfg: RunConfig, method: MethodVariant, run_idx: int):
    """Name ``method`` and the run in a failure of the work inside, unless
    an inner block already named one."""
    try:
        yield
    except _RunFailure:
        raise
    except Exception as exc:
        raise _RunFailure(
            f"method {method.value}, run {run_idx} (master seed {cfg.seed}) "
            f"failed: {exc}") from exc


def _run_group(cfg: RunConfig, group: Sequence[MethodVariant], run_idx: int,
               rundata: RunData
               ) -> Iterator[tuple[MethodVariant, int, RunSteps, RunTrace]]:
    """One run of a split group: fit, run each lane's statistic phase over
    the shared chunks, then yield each method's decision phase as (method,
    run index, steps, trace), in group order."""
    imputer, lanes = _fit_group(cfg, group, run_idx, rundata)
    stream, nan = rundata.stream, np.full(len(rundata.stream), np.nan)
    runs = {method: RunSteps(
                stream.context, nan.copy(),
                np.full(len(stream), int(method.acquisition == "always")),
                nan.copy(), nan.copy(), nan.copy(),
                np.zeros(len(stream), dtype=int), stream.truth)
            for method in group}
    for chunk in _chunks(cfg, run_idx, rundata, group, imputer):
        for lane in lanes:
            _statistics(cfg, lane, run_idx, rundata, chunk, runs)
    del chunk  # so that no chunk outlives the statistic phase
    for method, steps in runs.items():
        with _failing_as(cfg, method, run_idx):
            trace = _decide(cfg, method, steps)
        yield method, run_idx, steps, trace


# --- orchestration and emission -----------------------------------------------


@dataclass(eq=False)
class MethodResult:
    runs: list[RunSteps]
    traces: list[RunTrace]
    summary: TraceSummary

    @property
    def records(self) -> list[tuple[int, StepRecord]]:
        """Every run's (run index, ``StepRecord``) rows, None where a column
        holds NaN; a view built from the columns on each access."""
        def optional(values):
            return [None if v != v else v for v in values.tolist()]
        return [(run_idx, StepRecord(t, *row))
                for run_idx, s in enumerate(self.runs)
                for t, row in enumerate(zip(
                    s.context.tolist(), optional(s.q), s.u.tolist(),
                    optional(s.p), optional(s.z), optional(s.alpha_t),
                    s.decision.tolist(), s.truth.tolist()), 1)]


@dataclass(eq=False)
class RunArtifacts:
    config: RunConfig
    per_method: dict[str, MethodResult]


def _warn_unreachable(cfg: RunConfig, n: int) -> None:
    # a real p-value is at least 1/(n+1); once zeta_t < 1 - delta, a
    # stream with no recent detection has threshold alpha*eta*(1-delta)
    if 1.0 / (n + 1) > cfg.alpha * cfg.eta * (1.0 - cfg.delta):
        warnings.warn(
            f"1/(n+1) > alpha*eta*(1-delta) with n = {n}, alpha = "
            f"{cfg.alpha}, eta = {cfg.eta}, delta = {cfg.delta}: real "
            f"p-values never reach the threshold floor, so a detection "
            f"needs zeta_t > 1 - delta or a recent detection",
            stacklevel=4)


def _iter_runs(cfg: RunConfig
               ) -> Iterator[tuple[MethodVariant, int, RunSteps, RunTrace]]:
    """Each finished run as (method, run index, steps, trace), run-major,
    each split group's methods in config order; a run is built when it is
    asked for.  Warns once per batch size n with which a method that uses
    real batches cannot reach the threshold floor; n is its split's.
    """
    cfg.validate()
    dataset = _load_dataset(cfg) if cfg.dataset == "csv" else None
    groups: dict[str | None, list[MethodVariant]] = {}
    for method in map(MethodVariant, dict.fromkeys(cfg.methods)):
        kind = None if dataset is None else method.split_kind
        groups.setdefault(kind, []).append(method)
    checked_n: set[int] = set()
    for run_idx in range(cfg.runs):
        for kind, group in groups.items():
            with _failing_as(cfg, group[0], run_idx):
                if dataset is None:
                    rundata = gaussian_synthetic_stream(cfg, group, run_idx)
                else:
                    rundata = table_run(cfg, kind, run_idx, dataset)
                for method in group:
                    if method.uses_real and rundata.n not in checked_n:
                        checked_n.add(rundata.n)
                        _warn_unreachable(cfg, rundata.n)
                yield from _run_group(cfg, group, run_idx, rundata)


def run_benchmark(cfg: RunConfig) -> RunArtifacts:
    """Execute every configured method over `runs` seeded replicates by
    collecting the ``_iter_runs`` stream per method, in config order.  A
    failure names the method, the run and the master seed; one in a group's
    shared data names the group's first method in config order.
    """
    collected = {MethodVariant(name): ([], []) for name in cfg.methods}
    for method, _, steps, trace in _iter_runs(cfg):
        collected[method][0].append(steps)
        collected[method][1].append(trace)
    return RunArtifacts(cfg, {
        method.value: MethodResult(runs, traces, aggregate(traces))
        for method, (runs, traces) in collected.items()})


STEP_HEADER = "run,t,context,method,q,u,p,z,alpha_t,decision,truth"
AGG_HEADER = "t,method,sfdr_mean,sfdr_se,power_mean,power_se,cdar_mean,cdar_se"
# steps.csv and aggregate.csv are formatted and written this many rows at a
# time, so emission holds one block of text however long the runs are.
EMIT_ROWS = 2**10


def _text(values: np.ndarray) -> Iterator[str]:
    """Integers as integers, floats with 17 significant digits, NaN empty."""
    if values.dtype.kind != "f":
        return map(str, values.tolist())
    return ("" if v != v else f"{v:.17g}" for v in values.tolist())


def _blocks(*columns: np.ndarray) -> Iterator[Iterator[tuple]]:
    """Rows (t, text of each column...) of equal-length columns, one
    EMIT_ROWS block at a time; t counts from 1."""
    size = columns[0].size
    for lo in range(0, size, EMIT_ROWS):
        hi = min(size, lo + EMIT_ROWS)
        yield zip(range(lo + 1, hi + 1), *(_text(c[lo:hi]) for c in columns))


def emit(artifacts: RunArtifacts, out_dir) -> dict[str, Path]:
    """Write per-step CSV, aggregate CSV, summary JSON, and the config echo.

    Re-running with the same resolved config reproduces the CSV bodies
    byte for byte.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = artifacts.config

    steps_path = out / "steps.csv"
    with steps_path.open("w", encoding="utf-8") as file:
        file.write(STEP_HEADER + "\n")
        for name, result in artifacts.per_method.items():
            for run_idx, s in enumerate(result.runs):
                for rows in _blocks(s.context, s.q, s.u, s.p, s.z, s.alpha_t,
                                    s.decision, s.truth):
                    file.write("".join(
                        f"{run_idx},{t},{c},{name},{','.join(rest)}\n"
                        for t, c, *rest in rows))

    agg_path = out / "aggregate.csv"
    with agg_path.open("w", encoding="utf-8") as file:
        file.write(AGG_HEADER + "\n")
        for name, result in artifacts.per_method.items():
            s = result.summary
            for rows in _blocks(s.sfdr_mean, s.sfdr_se, s.power_mean,
                                s.power_se, s.cdar_mean, s.cdar_se):
                file.write("".join(f"{t},{name},{','.join(rest)}\n"
                                   for t, *rest in rows))

    summary = {"config": cfg.resolved(), "per_method": {}}
    for name, result in artifacts.per_method.items():
        s = result.summary
        summary["per_method"][name] = {
            "final_sfdr": float(s.sfdr_mean[-1]),
            "final_power": float(s.power_mean[-1]),
            "final_cdar": float(s.cdar_mean[-1]),
            "sfdr_controlled": bool(np.max(s.sfdr_mean) <= cfg.alpha),
            "max_sfdr_t": float(np.max(s.sfdr_mean)),
        }
    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")

    config_path = out / "config.txt"
    config_path.write_text(
        "".join(f"{k} = {v}\n" for k, v in sorted(cfg.resolved().items())),
        encoding="utf-8")

    return {"steps": steps_path, "aggregate": agg_path,
            "summary": summary_path, "config": config_path}
