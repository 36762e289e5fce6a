"""Benchmark harness: method variants, run configuration, seeded execution,
and artifact emission.

Every source of randomness flows through generators derived from one master
seed via counter-based spawn keys (run index, purpose tag, sub-stream).  A
stream-time generator yields one kind of draw in step order, so replays are
exact, a step's draws do not depend on how a run is chunked, and they do not
shift when a method skips a query.

The benchmark runs run-major.  A run's methods form split groups (all of
them on the Gaussian oracle, the methods of one split kind on a table).  A
group builds its data once, fits each model once per distinct input -- the
imputer once, a score model and a generator once per context awareness --
and draws its stream once, chunk by chunk; every method of the group reads
those shared arrays in lock-step.  Since each shared object is a function
of (seed, run, purpose, sub-stream) alone, a method's outputs do not depend
on which methods share its runs.

A run has two phases.  No step's statistic -- proxy p-value, acquisition
draw, real p-value, test statistic -- reads the detector's past, so the
statistic phase computes them for a chunk of steps at a time with numpy.
The decision phase then walks the statistics through the threshold
schedule, one vector compare per stretch between detections, and folds the
decisions into the run's metric trace.
"""

from __future__ import annotations

import json
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from . import fdr
from .conformal import (GAMMA_MAX, acquisition_probability, active_pvalues,
                        conformal_pvalues)
from .core import Observation, features_matrix
from .data import (DatasetSchema, Imputer, SplitPlan, apply_mcar_mask,
                   build_stream, impute, load_csv, make_splits, parse_kv_file)
# The run engine calls ``fdr.threshold_walk``, not the single-step ``step``;
# the name stays because perfbench/spans.py patches it here.
from .fdr import StepRecord, step  # noqa: F401
from .metrics import RunTrace, TraceSummary, aggregate, run_trace
from .oran import generate_oran, samples_to_observations
from .scoring import (QuantileThreshold, ScoreModel, fit_density_score,
                      fit_fixed_threshold, fit_kmeans_score,
                      fit_supervised_score, lower_quantile)
from .twin import (TwinModel, ValidityReport, fit_twin, gamma_of_context,
                   positive_ecdf_gap, proxy_pvalues, sample_synthetic)

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
DATASETS = ("csv", "oran", "gaussian")


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
    # oran dataset
    oran_samples: int = 10000
    oran_anomaly_frac: float = 0.1
    oran_xapps: int = 10
    oran_params: int = 15
    oran_kpis: int = 5
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
        for name in self.methods:
            MethodVariant(name)  # raises on unknown names
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
        if self.gamma_override is not None and \
                not 0.0 < self.gamma_override <= GAMMA_MAX:
            raise ValueError(f"gamma_override must lie in (0, {GAMMA_MAX}]")
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


def load_config(path) -> RunConfig:
    return config_from(parse_kv_file(path))


# --- per-run data assembly ---------------------------------------------------


@dataclass(eq=False)
class RunData:
    """One run's training sets and its stream, as arrays over the steps.

    ``tests`` holds the test feature vectors, NaN where a value is missing.
    ``real_batches(lo, hi)`` returns the (hi - lo, n, d) real calibration
    batches of steps lo..hi-1 (0-based); call it once per chunk, in step
    order, since the Gaussian oracle draws them as it goes.  It is None when
    the run serves no real batches.
    """

    score_train: list[Observation]
    twin_train: list[Observation]
    validation: list[Observation]
    tests: np.ndarray      # (steps, d)
    contexts: np.ndarray   # (steps,) context of each test point
    truth: np.ndarray      # (steps,) 0/1 anomaly label of each test point
    real_batches: Callable[[int, int], np.ndarray] | None
    n_contexts: int
    kinds: tuple[str, ...]
    n: int
    n_tilde: int


@dataclass(frozen=True, eq=False)
class GaussianOracle:
    """Known per-context nominal law: unit-variance Gaussians on a mean grid.

    Anomalies are mean-shifted; the generator-training law may be perturbed
    (variance scale, mean shift) to emulate sim-to-real mismatch.
    """

    means: np.ndarray  # (C, d)
    anomaly_shift: float
    twin_var_scale: float
    twin_mean_shift: float

    @classmethod
    def from_config(cls, cfg: RunConfig) -> "GaussianOracle":
        means = (np.arange(cfg.contexts)[:, None]
                 * cfg.context_spread * np.ones(cfg.dim)[None, :])
        return cls(means, cfg.anomaly_shift, cfg.twin_var_scale,
                   cfg.twin_mean_shift)

    def sample_nominal(self, context: int, size: int,
                       rng: np.random.Generator) -> np.ndarray:
        return self.means[context] + rng.standard_normal((size, self.means.shape[1]))

    def sample_anomaly(self, context: int, size: int,
                       rng: np.random.Generator) -> np.ndarray:
        return (self.means[context] + self.anomaly_shift
                + rng.standard_normal((size, self.means.shape[1])))

    def sample_twin_law(self, context: int, size: int,
                        rng: np.random.Generator) -> np.ndarray:
        scale = np.sqrt(self.twin_var_scale)
        return (self.means[context] + self.twin_mean_shift
                + scale * rng.standard_normal((size, self.means.shape[1])))


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
    """
    oracle = GaussianOracle.from_config(cfg)
    contexts = cfg.contexts
    n = cfg.n if cfg.n is not None else 200
    n_tilde = cfg.n_tilde if cfg.n_tilde is not None else n

    data_rng = derive_rng(cfg.seed, run_idx, _Purpose.DATA, 0)
    no_missing = np.zeros(cfg.dim, bool)  # the mask of every row
    score_train: list[Observation] = []
    per_ctx = max(2, cfg.score_train_size // contexts)
    for c in range(contexts):
        k_anom = max(1, round(per_ctx * cfg.anomaly_rate))
        for x in oracle.sample_nominal(c, per_ctx - k_anom, data_rng):
            score_train.append(Observation(x, no_missing, c, 0))
        for x in oracle.sample_anomaly(c, k_anom, data_rng):
            score_train.append(Observation(x, no_missing, c, 1))

    twin_train: list[Observation] = []
    if any(m.uses_twin for m in methods):
        per_ctx_twin = cfg.twin_train_size // contexts
        for c in range(contexts):
            for x in oracle.sample_twin_law(c, per_ctx_twin, data_rng):
                twin_train.append(Observation(x, no_missing, c, 0))

    validation: list[Observation] = []
    if cfg.gamma_override is None and \
            any(m.acquisition == "active" for m in methods):
        for c in range(contexts):
            vrng = derive_rng(cfg.seed, run_idx, _Purpose.VALIDATION, c)
            for x in oracle.sample_nominal(c, cfg.val_size, vrng):
                validation.append(Observation(x, no_missing, c, 0))

    def stream_rng(sub: int) -> np.random.Generator:
        return derive_rng(cfg.seed, run_idx, _Purpose.TEST_POINT, sub)

    ctx = stream_rng(0).integers(contexts, size=cfg.steps)
    truth = (stream_rng(1).random(cfg.steps) < cfg.anomaly_rate).astype(int)
    tests = (oracle.means[ctx] + oracle.anomaly_shift * truth[:, None]
             + stream_rng(2).standard_normal((cfg.steps, cfg.dim)))

    real_batches = None
    if any(m.uses_real for m in methods):
        real_rng = derive_rng(cfg.seed, run_idx, _Purpose.REAL_CAL, 0)

        def real_batches(lo: int, hi: int) -> np.ndarray:
            return (oracle.means[ctx[lo:hi], None, :]
                    + real_rng.standard_normal((hi - lo, n, cfg.dim)))

    return RunData(score_train=score_train, twin_train=twin_train,
                   validation=validation, tests=tests, contexts=ctx,
                   truth=truth, real_batches=real_batches,
                   n_contexts=contexts, kinds=("continuous",) * cfg.dim,
                   n=n, n_tilde=n_tilde)


@dataclass(eq=False)
class _Table:
    """Dataset shared by all runs: rows plus context metadata."""

    rows: list[Observation]
    kinds: tuple[str, ...]
    n_contexts: int
    activity_weights: np.ndarray | None = None  # set for the oran dataset


def _load_table(cfg: RunConfig) -> _Table:
    if cfg.dataset == "csv":
        schema = DatasetSchema.from_file(cfg.schema_path)
        rows = load_csv(cfg.csv_path, schema)
        if not rows:
            raise ValueError(f"{cfg.csv_path}: no rows")
        return _Table(rows, schema.kinds, schema.n_contexts)
    graph_seed = int(derive_rng(cfg.seed, _Purpose.DATA, 1).integers(2**63))
    sample_seed = int(derive_rng(cfg.seed, _Purpose.DATA, 2).integers(2**63))
    graph, samples = generate_oran(
        graph_seed, sample_seed, cfg.oran_samples, cfg.oran_anomaly_frac,
        cfg.oran_xapps, cfg.oran_params, cfg.oran_kpis)
    rows = samples_to_observations(samples)
    weights = np.zeros(rows[0].dim)
    weights[:graph.n_xapps] = graph.out_degrees
    kinds = ("categorical",) * rows[0].dim
    return _Table(rows, kinds, 4, activity_weights=weights)


def _activity_context(features: np.ndarray, weights, boundaries) -> np.ndarray:
    """Context of each row of ``features``: the boundaries at or below its
    activity."""
    acts = features @ weights
    return (acts[:, None] >= np.asarray(boundaries)[None, :]).sum(axis=1)


def _rebin_by_activity(rows, weights, boundaries) -> list[Observation]:
    if not rows:
        return []
    contexts = _activity_context(np.stack([o.features for o in rows]),
                                 weights, boundaries)
    return [Observation(o.features, o.mask, int(c), o.truth)
            for o, c in zip(rows, contexts)]


def table_run(cfg: RunConfig, split_kind: str, run_idx: int,
              table: _Table) -> RunData:
    """Per-run data from a finite dataset via the split protocol, for the
    methods whose split is ``split_kind``."""
    plan = SplitPlan(kind=split_kind, n_per_step=cfg.n,
                     test_reserve=cfg.steps)
    rng = derive_rng(cfg.seed, run_idx, _Purpose.SPLITS, 0)
    splits = make_splits(table.rows, plan, cfg.steps, rng)
    items = build_stream(splits, cfg.steps, rng, cfg.anomaly_rate)
    tests = np.stack([item.test.features for item in items])
    contexts = np.array([item.test.context for item in items])
    truth = np.array([item.test.truth for item in items])

    score_train = list(splits.score_train)
    twin_train = list(splits.twin_train)
    n_contexts = table.n_contexts
    if table.activity_weights is not None:
        # context bins come from this run's training portion; boundaries that
        # collide with each other or the training minimum would leave a bin
        # empty (activity is atomic), so they are dropped
        acts = [float(o.features @ table.activity_weights) for o in score_train]
        quartiles = (lower_quantile(acts, q) for q in (0.25, 0.5, 0.75))
        boundaries = tuple(sorted({b for b in quartiles if b > min(acts)}))
        n_contexts = len(boundaries) + 1
        score_train = _rebin_by_activity(score_train, table.activity_weights,
                                         boundaries)
        twin_train = _rebin_by_activity(twin_train, table.activity_weights,
                                        boundaries)
        contexts = _activity_context(tests, table.activity_weights, boundaries)

    validation: list[Observation] = []
    if split_kind == "prediction_powered" and cfg.gamma_override is None:
        carve = round(0.2 * len(score_train))
        validation = [o for o in score_train[:carve] if o.truth != 1]
        score_train = score_train[carve:]

    if cfg.n_tilde is not None:
        n_tilde = cfg.n_tilde
    elif splits.n > 0:
        n_tilde = splits.n
    else:
        # generator-only split: match the batch a generator-backed split
        # would have served (its calibration share is half the twin part)
        n_tilde = max(1, len(twin_train) // 2 // cfg.steps)

    real_batches = None
    if splits.n > 0:
        # the fresh per-step batches are consecutive slices of the part
        n, part = splits.n, splits.calibration

        def real_batches(lo: int, hi: int) -> np.ndarray:
            rows = part[lo * n:hi * n]
            return np.stack([o.features for o in rows]).reshape(
                hi - lo, n, tests.shape[1])

    return RunData(score_train=score_train, twin_train=twin_train,
                   validation=validation, tests=tests, contexts=contexts,
                   truth=truth, real_batches=real_batches,
                   n_contexts=n_contexts, kinds=table.kinds,
                   n=splits.n, n_tilde=n_tilde)


# --- model fitting ----------------------------------------------------------


def _to_context0(rows) -> list[Observation]:
    return [Observation(o.features, o.mask, 0, o.truth) for o in rows]


def _fit_score_model(cfg: RunConfig, aware: bool, run_idx: int,
                     train, n_contexts: int) -> ScoreModel:
    if cfg.score == "supervised":
        return fit_supervised_score(train, n_contexts=n_contexts,
                                    context_aware=aware)
    if cfg.score == "unsupervised":
        rng = derive_rng(cfg.seed, run_idx, _Purpose.SCORE_FIT, 0)
        return fit_kmeans_score(train, k=cfg.kmeans_k, rng=rng,
                                n_contexts=n_contexts, context_aware=aware)
    inliers = [o for o in train if o.truth != 1]
    return fit_density_score(inliers, n_contexts=n_contexts,
                             context_aware=aware)


def _calibrate_gammas(cfg: RunConfig, method: MethodVariant, run_idx: int,
                      n_eff: int, score_model: ScoreModel,
                      twin_model: TwinModel | None, validation
                      ) -> tuple[np.ndarray, ValidityReport | None]:
    if cfg.gamma_override is not None:
        return np.full(n_eff, cfg.gamma_override), None
    if method.acquisition != "active":
        return np.full(n_eff, GAMMA_MAX), None
    gaps, gammas, pools = [], [], []
    for c in range(n_eff):
        members = [o for o in validation
                   if (o.context if method.context_aware else 0) == c]
        if not members:
            warnings.warn(f"no validation inliers for context {c}; "
                          "falling back to gamma = 0.5", stacklevel=2)
            gaps.append(float("nan"))
            gammas.append(0.5)
            pools.append(np.array([]))
            continue
        srng = derive_rng(cfg.seed, run_idx, _Purpose.VALIDITY, n_eff + c)
        uniforms = srng.random((1, cfg.synth_pool))
        noise = srng.standard_normal((1, cfg.synth_pool, twin_model.dim))
        synth = sample_synthetic(twin_model, c, uniforms, noise)
        synth_scores = score_model.scores(synth, c)
        val_scores = score_model.scores(features_matrix(members), c)
        pvals = proxy_pvalues(synth_scores, val_scores, cfg.plus_one)
        gap = positive_ecdf_gap(pvals)
        gaps.append(gap)
        gammas.append(gamma_of_context(gap, cfg.lam))
        pools.append(pvals)
    report = ValidityReport(tuple(gaps), tuple(gammas), tuple(pools), cfg.lam)
    return np.asarray(gammas), report


def _impute_rows(imputer: Imputer, rows) -> list[Observation]:
    """``impute`` every row that has a missing value."""
    if not rows:
        return []
    masked = np.stack([o.mask for o in rows]).any(axis=1)
    return [impute(imputer, o) if m else o for o, m in zip(rows, masked)]


@dataclass(eq=False)
class _FittedRun:
    """What one method fits before its stream starts."""

    imputer: Imputer
    score_model: ScoreModel
    threshold: QuantileThreshold | None  # FIXED only
    twin_model: TwinModel | None
    gammas: np.ndarray  # (n_eff,) per effective context


class _RunFits:
    """The fits of one run's split group, each made once.

    The imputer and the imputed rows depend only on the group's data and
    are made with the object.  A score model and a generator also depend on
    context awareness; each is fit when the first method that needs it
    asks.  FIXED's threshold and the gammas are fit per method, by ``fit``.
    """

    def __init__(self, cfg: RunConfig, run_idx: int, rundata: RunData):
        self.cfg, self.run_idx, self.rundata = cfg, run_idx, rundata
        self.imputer = Imputer.fit(rundata.score_train, rundata.kinds)
        self.score_train = _impute_rows(self.imputer, rundata.score_train)
        self.twin_rows = _impute_rows(self.imputer, rundata.twin_train)
        self.validation = _impute_rows(self.imputer, rundata.validation)
        self._score_models: dict[bool, ScoreModel] = {}
        self._twin_models: dict[bool, TwinModel] = {}

    def _n_eff(self, aware: bool) -> int:
        return self.rundata.n_contexts if aware else 1

    def score_model(self, aware: bool) -> ScoreModel:
        if aware not in self._score_models:
            self._score_models[aware] = _fit_score_model(
                self.cfg, aware, self.run_idx, self.score_train,
                self._n_eff(aware))
        return self._score_models[aware]

    def twin_model(self, aware: bool) -> TwinModel:
        if aware not in self._twin_models:
            rows = self.twin_rows if aware else _to_context0(self.twin_rows)
            self._twin_models[aware] = fit_twin(
                rows, k=self.cfg.gmm_components,
                rng=derive_rng(self.cfg.seed, self.run_idx,
                               _Purpose.TWIN_FIT, 0),
                n_contexts=self._n_eff(aware))
        return self._twin_models[aware]

    def fit(self, method: MethodVariant) -> _FittedRun:
        """The imputer, score model, FIXED's threshold, the generator and
        the per-context trust that ``method`` runs with."""
        aware = method.context_aware
        score_model = self.score_model(aware)
        threshold = None
        if method is MethodVariant.FIXED:
            threshold = fit_fixed_threshold(score_model, self.score_train,
                                            self.cfg.alpha)
        twin_model = self.twin_model(aware) if method.uses_twin else None
        gammas, _report = _calibrate_gammas(
            self.cfg, method, self.run_idx, self._n_eff(aware), score_model,
            twin_model, self.validation)
        return _FittedRun(self.imputer, score_model, threshold, twin_model,
                          gammas)


# --- the run engine ---------------------------------------------------------

# Each array drawn or scored at once holds at most about this many values
# (512 KB of float64), however long the stream is.
CHUNK_VALUES = 2**16


def _fill_missing(matrix: np.ndarray, imputer: Imputer) -> np.ndarray:
    holes = np.isnan(matrix)
    if not holes.any():
        return matrix
    filled = matrix.copy()
    filled[holes] = np.broadcast_to(imputer.fill_values, matrix.shape)[holes]
    return filled


def _score_batches(model: ScoreModel, batches: np.ndarray,
                   contexts: np.ndarray) -> np.ndarray:
    """Scores (k, m) of k batches (k, m, d), batch i of context contexts[i],
    with one ``scores`` call per context on that context's stacked rows."""
    k, m, d = batches.shape
    out = np.empty((k, m))
    for c in np.unique(contexts):
        at = contexts == c
        if at.all():
            out[:] = model.scores(batches.reshape(k * m, d),
                                  int(c)).reshape(k, m)
        else:
            rows = batches[at].reshape(-1, d)
            out[at] = model.scores(rows, int(c)).reshape(-1, m)
    return out


@dataclass(eq=False)
class _Chunk:
    """The stream arrays of the steps ``at`` that every method of a split
    group reads; None where no method of the group needs one."""

    at: slice
    tests: np.ndarray             # (k, d) test points, masked, then filled
    uniforms: np.ndarray | None   # (k, n_tilde) twin component uniforms
    noise: np.ndarray | None      # (k, n_tilde, d) twin noise
    acquire: np.ndarray | None    # (k,) acquisition uniforms
    real: np.ndarray | None       # (k, n, d) real batches, masked


def _chunks(cfg: RunConfig, run_idx: int, rundata: RunData,
            methods: Sequence[MethodVariant], imputer: Imputer
            ) -> Iterator[_Chunk]:
    """Draw the stream of a split group chunk by chunk.

    Each stream-time generator is created once per run and yields one kind
    of draw in step order, so a step's values depend neither on the chunk
    size nor on which methods share the run.  Nothing outlives its chunk.
    """
    steps, dim = rundata.tests.shape
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
    for lo in range(0, steps, chunk):
        hi = min(steps, lo + chunk)
        x = rundata.tests[lo:hi]
        if test_mask is not None:
            x = apply_mcar_mask(x, cfg.q_miss, test_mask)
        real = None
        if uses_real:
            # drawn at every step, scored only where a method queries
            real = rundata.real_batches(lo, hi)
            if real_mask is not None:
                real = apply_mcar_mask(real, cfg.q_miss, real_mask)
        uniforms = twin_noise = None
        if uses_twin:
            uniforms = comps.random((hi - lo, rundata.n_tilde))
            twin_noise = noise.standard_normal((hi - lo, rundata.n_tilde, dim))
        yield _Chunk(slice(lo, hi), _fill_missing(x, imputer), uniforms,
                     twin_noise,
                     None if acquire is None else acquire.random(hi - lo),
                     real)


def _statistics(cfg: RunConfig, method: MethodVariant, fitted: _FittedRun,
                rundata: RunData, chunk: _Chunk, columns) -> None:
    """The statistic phase of one chunk for one method: write each step's
    (q, u, p, z) into ``columns``, NaN where a value does not apply, or
    FIXED's score-above-threshold flags as z.

    No step's statistic reads the detector's past, so a chunk of steps is
    computed at once, from the arrays the chunk shares.
    """
    q, u, p, z = columns
    at, rule, model = chunk.at, method.acquisition, fitted.score_model
    c = rundata.contexts[at] if method.context_aware \
        else np.zeros(at.stop - at.start, dtype=int)
    s = _score_batches(model, chunk.tests[:, None], c)[:, 0]
    if rule is None:
        z[at] = fitted.threshold.flag(s, c)
        return
    if method.uses_twin:
        synth = sample_synthetic(fitted.twin_model, c, chunk.uniforms,
                                 chunk.noise)
        q[at] = conformal_pvalues(_score_batches(
            model, synth.reshape(c.size, -1, chunk.tests.shape[1]), c),
            s, cfg.plus_one)
    if rule == "active":
        u[at] = chunk.acquire < \
            acquisition_probability(q[at], fitted.gammas[c])
    if method.uses_real:
        queried = u[at]
        if queried.any():
            p[at][queried] = conformal_pvalues(_score_batches(
                model, _fill_missing(chunk.real[queried], fitted.imputer),
                c[queried]), s[queried], cfg.plus_one)
    z[at] = active_pvalues(q[at], u[at], p[at], fitted.gammas[c]) \
        if rule == "active" else (p[at] if rule == "always" else q[at])


def _optional(values: np.ndarray) -> list[float | None]:
    return [None if v != v else v for v in values.tolist()]  # NaN: absent


def _decide(cfg: RunConfig, method: MethodVariant, rundata: RunData,
            q, u, p, z) -> tuple[list[StepRecord], RunTrace]:
    """The decision phase: the threshold walk over the run's statistics,
    the only part that reads past decisions, then the metric trace."""
    steps = z.size
    if method is MethodVariant.FIXED:  # z holds the score-above flags
        decisions, acquired = z.astype(int), np.zeros(steps, dtype=int)
        qs = ps = zs = thresholds = [None] * steps
    else:
        alpha_t, decisions = fdr.threshold_walk(z, cfg.alpha, cfg.delta,
                                                cfg.eta)
        acquired = u.astype(int)
        qs, ps, zs, thresholds = (_optional(q), _optional(p), z.tolist(),
                                  alpha_t.tolist())
    columns = zip(rundata.contexts.tolist(), qs, acquired.tolist(), ps, zs,
                  thresholds, decisions.tolist(), rundata.truth.tolist())
    records = [StepRecord(t, *row) for t, row in enumerate(columns, 1)]
    return records, run_trace(decisions, rundata.truth, acquired, cfg.delta,
                              cfg.eta)


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
               ) -> dict[MethodVariant, tuple[list[StepRecord], RunTrace]]:
    """One run of a split group: fit, run every method's statistic phase
    in lock-step over the shared chunks, then each decision phase.

    Shared work that fails names the first method that needed it.
    """
    fits = _RunFits(cfg, run_idx, rundata)
    fitted: dict[MethodVariant, _FittedRun] = {}
    for method in group:
        with _failing_as(cfg, method, run_idx):
            fitted[method] = fits.fit(method)
    steps = rundata.tests.shape[0]
    columns = {method: (np.full(steps, np.nan),
                        np.full(steps, method.acquisition == "always"),
                        np.full(steps, np.nan), np.full(steps, np.nan))
               for method in group}
    for chunk in _chunks(cfg, run_idx, rundata, group, fits.imputer):
        for method in group:
            with _failing_as(cfg, method, run_idx):
                _statistics(cfg, method, fitted[method], rundata, chunk,
                            columns[method])
    del chunk  # so that no chunk outlives the statistic phase
    results = {}
    for method in group:
        with _failing_as(cfg, method, run_idx):
            results[method] = _decide(cfg, method, rundata, *columns[method])
    return results


# --- orchestration and emission -----------------------------------------------


@dataclass(eq=False)
class MethodResult:
    records: list[tuple[int, StepRecord]]
    traces: list[RunTrace]
    summary: TraceSummary


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
            stacklevel=3)


def run_benchmark(cfg: RunConfig) -> RunArtifacts:
    """Execute every configured method over `runs` seeded replicates.

    Run-major: each run builds its data once per split group (every method
    on the Gaussian oracle, the methods of one split kind on a table), and
    the group's methods share its fits and stream draws.  A method's
    records do not depend on which methods share its runs.  A failure
    names the method, the run and the master seed; one in the group's
    data names the group's first method in config order.

    Warns once per batch size n with which a method that uses real batches
    cannot reach the threshold floor; n is the one its split serves.
    """
    cfg.validate()
    table = _load_table(cfg) if cfg.dataset in ("csv", "oran") else None
    methods = [MethodVariant(name) for name in dict.fromkeys(cfg.methods)]
    groups: dict[str | None, list[MethodVariant]] = {}
    for method in methods:
        kind = None if table is None else method.split_kind
        groups.setdefault(kind, []).append(method)
    checked_n: set[int] = set()
    records = {method: [] for method in methods}
    traces = {method: [] for method in methods}
    for run_idx in range(cfg.runs):
        for kind, group in groups.items():
            with _failing_as(cfg, group[0], run_idx):
                if table is None:
                    rundata = gaussian_synthetic_stream(cfg, group, run_idx)
                else:
                    rundata = table_run(cfg, kind, run_idx, table)
                for method in group:
                    if method.uses_real and rundata.n not in checked_n:
                        checked_n.add(rundata.n)
                        _warn_unreachable(cfg, rundata.n)
                results = _run_group(cfg, group, run_idx, rundata)
            for method, (recs, trace) in results.items():
                records[method].extend((run_idx, rec) for rec in recs)
                traces[method].append(trace)
    per_method = {
        method.value: MethodResult(records[method], traces[method],
                                   aggregate(traces[method]))
        for method in methods}
    return RunArtifacts(cfg, per_method)


def _fmt(value) -> str:
    return "" if value is None else f"{value:.17g}"


STEP_HEADER = "run,t,context,method,q,u,p,z,alpha_t,decision,truth"
AGG_HEADER = "t,method,sfdr_mean,sfdr_se,power_mean,power_se,cdar_mean,cdar_se"


def emit(artifacts: RunArtifacts, out_dir) -> dict[str, Path]:
    """Write per-step CSV, aggregate CSV, summary JSON, and the config echo.

    Re-running with the same resolved config reproduces the CSV bodies
    byte for byte.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = artifacts.config

    step_lines = [STEP_HEADER]
    for name, result in artifacts.per_method.items():
        for run_idx, rec in result.records:
            step_lines.append(",".join([
                str(run_idx), str(rec.t), str(rec.context), name,
                _fmt(rec.q), str(rec.u), _fmt(rec.p), _fmt(rec.z),
                _fmt(rec.alpha_t), str(rec.decision),
                "" if rec.truth is None else str(rec.truth),
            ]))
    steps_path = out / "steps.csv"
    steps_path.write_text("\n".join(step_lines) + "\n", encoding="utf-8")

    agg_lines = [AGG_HEADER]
    for name, result in artifacts.per_method.items():
        s = result.summary
        for i in range(s.sfdr_mean.size):
            agg_lines.append(",".join([
                str(i + 1), name,
                _fmt(s.sfdr_mean[i]), _fmt(s.sfdr_se[i]),
                _fmt(s.power_mean[i]), _fmt(s.power_se[i]),
                _fmt(s.cdar_mean[i]), _fmt(s.cdar_se[i]),
            ]))
    agg_path = out / "aggregate.csv"
    agg_path.write_text("\n".join(agg_lines) + "\n", encoding="utf-8")

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
