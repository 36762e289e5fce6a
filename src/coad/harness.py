"""Benchmark harness: method variants, run configuration, seeded execution,
and artifact emission.

Every source of randomness flows through generators derived from one master
seed via counter-based spawn keys (run index, purpose tag, and -- for
stream-time draws -- the timestep), so replays are exact and per-step draws
do not shift when a method skips a query.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Callable

import numpy as np

from .conformal import GAMMA_MAX
from .core import Observation
from .data import (DatasetSchema, Imputer, SplitPlan, StreamItem,
                   apply_mcar_mask, build_stream, impute, load_csv,
                   make_splits, parse_kv_file)
from .fdr import DetectorState, StepRecord, step
from .metrics import MetricsTracker, RunTrace, TraceSummary, aggregate
from .oran import generate_oran, samples_to_observations
from .scoring import (ScoreModel, fit_density_score, fit_fixed_threshold,
                      fit_kmeans_score, fit_supervised_score, lower_quantile)
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
    VALIDITY = 4
    TEST_POINT = 5
    TWIN_SAMPLE = 6
    REAL_CAL = 7
    ACQUIRE = 8
    MASK = 9


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
        # a real p-value is at least 1/(n+1); once zeta_t < 1 - delta, a
        # stream with no recent detection has threshold alpha*eta*(1-delta)
        n = _resolved_n(self) if self.dataset == "gaussian" else self.n
        uses_real = any(MethodVariant(m).acquisition in ("always", "active")
                        for m in self.methods)
        if uses_real and n is not None and \
                1.0 / (n + 1) > self.alpha * self.eta * (1.0 - self.delta):
            warnings.warn(
                f"1/(n+1) > alpha*eta*(1-delta) with n = {n}, alpha = "
                f"{self.alpha}, eta = {self.eta}, delta = {self.delta}: real "
                f"p-values never reach the threshold floor, so a detection "
                f"needs zeta_t > 1 - delta or a recent detection",
                stacklevel=2)

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
class HarnessStep:
    test: Observation
    real_features: Callable[[], np.ndarray] | None


@dataclass(eq=False)
class RunData:
    score_train: list[Observation]
    twin_train: list[Observation]
    validation: list[Observation]
    stream: list[HarnessStep]
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


def _resolved_n(cfg: RunConfig) -> int:
    return cfg.n if cfg.n is not None else 200


def gaussian_synthetic_stream(cfg: RunConfig, method: MethodVariant,
                              run_idx: int) -> RunData:
    """Per-run data from the Gaussian oracle: labeled stream, training sets,
    and lazily drawn fresh real calibration batches with a known nominal law.

    Stream-time draws are keyed by timestep, so identically seeded runs see
    identical batches regardless of which steps actually query real data.
    """
    oracle = GaussianOracle.from_config(cfg)
    contexts = cfg.contexts
    n = _resolved_n(cfg)
    n_tilde = cfg.n_tilde if cfg.n_tilde is not None else n

    data_rng = derive_rng(cfg.seed, run_idx, _Purpose.DATA, 0)
    score_train: list[Observation] = []
    per_ctx = max(2, cfg.score_train_size // contexts)
    for c in range(contexts):
        k_anom = max(1, round(per_ctx * cfg.anomaly_rate))
        for x in oracle.sample_nominal(c, per_ctx - k_anom, data_rng):
            score_train.append(Observation(x, np.zeros(cfg.dim, bool), c, 0))
        for x in oracle.sample_anomaly(c, k_anom, data_rng):
            score_train.append(Observation(x, np.zeros(cfg.dim, bool), c, 1))

    twin_train: list[Observation] = []
    if method.uses_twin:
        per_ctx_twin = cfg.twin_train_size // contexts
        for c in range(contexts):
            for x in oracle.sample_twin_law(c, per_ctx_twin, data_rng):
                twin_train.append(Observation(x, np.zeros(cfg.dim, bool), c, 0))

    validation: list[Observation] = []
    if method.acquisition == "active" and cfg.gamma_override is None:
        for c in range(contexts):
            vrng = derive_rng(cfg.seed, run_idx, _Purpose.VALIDITY, c)
            for x in oracle.sample_nominal(c, cfg.val_size, vrng):
                validation.append(Observation(x, np.zeros(cfg.dim, bool), c, 0))

    def real_provider(c: int, t: int) -> Callable[[], np.ndarray]:
        def draw() -> np.ndarray:
            rng = derive_rng(cfg.seed, run_idx, _Purpose.REAL_CAL, t)
            return oracle.sample_nominal(c, n, rng)
        return draw

    stream: list[HarnessStep] = []
    for t in range(1, cfg.steps + 1):
        srng = derive_rng(cfg.seed, run_idx, _Purpose.TEST_POINT, t)
        c = int(srng.integers(contexts))
        is_anomaly = bool(srng.random() < cfg.anomaly_rate)
        x = (oracle.sample_anomaly if is_anomaly else oracle.sample_nominal)(
            c, 1, srng)[0]
        test = Observation(x, np.zeros(cfg.dim, bool), c, int(is_anomaly))
        stream.append(HarnessStep(test=test, real_features=real_provider(c, t)))

    return RunData(score_train=score_train, twin_train=twin_train,
                   validation=validation, stream=stream,
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


def _rebin_by_activity(rows, weights, boundaries) -> list[Observation]:
    out = []
    for obs in rows:
        act = float(obs.features @ weights)
        context = int(sum(act >= b for b in boundaries))
        out.append(Observation(obs.features, obs.mask, context, obs.truth))
    return out


def table_run(cfg: RunConfig, method: MethodVariant, run_idx: int,
              table: _Table) -> RunData:
    """Per-run data from a finite dataset via the split protocol."""
    plan = SplitPlan(kind=method.split_kind, n_per_step=cfg.n,
                     test_reserve=cfg.steps)
    rng = derive_rng(cfg.seed, run_idx, _Purpose.SPLITS, 0)
    splits = make_splits(table.rows, plan, cfg.steps, rng)
    items = build_stream(splits, cfg.steps, rng, cfg.anomaly_rate)

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
        items = [
            StreamItem(test=_rebin_by_activity([item.test],
                                               table.activity_weights,
                                               boundaries)[0],
                       calibration=tuple(_rebin_by_activity(
                           item.calibration, table.activity_weights,
                           boundaries)))
            for item in items
        ]

    validation: list[Observation] = []
    if method.acquisition == "active" and cfg.gamma_override is None:
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
    stream = []
    for item in items:
        provider = None
        if splits.n > 0:
            batch = np.stack([o.features for o in item.calibration])
            provider = (lambda b=batch: b)
        stream.append(HarnessStep(test=item.test, real_features=provider))
    return RunData(score_train=score_train, twin_train=twin_train,
                   validation=validation, stream=stream,
                   n_contexts=n_contexts, kinds=table.kinds,
                   n=splits.n, n_tilde=n_tilde)


# --- model fitting and the detector loop -------------------------------------


def _to_context0(rows) -> list[Observation]:
    return [Observation(o.features, o.mask, 0, o.truth) for o in rows]


def _fit_score_model(cfg: RunConfig, method: MethodVariant, run_idx: int,
                     train, n_contexts: int) -> ScoreModel:
    aware = method.context_aware
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
        synth = sample_synthetic(twin_model, c, cfg.synth_pool, srng)
        synth_scores = score_model.scores(synth, c)
        val_scores = score_model.scores(
            np.stack([o.observed() for o in members]), c)
        pvals = proxy_pvalues(synth_scores, val_scores, cfg.plus_one)
        gap = positive_ecdf_gap(pvals)
        gaps.append(gap)
        gammas.append(gamma_of_context(gap, cfg.lam))
        pools.append(pvals)
    report = ValidityReport(tuple(gaps), tuple(gammas), tuple(pools), cfg.lam)
    return np.asarray(gammas), report


def _fill_missing(matrix: np.ndarray, imputer: Imputer) -> np.ndarray:
    holes = np.isnan(matrix)
    if not holes.any():
        return matrix
    filled = matrix.copy()
    filled[holes] = np.broadcast_to(imputer.fill_values, matrix.shape)[holes]
    return filled


def _detect_run(cfg: RunConfig, method: MethodVariant, run_idx: int,
                rundata: RunData) -> tuple[list[StepRecord], RunTrace]:
    aware = method.context_aware
    n_eff = rundata.n_contexts if aware else 1

    imputer = Imputer.fit(rundata.score_train, rundata.kinds)
    score_train = [impute(imputer, o) for o in rundata.score_train]
    score_model = _fit_score_model(cfg, method, run_idx, score_train, n_eff)

    threshold = None
    if method is MethodVariant.FIXED:
        threshold = fit_fixed_threshold(score_model, score_train, cfg.alpha)

    twin_model = None
    if method.uses_twin:
        twin_rows = [impute(imputer, o) for o in rundata.twin_train]
        if not aware:
            twin_rows = _to_context0(twin_rows)
        twin_model = fit_twin(
            twin_rows, k=cfg.gmm_components,
            rng=derive_rng(cfg.seed, run_idx, _Purpose.TWIN_FIT, 0),
            n_contexts=n_eff)

    validation = [impute(imputer, o) for o in rundata.validation]
    gammas, _report = _calibrate_gammas(cfg, method, run_idx, n_eff,
                                        score_model, twin_model, validation)

    state = DetectorState.fresh(cfg.alpha, cfg.delta, cfg.eta)
    tracker = MetricsTracker.fresh(cfg.delta, cfg.eta)
    records: list[StepRecord] = []
    sfdr, power, cdar = [], [], []

    for t, hstep in enumerate(rundata.stream, start=1):
        obs = hstep.test
        mask_rng = None
        if cfg.q_miss > 0.0:
            mask_rng = derive_rng(cfg.seed, run_idx, _Purpose.MASK, t)
            obs = apply_mcar_mask(obs, cfg.q_miss, mask_rng)
        if obs.mask.any():
            obs = impute(imputer, obs)
        c_eff = obs.context if aware else 0
        test_score = score_model.score(obs.observed(), c_eff)

        if method is MethodVariant.FIXED:
            rejected = threshold.flag(test_score, c_eff)
            record = StepRecord(t=t, context=hstep.test.context, q=None, u=0,
                                p=None, z=None, alpha_t=None,
                                decision=int(rejected), truth=hstep.test.truth)
        else:
            synth_scores = None
            if method.uses_twin:
                batch = sample_synthetic(
                    twin_model, c_eff, rundata.n_tilde,
                    derive_rng(cfg.seed, run_idx, _Purpose.TWIN_SAMPLE, t))
                synth_scores = score_model.scores(batch, c_eff)

            real_scores = None
            if hstep.real_features is not None:
                def real_scores(src=hstep.real_features, c=c_eff,
                                mrng=mask_rng):
                    x = src()
                    if mrng is not None:
                        x = np.where(mrng.random(x.shape) < cfg.q_miss,
                                     np.nan, x)
                    return score_model.scores(_fill_missing(x, imputer), c)

            record, state = step(
                state, test_score, hstep.test.context,
                rng=derive_rng(cfg.seed, run_idx, _Purpose.ACQUIRE, t),
                gamma=float(gammas[c_eff]), synthetic_scores=synth_scores,
                real_scores=real_scores, acquisition=method.acquisition,
                plus_one=cfg.plus_one, truth=hstep.test.truth)

        records.append(record)
        tracker = tracker.update(record.decision, hstep.test.truth, record.u)
        sfdr.append(tracker.sfdr)
        power.append(tracker.power)
        cdar.append(tracker.cdar)

    trace = RunTrace(np.asarray(sfdr), np.asarray(power), np.asarray(cdar))
    return records, trace


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


def run_benchmark(cfg: RunConfig) -> RunArtifacts:
    """Execute every configured method over `runs` seeded replicates."""
    cfg.validate()
    table = _load_table(cfg) if cfg.dataset in ("csv", "oran") else None
    per_method: dict[str, MethodResult] = {}
    for name in cfg.methods:
        method = MethodVariant(name)
        records: list[tuple[int, StepRecord]] = []
        traces: list[RunTrace] = []
        for run_idx in range(cfg.runs):
            try:
                if table is None:
                    rundata = gaussian_synthetic_stream(cfg, method, run_idx)
                else:
                    rundata = table_run(cfg, method, run_idx, table)
                recs, trace = _detect_run(cfg, method, run_idx, rundata)
            except Exception as exc:
                raise RuntimeError(
                    f"method {name}, run {run_idx} (master seed {cfg.seed}) "
                    f"failed: {exc}") from exc
            records.extend((run_idx, rec) for rec in recs)
            traces.append(trace)
        per_method[name] = MethodResult(records, traces, aggregate(traces))
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
