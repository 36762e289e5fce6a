"""The run engine against a scalar oracle.

The oracle rebuilds every step record one step at a time through the public
single-step API, ``fdr.step``, reading the run's stream-time generators one
step per read and ranking each proxy p-value against the lane's synthetic
pool of the step's context, and folds ``MetricsTracker.update`` over the
records for the run's metric trace.  The engine computes whole chunks of
steps at once and walks the thresholds a detection at a time, so agreement
bit for bit shows that neither changes a draw, a statistic, a threshold, a
decision or a metric.
"""

import hashlib
import tracemalloc
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from coad import harness
from coad.conformal import GAMMA_MAX
from coad.core import Observation
from coad.fdr import DetectorState, StepRecord, step
from coad.harness import (MethodVariant, _fit_group, _load_dataset, _Purpose,
                          config_from, derive_rng, emit,
                          gaussian_synthetic_stream, run_benchmark, table_run)
from coad.metrics import MetricsTracker
from coad.oran import generate_oran, samples_to_csv
from coad.scoring import DensityScore
from coad.data import impute
from coad.twin import gamma_of_context, positive_ecdf_gap, sample_synthetic
from test_golden import GOLDEN_CONFIG

CSV_METHODS = "C_COAD,C_PP_COAD,C_PO_COAD,FIXED"  # csv-oran's four


def oracle_records(cfg, method, run_idx, rundata) -> list[StepRecord]:
    """One run's step records, computed one step at a time from the data of
    ``method`` alone, on generators of its own."""
    imputer, (lane,) = _fit_group(cfg, (method,), run_idx, rundata)
    model, fill = lane.scorer, imputer.fill_values
    draw = partial(derive_rng, cfg.seed, run_idx)
    test_mask, real_mask = draw(_Purpose.MASK, 0), draw(_Purpose.MASK, 1)
    acquire = draw(_Purpose.ACQUIRE, 0)

    def observed(x, mask_rng):
        if cfg.q_miss > 0.0:
            x = np.where(mask_rng.random(x.shape) < cfg.q_miss, np.nan, x)
        return np.where(np.isnan(x), fill, x)

    # fdr.step reads gamma only under "active", the one rule fitted with one
    gammas = lane.gammas if lane.gammas is not None else \
        np.full(rundata.n_contexts, GAMMA_MAX)
    state = DetectorState.fresh(cfg.alpha, cfg.delta, cfg.eta)
    records = []
    stream = rundata.stream
    for i, x in enumerate(stream.features):
        t, context, truth = i + 1, int(stream.context[i]), int(stream.truth[i])
        c = int(lane.context[i])  # 0 for a context-blind method
        score = model.score(observed(x, test_mask), c)
        if method is MethodVariant.FIXED:
            rejected = int(score > lane.threshold[c])
            records.append(StepRecord(t, context, None, 0, None, None, None,
                                      rejected, truth))
            continue
        synthetic = lane.pool[c] if method.uses_twin else None
        batch = rundata.real_batches(i, i + 1)[0]
        real = partial(model.scores, observed(batch, real_mask), c)
        record, state = step(
            state, score, context, rng=acquire, gamma=float(gammas[c]),
            synthetic_scores=synthetic, real_scores=real,
            acquisition=method.acquisition, plus_one=cfg.plus_one,
            truth=truth)
        records.append(record)
    return records


def oracle_trace(cfg, records) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sfdr, power and cdar after each of one run's records, one
    ``MetricsTracker.update`` per step."""
    tracker = MetricsTracker.fresh(cfg.delta, cfg.eta)
    rows = []
    for rec in records:
        tracker = tracker.update(rec.decision, rec.truth, rec.u)
        rows.append((tracker.sfdr, tracker.power, tracker.cdar))
    return tuple(np.array(column) for column in zip(*rows))


def assert_engine_matches_oracle(cfg, rundata_of):
    arts = run_benchmark(cfg)
    for name in cfg.methods:
        method = MethodVariant(name)
        result = arts.per_method[name]
        expected = []
        for run in range(cfg.runs):
            records = oracle_records(cfg, method, run,
                                     rundata_of(method, run))
            expected += [(run, rec) for rec in records]
            trace = result.traces[run]
            for got, want in zip((trace.sfdr, trace.power, trace.cdar),
                                 oracle_trace(cfg, records)):
                assert np.array_equal(got, want), (name, run)
        # repr shows every bit of a float, and the types
        assert [repr(r) for r in result.records] == \
            [repr(r) for r in expected], name


def _oran_csv_config(tmp_path):
    graph, samples = generate_oran(0, 1, 2000)
    csv_path = tmp_path / "oran.csv"
    csv_path.write_text(samples_to_csv(graph, samples))
    lines = [f"feature.{prefix}_{i} = categorical"
             for prefix, count in (("xapp", graph.n_xapps),
                                   ("param", graph.n_params),
                                   ("kpi", graph.n_kpis))
             for i in range(count)]
    lines += ["label = conflict_type",
              "label.anomaly_values = direct,indirect,implicit",
              "context.column = context", "context.bins = 1.5"]
    schema_path = tmp_path / "oran.schema"
    schema_path.write_text("\n".join(lines) + "\n")
    return config_from({
        "dataset": "csv", "method": CSV_METHODS, "csv_path": str(csv_path),
        "schema_path": str(schema_path), "alpha": "0.2", "delta": "0.5",
        "n": "10", "q_miss": "0.1", "anomaly_rate": "0.5", "runs": "2",
        "steps": "30", "seed": "4"})


class TestScalarOracle:
    def test_golden_config(self):
        cfg = config_from(GOLDEN_CONFIG)
        assert_engine_matches_oracle(
            cfg, lambda method, run: gaussian_synthetic_stream(cfg, run))

    def test_csv_config(self, tmp_path):
        cfg = _oran_csv_config(tmp_path)
        dataset = _load_dataset(cfg)
        assert_engine_matches_oracle(
            cfg, lambda method, run: table_run(cfg, method.split_kind, run,
                                               *dataset))


@pytest.mark.parametrize("config", ["golden", "csv"])
def test_sharing_is_invisible(config, tmp_path):
    # a run's methods share its data, fits and draws; a method's records
    # must not show which methods shared them
    cfg = config_from(GOLDEN_CONFIG) if config == "golden" \
        else _oran_csv_config(tmp_path)

    def records(methods):
        arts = run_benchmark(replace(cfg, methods=methods))
        return {name: [repr(r) for r in result.records]
                for name, result in arts.per_method.items()}

    together = records(cfg.methods)
    assert records(cfg.methods[::-1]) == together
    for name in cfg.methods:
        assert records((name,)) == {name: together[name]}, name


@pytest.mark.parametrize("config", ["golden", "csv"])
def test_no_observation_is_built(config, tmp_path, monkeypatch):
    # every set of rows on the run path is a columnar Table
    cfg = config_from(GOLDEN_CONFIG) if config == "golden" \
        else _oran_csv_config(tmp_path)
    built = []
    post_init = Observation.__post_init__

    def counted(self):
        built.append(1)
        post_init(self)

    monkeypatch.setattr(Observation, "__post_init__", counted)
    run_benchmark(cfg)
    assert len(built) == 0


def _digests(cfg, out):
    paths = emit(run_benchmark(cfg), out)
    return [hashlib.sha256(paths[key].read_bytes()).hexdigest()
            for key in ("steps", "aggregate")]


@pytest.mark.parametrize("config", ["golden", "csv"])
def test_outputs_do_not_depend_on_chunk_size(config, tmp_path, monkeypatch):
    cfg = config_from(GOLDEN_CONFIG) if config == "golden" \
        else _oran_csv_config(tmp_path)
    default = _digests(cfg, tmp_path / "default")
    monkeypatch.setattr(harness, "CHUNK_VALUES", 1)  # one step per chunk
    assert _digests(cfg, tmp_path / "one_step") == default


@pytest.mark.parametrize("config", ["golden", "csv"])
def test_outputs_do_not_depend_on_emit_block(config, tmp_path, monkeypatch):
    # golden covers FIXED's empty columns and the NaN q and p of the
    # methods that skip a batch
    cfg = config_from(GOLDEN_CONFIG) if config == "golden" \
        else _oran_csv_config(tmp_path)
    arts = run_benchmark(cfg)

    def files(out):
        paths = emit(arts, out)
        return [paths[key].read_bytes() for key in ("steps", "aggregate")]

    default = files(tmp_path / "default")
    rows = default[0].count(b"\n")
    for block in (1, 7, rows + 1):
        monkeypatch.setattr(harness, "EMIT_ROWS", block)
        assert files(tmp_path / f"block{block}") == default, block


def test_memory_per_step_is_bounded(tmp_path):
    # between the statistic phase and the files nothing is kept or built
    # per step beyond the result columns: the artifacts grow by their
    # columns alone, and emission holds one block of text at any length
    def measure(steps):
        cfg = config_from({"method": "C_COAD", "runs": "1", "seed": "3",
                           "steps": str(steps), "n": "20", "alpha": "0.2",
                           "delta": "0.5"})
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            arts = run_benchmark(cfg)
            retained = tracemalloc.get_traced_memory()[0] - before
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            emit(arts, tmp_path / str(steps))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return retained, peak - start

    measure(1000)  # fills the cache of the decay kernel
    (small, small_emit), (large, large_emit) = measure(4000), measure(16000)
    assert (large - small) / 12000 <= 256
    assert large_emit < 2 * small_emit and large_emit < 2**20


def test_shared_arrays_are_scored_once(monkeypatch):
    # C_COAD and C_PP_COAD share a score model: the test points are scored
    # once, every real batch once (C_COAD queries them all), and C_PP_COAD
    # adds only its synthetic pool, once per context, and its validation
    # inliers
    cfg = config_from({"method": "C_COAD,C_PP_COAD", "runs": "2",
                       "steps": "30", "n": "20", "n_tilde": "15",
                       "val_size": "40", "alpha": "0.2", "delta": "0.5",
                       "seed": "2"})
    rows = []
    scores = DensityScore.scores

    def counted(self, xs, context):
        rows.append(len(xs))
        return scores(self, xs, context)

    monkeypatch.setattr(DensityScore, "scores", counted)
    run_benchmark(cfg)
    per_run = cfg.steps * (1 + cfg.n) \
        + cfg.contexts * (cfg.n_tilde + cfg.val_size)
    assert sum(rows) == cfg.runs * per_run

    # C_PP_COAD alone scores only the real batches it buys
    rows.clear()
    cfg = replace(cfg, methods=("C_PP_COAD",))
    bought = sum(int(s.u.sum()) for s in
                 run_benchmark(cfg).per_method["C_PP_COAD"].runs)
    assert 0 < bought < cfg.runs * cfg.steps
    per_run = cfg.steps + cfg.contexts * (cfg.n_tilde + cfg.val_size)
    assert sum(rows) == cfg.runs * per_run + cfg.n * bought


def oracle_gammas(cfg, run_idx, aware, n_eff, n_tilde, model, twin,
                  validation):
    """Gamma calibration written plainly: the pool's draws from the
    stream of the lane's context awareness, then per context a pool, two
    ``scores`` calls and a broadcast compare."""
    srng = derive_rng(cfg.seed, run_idx, _Purpose.POOL, int(aware))
    uniforms = srng.random((n_eff, n_tilde))
    noise = srng.standard_normal((n_eff, n_tilde, twin.dim))
    gammas = []
    for c, group in enumerate(validation.by_context(n_eff)):
        if not len(group):
            warnings.warn(f"no validation inliers for context {c}; "
                          "falling back to gamma = 0.5")
            gammas.append(0.5)
            continue
        synth = model.scores(sample_synthetic(
            twin, c, uniforms[c:c + 1], noise[c:c + 1]), c)
        val = model.scores(group.observed(), c)
        counts = np.count_nonzero(synth[None, :] >= val[:, None], axis=1)
        pvals = (counts + 1 if cfg.plus_one else counts) / (synth.size + 1)
        gammas.append(gamma_of_context(positive_ecdf_gap(pvals), cfg.lam))
    return np.asarray(gammas)


def _gammas_and_warnings(calibrate, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        gammas = calibrate(*args)
    return gammas.tobytes(), [str(w.message) for w in caught]


@pytest.mark.parametrize("plus_one", [False, True])
@pytest.mark.parametrize("method", ["C_PP_COAD", "PP_COAD"])
@pytest.mark.parametrize("dropped", [(), (1,), (0, 2)])
@pytest.mark.parametrize("config", ["semi_supervised", "unsupervised",
                                    "supervised", "csv"])
def test_gammas_match_per_context_loop(config, dropped, method, plus_one,
                                       tmp_path):
    # every score kind, context-aware and blind (on the one-context view,
    # every row context 0, as the lane reads it), with contexts whose
    # validation inliers are dropped (their gamma falls back), with and
    # without the plus-one offset; the O-RAN rows' binary features make
    # scores tie within and across the pools
    method = MethodVariant(method)
    if config == "csv":
        cfg = replace(_oran_csv_config(tmp_path), methods=(method.value,),
                      plus_one=plus_one)
        rundata = table_run(cfg, method.split_kind, 0, *_load_dataset(cfg))
    else:
        cfg = config_from({"method": method.value, "score": config,
                           "contexts": "3", "val_size": "30",
                           "n_tilde": "40", "seed": "6",
                           "plus_one": str(plus_one)})
        rundata = gaussian_synthetic_stream(cfg, 0)
    imputer, (lane,) = _fit_group(cfg, (method,), 0, rundata)
    validation = replace(rundata.validation, features=impute(
        imputer, rundata.validation.features))
    validation = validation.rows(~np.isin(validation.context, dropped))
    n_eff = rundata.n_contexts
    if not method.context_aware:
        validation = replace(validation,
                             context=np.zeros(len(validation), dtype=int))
        n_eff = 1
    assert _gammas_and_warnings(harness._calibrate_gammas, cfg, lane,
                                validation) == \
        _gammas_and_warnings(oracle_gammas, cfg, 0, method.context_aware,
                             n_eff, rundata.n_tilde, lane.scorer, lane.twin,
                             validation)
