"""The run engine against a scalar oracle.

The oracle rebuilds every step record one step at a time through the public
single-step API, ``fdr.step``, reading the run's stream-time generators one
step per read, and folds ``MetricsTracker.update`` over the records for the
run's metric trace.  The engine computes whole chunks of steps at once and
walks the thresholds a detection at a time, so agreement bit for bit shows
that neither changes a draw, a statistic, a threshold, a decision or a
metric.
"""

import hashlib
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from coad import harness
from coad.fdr import DetectorState, StepRecord, step
from coad.harness import (MethodVariant, _load_table, _Purpose, _RunFits,
                          config_from, derive_rng, emit,
                          gaussian_synthetic_stream, run_benchmark, table_run)
from coad.metrics import MetricsTracker
from coad.oran import generate_oran, samples_to_csv
from coad.twin import sample_synthetic
from test_golden import GOLDEN_CONFIG

CSV_METHODS = "C_COAD,C_PP_COAD,C_PO_COAD,FIXED"  # csv-oran's four


def oracle_records(cfg, method, run_idx, rundata) -> list[StepRecord]:
    """One run's step records, computed one step at a time from the data of
    ``method`` alone, on generators of its own."""
    fitted = _RunFits(cfg, run_idx, rundata).fit(method)
    model, fill = fitted.score_model, fitted.imputer.fill_values
    draw = partial(derive_rng, cfg.seed, run_idx)
    test_mask, real_mask = draw(_Purpose.MASK, 0), draw(_Purpose.MASK, 1)
    comps, noise = draw(_Purpose.TWIN_SAMPLE, 0), draw(_Purpose.TWIN_SAMPLE, 1)
    acquire = draw(_Purpose.ACQUIRE, 0)

    def observed(x, mask_rng):
        if cfg.q_miss > 0.0:
            x = np.where(mask_rng.random(x.shape) < cfg.q_miss, np.nan, x)
        return np.where(np.isnan(x), fill, x)

    state = DetectorState.fresh(cfg.alpha, cfg.delta, cfg.eta)
    records = []
    for i, x in enumerate(rundata.tests):
        t, context = i + 1, int(rundata.contexts[i])
        truth = int(rundata.truth[i])
        c = context if method.context_aware else 0
        score = model.score(observed(x, test_mask), c)
        if method is MethodVariant.FIXED:
            rejected = int(fitted.threshold.flag(score, c))
            records.append(StepRecord(t, context, None, 0, None, None, None,
                                      rejected, truth))
            continue
        synthetic = None
        if method.uses_twin:
            shape = (1, rundata.n_tilde)
            synthetic = model.scores(sample_synthetic(
                fitted.twin_model, c, comps.random(shape),
                noise.standard_normal((*shape, x.size))), c)
        real = None
        if rundata.real_batches is not None:
            batch = rundata.real_batches(i, i + 1)[0]
            real = partial(model.scores, observed(batch, real_mask), c)
        record, state = step(
            state, score, context, rng=acquire, gamma=float(fitted.gammas[c]),
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
            cfg, lambda method, run: gaussian_synthetic_stream(
                cfg, (method,), run))

    def test_csv_config(self, tmp_path):
        cfg = _oran_csv_config(tmp_path)
        table = _load_table(cfg)
        assert_engine_matches_oracle(
            cfg, lambda method, run: table_run(cfg, method.split_kind, run,
                                               table))


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
