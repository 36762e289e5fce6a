import hashlib
import json
import sys
import warnings
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from coad import harness
from coad.conformal import EPS_GAMMA
from coad.data import parse_kv_file
from coad.harness import (AGG_HEADER, STEP_HEADER, MethodResult,
                          MethodVariant, RunArtifacts, RunConfig, config_from,
                          derive_rng, emit, run_benchmark)
from coad.metrics import aggregate
from tables import oran_csv, toy_csv
from test_golden import AGGREGATE_SHA256, GOLDEN_CONFIG, STEPS_SHA256

FAST = {"runs": "3", "steps": "25", "dataset": "gaussian", "seed": "11",
        "n": "60", "score_train_size": "200", "twin_train_size": "200",
        "val_size": "100", "synth_pool": "100"}


# FAST where a real p-value can reach the threshold floor, for the tests
# whose property concerns detections: 1/(n+1) = 1/61 <= alpha * (1 - delta)
# = 0.02 at the default alpha 0.1
REACHABLE = dict(FAST, delta="0.8")
# run_benchmark's warning that real p-values cannot reach the threshold
# floor; the pytest configuration makes it an error
UNREACHABLE = r"1/\(n\+1\) > alpha\*eta\*\(1-delta\):UserWarning"


def _cfg(base=FAST, **kw):
    mapping = dict(base)
    mapping.update({k: str(v) for k, v in kw.items()})
    return config_from(mapping)


class TestConfig:
    def test_defaults_valid(self):
        cfg = RunConfig()
        cfg.validate()
        assert cfg.methods == ("C_PP_COAD",)
        # unset, n resolves to A4's 1100: 1/1101 <= alpha (1 - delta), so
        # the defaults can detect
        cfg.runs, cfg.steps = 1, 3
        rundata = harness.gaussian_synthetic_stream(
            cfg, (MethodVariant.C_PP_COAD,), 0)
        assert rundata.n == rundata.n_tilde == 1100
        with warnings.catch_warnings():
            warnings.filterwarnings("error", message=r"1/\(n\+1\) > ")
            run_benchmark(cfg)

    def test_file_plus_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("method = COAD,FIXED\nlambda = 2.5\nalpha = 0.2\n"
                        "dataset = gaussian\n")
        cfg = config_from({"method": "COAD,FIXED", "lambda": "2.5",
                           "alpha": "0.2"}, alpha=0.05, seed=9)
        assert cfg.methods == ("COAD", "FIXED")
        assert cfg.lam == 2.5
        assert cfg.alpha == 0.05  # override wins
        assert cfg.seed == 9
        assert config_from(parse_kv_file(path)).lam == 2.5

    def test_method_all(self):
        cfg = config_from({"method": "all", "runs": "1"})
        assert len(cfg.methods) == 7

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            config_from({"mystery": "1"})
        with pytest.raises(ValueError, match="mystery"):
            config_from(mystery=1)
        # the keys of the retired in-process O-RAN dataset are unknown too
        with pytest.raises(ValueError, match="'oran_samples'"):
            config_from({"oran_samples": "1000"})

    @pytest.mark.parametrize("overrides, name, expected", [
        ({"runs": "3"}, "runs", 3), ({"alpha": "0.2"}, "alpha", 0.2),
        ({"n": "none"}, "n", None), ({"plus_one": "false"}, "plus_one", False),
        ({"method": "COAD, FIXED"}, "methods", ("COAD", "FIXED")),
        ({"runs": 4}, "runs", 4), ({"seed": None}, "seed", 0),
        ({"val_size": "0"}, "val_size", 0),  # the gamma-fallback path
    ])
    def test_overrides_parsed_by_type(self, overrides, name, expected):
        assert getattr(config_from(**overrides), name) == expected

    @pytest.mark.parametrize("key, text", [
        ("runs", "abc"), ("alpha", "high"), ("plus_one", "maybe")])
    def test_parse_error_names_key(self, key, text):
        with pytest.raises(ValueError, match=f"config key '{key}'"):
            config_from({key: text})
        with pytest.raises(ValueError, match=f"config key '{key}'"):
            config_from(**{key: text})

    def test_unreachable_floor_warns_once(self):
        # 1/61 > 0.1 * 1.0 * (1 - 0.99): the floor is out of reach for the
        # four methods that use real batches, which all use n = 60
        with pytest.warns(UserWarning, match="n = 60, alpha = 0.1, "
                          "eta = 1.0, delta = 0.99") as caught:
            cfg = config_from(dict(FAST, method="all", alpha="0.1",
                                   delta="0.99", runs="1", steps="3"))
            run_benchmark(cfg)
        assert len(caught) == 1
        # the warning points at the caller of run_benchmark, not the harness
        assert caught[0].filename == __file__

    @pytest.mark.parametrize("mapping", [
        {"n": "1100"},  # A4: 1/1101 <= 0.1 * (1 - 0.99)
        {"n": "60", "method": "PO_COAD,C_PO_COAD,FIXED"},  # no real batch
        # n is set by the split, not the config
        {"dataset": "csv", "csv_path": "rows.csv", "schema_path": "s.schema"},
    ])
    def test_reachable_or_unknown_floor_is_silent(self, mapping):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config_from(dict({"alpha": "0.1", "delta": "0.99"}, **mapping))

    def test_a4_batch_size_runs_silently(self):
        cfg = config_from(dict(FAST, method="C_PP_COAD,COAD,PP_COAD,C_COAD",
                               alpha="0.1", delta="0.99", n="1100",
                               runs="1", steps="3"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_benchmark(cfg)

    def test_split_batch_size_checked(self, tmp_path):
        # n unset: the twinless split serves len(calibration) // steps rows
        # per step, here 1/(n+1) > alpha * (1 - delta) = 0.001
        cfg = config_from(toy_csv(tmp_path, method="C_COAD", runs="1",
                                   steps="8", alpha="0.1", delta="0.99"))
        with pytest.warns(UserWarning, match=r"n = \d+, alpha = 0.1") \
                as caught:
            arts = run_benchmark(cfg)
        assert len(caught) == 1
        n = int(str(caught[0].message).split("n = ")[1].split(",")[0])
        assert 1.0 / (n + 1) > 0.001 and n > 10
        assert len(arts.per_method["C_COAD"].records) == 8

    @pytest.mark.parametrize("bad", [
        {"alpha": "0"}, {"delta": "1"}, {"lambda": "-1"}, {"runs": "0"},
        {"method": "SUPER_COAD"}, {"dataset": "parquet"},
        {"q_miss": "1.0"}, {"score": "zero-shot"},
        {"anomaly_rate": "-0.5"}, {"anomaly_rate": "1.0"},
        {"anomaly_rate": "1.5"}, {"eta": "0"}, {"n": "0"}, {"n_tilde": "0"},
        {"contexts": "0"}, {"dim": "0"}, {"gmm_components": "0"},
        {"synth_pool": "0"}, {"kmeans_k": "0"}, {"dataset": "oran"},
        {"steps": "0"}, {"score_train_size": "-1"},
        {"twin_train_size": "-1"}, {"val_size": "-1"},
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            config_from(bad)

    @pytest.mark.parametrize("key, value, bound", [
        *(pytest.param(key, "0", 1, id=key) for key in (
            "contexts", "dim", "gmm_components", "synth_pool", "kmeans_k")),
        *(pytest.param(key, "-1", 0, id=f"{key}-1") for key in (
            "score_train_size", "twin_train_size", "val_size")),
    ])
    def test_sizes_fail_at_config_time_by_name(self, key, value, bound):
        # left to run 0, these failed with causes that named no key
        with pytest.raises(ValueError, match=f"^{key} must be >= {bound}$"):
            config_from({key: value})

    # score: the score kind and any other key a case needs
    @pytest.mark.parametrize("key, value, score", [
        # 2 contexts: 0 or 4 rows leave 1 inlier per context for the
        # density score, 0 or 3 rows fewer twin rows than 2 components
        ("score_train_size", "0", {}), ("score_train_size", "4", {}),
        ("twin_train_size", "0", {}), ("twin_train_size", "3", {}),
        # 8 or 9 rows leave 4 per context for k-means' kmeans_k = 5, and
        # 5 rows leave 2 per context, 4 pooled
        ("score_train_size", "8", {"score": "unsupervised"}),
        ("score_train_size", "9", {"score": "unsupervised"}),
        ("score_train_size", "5", {"score": "unsupervised",
                                   "method": "COAD"}),
        # 2 rows per context, both anomalies: no inlier class to fit
        ("score_train_size", "0", {"score": "supervised",
                                   "anomaly_rate": "0.9",
                                   "method": "C_COAD,COAD,FIXED"}),
    ])
    def test_gaussian_train_sizes_fail_at_config_time_by_name(self, key,
                                                              value, score):
        # left to run 0, these failed inside the score or generator fit
        mapping = {"method": "C_PP_COAD,C_COAD", "runs": "1", "steps": "5",
                   "n": "50", "contexts": "2"}
        with pytest.raises(ValueError, match=f"^{key} leaves fewer than"):
            config_from(dict(mapping, **{key: value}, **score))

    @pytest.mark.parametrize("mapping", [
        {"score_train_size": "6"}, {"twin_train_size": "4"},
        # context-blind fits pool both contexts' rows
        {"method": "COAD,PP_COAD", "score_train_size": "4"},
        {"method": "COAD,PP_COAD", "twin_train_size": "2"},
        # the twin rows are drawn only for methods that fit a generator,
        # and the inlier bound is the density score's
        {"method": "C_COAD", "twin_train_size": "0"},
        {"score": "supervised", "score_train_size": "4"},
        # k-means' kmeans_k = 5 rows per fit, and one inlier per context
        # for the supervised score
        {"score": "unsupervised", "score_train_size": "10"},
        {"score": "unsupervised", "method": "COAD", "score_train_size": "6"},
        {"score": "supervised", "method": "C_COAD,COAD,FIXED",
         "anomaly_rate": "0.7", "score_train_size": "0"},
    ])
    def test_smallest_gaussian_train_sizes_run(self, mapping):
        cfg = config_from(dict({"method": "C_PP_COAD,C_COAD", "runs": "1",
                                "steps": "5", "n": "50", "contexts": "2",
                                "alpha": "0.2", "delta": "0.5"}, **mapping))
        arts = run_benchmark(cfg)
        assert all(len(r.records) == 5 for r in arts.per_method.values())

    @pytest.mark.parametrize("key, value", [
        ("context_spread", "nan"), ("context_spread", "inf"),
        ("anomaly_shift", "nan"), ("anomaly_shift", "-inf"),
        ("twin_mean_shift", "inf"), ("twin_var_scale", "-1"),
        ("twin_var_scale", "nan"), ("twin_var_scale", "inf"),
    ])
    def test_oracle_reals_rejected(self, key, value):
        # left to run time, these give NaN or infinite rows that the
        # imputer fills, and the run reports a power computed from the fill
        bound = " and >= 0" if key == "twin_var_scale" else ""
        with pytest.raises(ValueError, match=f"^{key} must be finite{bound}$"):
            config_from({key: value})

    def test_csv_requires_paths(self):
        with pytest.raises(ValueError, match="csv"):
            config_from({"dataset": "csv"})

    def test_resolved_roundtrip(self):
        cfg = _cfg(method="COAD,PO_COAD")
        resolved = cfg.resolved()
        again = config_from(resolved)
        assert again == cfg


class TestVariants:
    def test_table(self):
        mv = MethodVariant
        assert [m.value for m in mv] == ["FIXED", "COAD", "PP_COAD", "C_COAD",
                                         "PO_COAD", "C_PO_COAD", "C_PP_COAD"]
        assert mv.COAD.acquisition == "always" and not mv.COAD.context_aware
        assert mv.C_PP_COAD.acquisition == "active" and mv.C_PP_COAD.uses_twin
        assert mv.PO_COAD.acquisition == "never"
        assert mv.FIXED.acquisition is None
        assert mv.COAD.split_kind == "twinless"
        assert mv.C_PO_COAD.split_kind == "prediction_only"


class TestDeriveRng:
    def test_deterministic(self):
        a = derive_rng(1, 2, 3).random(4)
        b = derive_rng(1, 2, 3).random(4)
        assert np.array_equal(a, b)

    def test_distinct_keys_distinct_streams(self):
        a = derive_rng(1, 2, 3).random(4)
        b = derive_rng(1, 2, 4).random(4)
        c = derive_rng(2, 2, 3).random(4)
        assert not np.array_equal(a, b) and not np.array_equal(a, c)

    @pytest.mark.parametrize("contexts", [2, 3])
    def test_each_key_comes_from_one_call_site(self, contexts, monkeypatch):
        # two call sites deriving one key would read one stream for two
        # purposes (the gamma pool once read a context's validation draws)
        sites = defaultdict(set)

        def recording(seed, *key):
            caller = sys._getframe(1)
            sites[key].add((caller.f_code.co_filename, caller.f_lineno))
            return derive_rng(seed, *key)

        monkeypatch.setattr(harness, "derive_rng", recording)
        run_benchmark(_cfg(method="all", contexts=contexts, runs=2, steps=5,
                           alpha=0.2, delta=0.5))
        assert len(sites) > 10
        assert {key: lines for key, lines in sites.items()
                if len(lines) > 1} == {}


class TestRecordShapes:
    def test_coad_always_queries(self):
        arts = run_benchmark(_cfg(REACHABLE, method="COAD"))
        recs = [r for _, r in arts.per_method["COAD"].records]
        assert all(r.u == 1 and r.z == r.p and r.q is None for r in recs)

    def test_po_never_queries(self):
        arts = run_benchmark(_cfg(method="PO_COAD"))
        recs = [r for _, r in arts.per_method["PO_COAD"].records]
        assert all(r.u == 0 and r.p is None and r.z == r.q for r in recs)

    def test_fixed_has_no_pvalues(self):
        arts = run_benchmark(_cfg(method="FIXED"))
        recs = [r for _, r in arts.per_method["FIXED"].records]
        assert all(r.z is None and r.alpha_t is None and r.u == 0
                   for r in recs)

    def test_active_mixes(self):
        arts = run_benchmark(_cfg(REACHABLE, method="C_PP_COAD",
                                  twin_var_scale=0.5, runs=5))
        recs = [r for _, r in arts.per_method["C_PP_COAD"].records]
        assert any(r.u == 1 for r in recs) and any(r.u == 0 for r in recs)
        assert all((r.u == 1) == (r.p is not None) for r in recs)


class TestVariantEquivalence:
    def test_active_and_prediction_only_share_proxy_pvalues(self):
        # both fit the same twin on the same draws, so they score the same
        # synthetic batch and see the same q at every (run, t)
        for q_miss in (0.0, 0.3):
            active = run_benchmark(_cfg(REACHABLE, method="C_PP_COAD",
                                        q_miss=q_miss))
            po = run_benchmark(_cfg(REACHABLE, method="C_PO_COAD",
                                    q_miss=q_miss))
            a = active.per_method["C_PP_COAD"].records
            b = po.per_method["C_PO_COAD"].records
            assert [(i, r.t, r.q) for i, r in a] == \
                [(i, r.t, r.q) for i, r in b]

    @pytest.mark.parametrize("active, always", [("C_PP_COAD", "C_COAD"),
                                                ("PP_COAD", "COAD")])
    @pytest.mark.parametrize("q_miss", [0.0, 0.3])
    def test_queried_real_pvalue_does_not_depend_on_skips(self, active,
                                                          always, q_miss):
        # gamma calibrated on a mismatched twin, so the active method both
        # queries and skips; wherever it queried, it scored the same real
        # batch as the method that queries every step
        cfg = _cfg(REACHABLE, method=f"{active},{always}", q_miss=q_miss,
                   twin_var_scale=0.5, runs=4)
        arts = run_benchmark(cfg)
        a = arts.per_method[active].records
        b = arts.per_method[always].records
        # every method of a run sees the same test points
        assert [(i, r.t, r.context, r.truth) for i, r in a] == \
            [(i, r.t, r.context, r.truth) for i, r in b]
        queried = [(ra.p, rb.p) for (_, ra), (_, rb) in zip(a, b) if ra.u]
        assert 0 < len(queried) < len(a)
        assert all(pa == pb for pa, pb in queried)

    def test_tiny_gamma_tracks_always_real(self):
        pp = run_benchmark(_cfg(REACHABLE, method="C_PP_COAD",
                                gamma_override=EPS_GAMMA, runs=5, steps=60))
        cc = run_benchmark(_cfg(REACHABLE, method="C_COAD", runs=5, steps=60))
        a = [r for _, r in pp.per_method["C_PP_COAD"].records]
        b = [r for _, r in cc.per_method["C_COAD"].records]
        assert np.mean([r.u for r in a]) > 0.98
        agree = np.mean([ra.decision == rb.decision for ra, rb in zip(a, b)])
        assert agree > 0.95
        # where both queried, the statistics differ only by the inflation
        for ra, rb in zip(a, b):
            if ra.u == 1:
                assert ra.z == pytest.approx(
                    min(1.0, rb.p / (1.0 - EPS_GAMMA)), rel=1e-12)


class TestReproducibility:
    def test_identical_records(self):
        a = run_benchmark(_cfg(REACHABLE, method="C_PP_COAD"))
        b = run_benchmark(_cfg(REACHABLE, method="C_PP_COAD"))
        assert a.per_method["C_PP_COAD"].records == \
            b.per_method["C_PP_COAD"].records

    def test_seed_changes_records(self):
        a = run_benchmark(_cfg(REACHABLE, method="COAD"))
        b = run_benchmark(_cfg(REACHABLE, method="COAD", seed=12))
        assert a.per_method["COAD"].records != b.per_method["COAD"].records

    def test_q_miss_path_deterministic(self):
        a = run_benchmark(_cfg(REACHABLE, method="C_COAD", q_miss=0.3))
        b = run_benchmark(_cfg(REACHABLE, method="C_COAD", q_miss=0.3))
        assert a.per_method["C_COAD"].records == \
            b.per_method["C_COAD"].records


class TestEmission:
    def test_files_and_headers(self, tmp_path):
        arts = run_benchmark(_cfg(REACHABLE, method="COAD,FIXED,C_PP_COAD"))
        paths = emit(arts, tmp_path / "out")
        steps = paths["steps"].read_text().splitlines()
        assert steps[0] == STEP_HEADER
        assert len(steps) - 1 == 3 * 3 * 25  # methods x runs x steps
        agg = paths["aggregate"].read_text().splitlines()
        assert agg[0] == AGG_HEADER
        assert len(agg) - 1 == 3 * 25
        summary = json.loads(paths["summary"].read_text())
        assert set(summary) == {"config", "per_method"}
        for name in ("COAD", "FIXED", "C_PP_COAD"):
            entry = summary["per_method"][name]
            assert set(entry) == {"final_sfdr", "final_power", "final_cdar",
                                  "sfdr_controlled", "max_sfdr_t"}
        assert summary["per_method"]["C_PP_COAD"]["sfdr_controlled"] is True
        assert (tmp_path / "out" / "config.txt").exists()

    def test_emit_idempotent(self, tmp_path):
        arts = run_benchmark(_cfg(method="PO_COAD"))
        p1 = emit(arts, tmp_path / "a")
        p2 = emit(arts, tmp_path / "b")
        assert p1["steps"].read_bytes() == p2["steps"].read_bytes()
        assert p1["aggregate"].read_bytes() == p2["aggregate"].read_bytes()

    def test_empty_optional_fields_serialized_empty(self, tmp_path):
        arts = run_benchmark(_cfg(method="FIXED"))
        paths = emit(arts, tmp_path)
        row = paths["steps"].read_text().splitlines()[1].split(",")
        # q, p, z, alpha_t are empty for the fixed baseline
        assert row[4] == "" and row[6] == "" and row[7] == "" and row[8] == ""


class TestBehavior:
    def test_fixed_baseline_violates_alpha(self):
        cfg = _cfg(method="FIXED", runs=20, steps=50, anomaly_shift=3.0)
        arts = run_benchmark(cfg)
        s = arts.per_method["FIXED"].summary
        assert max(s.sfdr_mean) > cfg.alpha

    def test_matched_twin_queries_less_than_shrunk(self):
        matched = run_benchmark(_cfg(REACHABLE, method="C_PP_COAD", runs=5,
                                     twin_var_scale=1.0))
        shrunk = run_benchmark(_cfg(REACHABLE, method="C_PP_COAD", runs=5,
                                    twin_var_scale=0.25))
        cdar_m = matched.per_method["C_PP_COAD"].summary.cdar_mean[-1]
        cdar_s = shrunk.per_method["C_PP_COAD"].summary.cdar_mean[-1]
        assert cdar_m < cdar_s

    def test_no_shift_no_power(self):
        arts = run_benchmark(_cfg(REACHABLE, method="C_COAD", runs=5,
                                  steps=60, anomaly_shift=0.0))
        assert arts.per_method["C_COAD"].summary.power_mean[-1] < 0.15

    def test_null_rejections_stay_within_thresholds(self):
        # a real conformal p-value is superuniform and alpha_t depends on
        # the past alone, so an inlier step rejects with probability at
        # most alpha_t: the inlier rejections stay within the summed
        # thresholds plus three standard deviations
        arts = run_benchmark(_cfg(REACHABLE, method="C_COAD,COAD", runs=20,
                                  steps=100, anomaly_shift=0.0))
        for name in ("C_COAD", "COAD"):
            runs = arts.per_method[name].runs
            inlier = np.concatenate([s.truth == 0 for s in runs])
            rejected = np.concatenate([s.decision for s in runs])[inlier]
            expected = np.concatenate([s.alpha_t for s in runs])[inlier].sum()
            assert rejected.sum() <= expected + 3.0 * np.sqrt(expected), name

    def test_gamma_falls_back_without_validation_inliers(self):
        # no validation inliers: every context of an active method runs with
        # gamma = 0.5, so a queried step's statistic is min(1, p / 0.5)
        cfg = config_from({"method": "C_PP_COAD,PP_COAD", "val_size": "0",
                           "runs": "2", "steps": "40", "n": "50",
                           "alpha": "0.2", "delta": "0.5", "seed": "3"})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            arts = run_benchmark(cfg)
        fallbacks = [str(w.message) for w in caught
                     if "no validation inliers" in str(w.message)]
        # per run: both contexts of C_PP_COAD, the pooled context of PP_COAD
        assert sorted(fallbacks) == sorted(
            [f"no validation inliers for context {c}; falling back to "
             f"gamma = 0.5" for c in (0, 0, 1)] * 2)
        for name in cfg.methods:
            for s in arts.per_method[name].runs:
                queried = s.u == 1
                assert 0 < queried.sum() < queried.size
                assert np.array_equal(s.z[queried],
                                      np.minimum(1.0, s.p[queried] / 0.5))
                assert np.array_equal(s.z[~queried], s.q[~queried])

    @pytest.mark.parametrize("methods", ["C_PP_COAD", "C_COAD,C_PP_COAD"])
    def test_failed_run_reports_context(self, methods, tmp_path):
        # C_COAD shares the run's data and score model but fits no twin, so
        # the failing twin fit belongs to C_PP_COAD.  On the Gaussian oracle
        # the config already rejects more components than twin rows, so the
        # rows come from a dataset split, sized only at run time; its
        # batches of 14 and 29 rows reach alpha * (1 - delta) = 0.1
        cfg = config_from(toy_csv(tmp_path, method=methods, seed="11",
                                   runs="1", steps="8", alpha="0.2",
                                   delta="0.5"))
        cfg.gmm_components = 10**6  # far more components than data
        with pytest.raises(RuntimeError,
                           match=r"method C_PP_COAD, run 0 \(master seed 11\) "
                                 r"failed: context 0 has \d+ points; need at "
                                 r"least k=1000000 to fit the mixture"):
            run_benchmark(cfg)

    def test_failed_statistic_names_its_reader(self, monkeypatch):
        # FIXED, C_COAD and C_PP_COAD share one lane; only C_PP_COAD reads
        # the acquisition draw, so its failure is C_PP_COAD's, not that of
        # the lane's first method
        def fail(q, gamma):
            raise ValueError("acquisition failed")

        monkeypatch.setattr(harness, "acquisition_probability", fail)
        with pytest.raises(RuntimeError,
                           match=r"method C_PP_COAD, run 0 \(master seed 11\) "
                                 r"failed: acquisition failed"):
            run_benchmark(_cfg(REACHABLE, method="FIXED,C_COAD,C_PP_COAD"))

    def test_nan_statistic_fails_loudly(self, monkeypatch):
        # a NaN statistic is never <= alpha_t, so it would silently never
        # reject; the decision phase refuses it and names the run
        monkeypatch.setattr(
            harness, "conformal_pvalues",
            lambda cal, tests, plus_one=True: np.full(len(tests), np.nan))
        with pytest.raises(RuntimeError,
                           match=r"method COAD, run 0 \(master seed 11\) "
                                 r"failed: statistic z_t must lie in "
                                 r"\[0, 1\]; step 1 has nan"):
            run_benchmark(_cfg(REACHABLE, method="COAD"))


class TestRunStream:
    """``_iter_runs`` yields each finished run, and ``run_benchmark`` is
    its collector."""

    def test_lazy(self, monkeypatch):
        original, built = harness.gaussian_synthetic_stream, []

        def counting(cfg, methods, run_idx):
            built.append(run_idx)
            return original(cfg, methods, run_idx)

        monkeypatch.setattr(harness, "gaussian_synthetic_stream", counting)
        method, run_idx, steps, _ = next(harness._iter_runs(
            _cfg(REACHABLE, method="C_COAD,FIXED", runs=3)))
        assert built == [0]
        assert (method, run_idx, steps.decision.size) == \
            (MethodVariant.C_COAD, 0, 25)

    def test_run_major_in_config_order(self, tmp_path):
        gaussian = _cfg(REACHABLE, method="FIXED,C_PP_COAD,COAD", runs=2,
                        steps=5)
        assert [(m.value, r) for m, r, _, _ in harness._iter_runs(gaussian)] \
            == [(m, r) for r in range(2) for m in ("FIXED", "C_PP_COAD",
                                                   "COAD")]
        # on a table each split kind is a group, in order of first mention
        table = config_from(toy_csv(
            tmp_path, method="C_PP_COAD,C_COAD,C_PO_COAD,FIXED", runs="2",
            steps="5", n="20", delta="0.5"))
        assert [(m.value, r) for m, r, _, _ in harness._iter_runs(table)] \
            == [(m, r) for r in range(2) for m in ("C_PP_COAD", "C_COAD",
                                                   "FIXED", "C_PO_COAD")]

    def test_collected_stream_emits_the_golden_bytes(self, tmp_path):
        cfg = config_from(GOLDEN_CONFIG)
        runs, traces = defaultdict(list), defaultdict(list)
        for method, _, steps, trace in harness._iter_runs(cfg):
            runs[method.value].append(steps)
            traces[method.value].append(trace)
        artifacts = RunArtifacts(cfg, {
            name: MethodResult(runs[name], traces[name],
                               aggregate(traces[name])) for name in runs})
        paths = emit(artifacts, tmp_path)
        digest = {key: hashlib.sha256(paths[key].read_bytes()).hexdigest()
                  for key in ("steps", "aggregate")}
        assert digest == {"steps": STEPS_SHA256,
                          "aggregate": AGGREGATE_SHA256}


class TestOranPath:
    """O-RAN rows reach the engine as the CSV dataset that ``coad gen-oran``
    writes."""

    def test_empty_score_training_part_names_steps(self, tmp_path):
        # 4 inliers, no anomaly: the 3-step test reserve leaves one row,
        # and a third of it is none
        cfg = config_from(oran_csv(tmp_path, 4, method="C_PO_COAD", runs="1",
                                   steps="3"))
        with pytest.raises(RuntimeError, match=r"failed: the dataset leaves "
                           r"no score- or generator-training rows beside "
                           r"the steps = 3 reserved test points"):
            run_benchmark(cfg)

    # the split serves 2-row batches, which no threshold floor of the
    # default alpha and delta admits; the run is to fail at its score fit
    @pytest.mark.filterwarnings("ignore:" + UNREACHABLE)
    def test_no_score_inliers_name_the_class(self, tmp_path):
        # 3 inliers less the 1-step reserve leave 2, whose first third is
        # none, so the score-training part holds one anomaly; the density
        # score, fit on inliers only, failed as "training data is empty"
        cfg = config_from(oran_csv(tmp_path, 6, 0.5, method="C_COAD",
                                   runs="1", steps="1"))
        with pytest.raises(RuntimeError, match=r"failed: class 0 absent in "
                           r"the score-training data$"):
            run_benchmark(cfg)

    def test_benchmark_runs_and_replays(self, tmp_path):
        # the split serves 44-row batches: 1/45 <= alpha * (1 - delta)
        mapping = oran_csv(tmp_path, 1500, method="C_PP_COAD", runs="2",
                           steps="10", seed="3", delta="0.5",
                           synth_pool="100", val_size="100")
        a = run_benchmark(config_from(mapping))
        b = run_benchmark(config_from(mapping))
        assert a.per_method["C_PP_COAD"].records == \
            b.per_method["C_PP_COAD"].records

    def test_fixed_on_oran(self, tmp_path):
        mapping = oran_csv(tmp_path, 1500, method="FIXED", runs="2",
                           steps="10", seed="3")
        arts = run_benchmark(config_from(mapping))
        assert len(arts.per_method["FIXED"].records) == 20


class TestCsvPath:
    def test_too_few_inliers_name_steps(self, tmp_path):
        # the toy dataset holds 360 inliers, one short of the test reserve
        cfg = config_from(toy_csv(tmp_path, method="C_COAD", runs="1",
                                  steps="361"))
        with pytest.raises(ValueError, match=r"toy\.csv: 360 inlier rows, "
                           r"fewer than the steps = 361 test points"):
            run_benchmark(cfg)

    def test_benchmark_from_files(self, tmp_path):
        # 29-row batches: 1/30 <= alpha * (1 - delta)
        cfg = config_from(toy_csv(tmp_path, method="C_COAD,FIXED", runs="2",
                                   steps="8", delta="0.5"))
        arts = run_benchmark(cfg)
        assert len(arts.per_method["C_COAD"].records) == 16
        recs = [r for _, r in arts.per_method["C_COAD"].records]
        assert all(r.u == 1 and r.p is not None for r in recs)
