import json
import sys
import warnings
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from coad import harness
from coad.conformal import EPS_GAMMA
from coad.harness import (AGG_HEADER, STEP_HEADER, MethodVariant, RunConfig,
                          config_from, derive_rng, emit, load_config,
                          run_benchmark)

FAST = {"runs": "3", "steps": "25", "dataset": "gaussian", "seed": "11",
        "n": "60", "score_train_size": "200", "twin_train_size": "200",
        "val_size": "100", "synth_pool": "100"}


def _cfg(**kw):
    mapping = dict(FAST)
    mapping.update({k: str(v) for k, v in kw.items()})
    return config_from(mapping)


class TestConfig:
    def test_defaults_valid(self):
        cfg = RunConfig()
        cfg.validate()
        assert cfg.methods == ("C_PP_COAD",)

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
        assert load_config(path).lam == 2.5

    def test_method_all(self):
        cfg = config_from({"method": "all", "runs": "1"})
        assert len(cfg.methods) == 7

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            config_from({"mystery": "1"})
        with pytest.raises(ValueError, match="mystery"):
            config_from(mystery=1)

    @pytest.mark.parametrize("overrides, name, expected", [
        ({"runs": "3"}, "runs", 3), ({"alpha": "0.2"}, "alpha", 0.2),
        ({"n": "none"}, "n", None), ({"plus_one": "false"}, "plus_one", False),
        ({"method": "COAD, FIXED"}, "methods", ("COAD", "FIXED")),
        ({"runs": 4}, "runs", 4), ({"seed": None}, "seed", 0),
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

    @pytest.mark.parametrize("mapping", [
        {"n": "1100"},  # A4: 1/1101 <= 0.1 * (1 - 0.99)
        {"n": "60", "method": "PO_COAD,C_PO_COAD,FIXED"},  # no real batch
        {"dataset": "oran"},  # n is set by the split, not the config
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
        cfg = config_from(_toy_csv(tmp_path, method="C_COAD", runs="1",
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
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            config_from(bad)

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
        arts = run_benchmark(_cfg(method="COAD"))
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
        arts = run_benchmark(_cfg(method="C_PP_COAD", twin_var_scale=0.5,
                                  runs=5))
        recs = [r for _, r in arts.per_method["C_PP_COAD"].records]
        assert any(r.u == 1 for r in recs) and any(r.u == 0 for r in recs)
        assert all((r.u == 1) == (r.p is not None) for r in recs)


class TestVariantEquivalence:
    def test_active_and_prediction_only_share_proxy_pvalues(self):
        # both fit the same twin on the same draws, so they score the same
        # synthetic batch and see the same q at every (run, t)
        for q_miss in (0.0, 0.3):
            active = run_benchmark(_cfg(method="C_PP_COAD", q_miss=q_miss))
            po = run_benchmark(_cfg(method="C_PO_COAD", q_miss=q_miss))
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
        cfg = _cfg(method=f"{active},{always}", q_miss=q_miss,
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
        pp = run_benchmark(_cfg(method="C_PP_COAD", gamma_override=EPS_GAMMA,
                                runs=5, steps=60))
        cc = run_benchmark(_cfg(method="C_COAD", runs=5, steps=60))
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
        a = run_benchmark(_cfg(method="C_PP_COAD"))
        b = run_benchmark(_cfg(method="C_PP_COAD"))
        assert a.per_method["C_PP_COAD"].records == \
            b.per_method["C_PP_COAD"].records

    def test_seed_changes_records(self):
        a = run_benchmark(_cfg(method="COAD"))
        b = run_benchmark(_cfg(method="COAD", seed=12))
        assert a.per_method["COAD"].records != b.per_method["COAD"].records

    def test_q_miss_path_deterministic(self):
        a = run_benchmark(_cfg(method="C_COAD", q_miss=0.3))
        b = run_benchmark(_cfg(method="C_COAD", q_miss=0.3))
        assert a.per_method["C_COAD"].records == \
            b.per_method["C_COAD"].records


class TestEmission:
    def test_files_and_headers(self, tmp_path):
        arts = run_benchmark(_cfg(method="COAD,FIXED,C_PP_COAD"))
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
        matched = run_benchmark(_cfg(method="C_PP_COAD", runs=5,
                                     twin_var_scale=1.0))
        shrunk = run_benchmark(_cfg(method="C_PP_COAD", runs=5,
                                    twin_var_scale=0.25))
        cdar_m = matched.per_method["C_PP_COAD"].summary.cdar_mean[-1]
        cdar_s = shrunk.per_method["C_PP_COAD"].summary.cdar_mean[-1]
        assert cdar_m < cdar_s

    def test_no_shift_no_power(self):
        arts = run_benchmark(_cfg(method="C_COAD", runs=5, steps=60,
                                  anomaly_shift=0.0))
        assert arts.per_method["C_COAD"].summary.power_mean[-1] < 0.15

    @pytest.mark.parametrize("methods", ["C_PP_COAD", "C_COAD,C_PP_COAD"])
    def test_failed_run_reports_context(self, methods):
        # C_COAD shares the run's data and score model but fits no twin, so
        # the failing twin fit belongs to C_PP_COAD
        cfg = _cfg(method=methods)
        cfg.gmm_components = 10**6  # far more components than data
        with pytest.raises(RuntimeError,
                           match=r"method C_PP_COAD, run 0 \(master seed 11\)"):
            run_benchmark(cfg)

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
            run_benchmark(_cfg(method="COAD"))


class TestOranPath:
    def test_benchmark_runs_and_replays(self):
        mapping = {"method": "C_PP_COAD", "dataset": "oran", "runs": "2",
                   "steps": "10", "seed": "3", "oran_samples": "1500",
                   "synth_pool": "100", "val_size": "100"}
        a = run_benchmark(config_from(mapping))
        b = run_benchmark(config_from(mapping))
        assert a.per_method["C_PP_COAD"].records == \
            b.per_method["C_PP_COAD"].records

    def test_fixed_on_oran(self):
        mapping = {"method": "FIXED", "dataset": "oran", "runs": "2",
                   "steps": "10", "seed": "3", "oran_samples": "1500"}
        arts = run_benchmark(config_from(mapping))
        assert len(arts.per_method["FIXED"].records) == 20


def _toy_csv(tmp_path, **mapping):
    """A two-context CSV dataset with its schema, as a config mapping."""
    rng = np.random.default_rng(0)
    lines = ["x0,x1,age,label"]
    for i in range(400):
        age = 25.0 if i % 2 == 0 else 75.0
        mu = 0.0 if age < 50 else 5.0
        x = rng.normal(mu, 1.0, 2)
        label = 0
        if i % 10 == 0:
            x += 6.0
            label = 1
        lines.append(f"{x[0]:.6f},{x[1]:.6f},{age},{label}")
    csv_path = tmp_path / "toy.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    schema_path = tmp_path / "toy.schema"
    schema_path.write_text(
        "feature.x0 = continuous\nfeature.x1 = continuous\n"
        "label = label\nlabel.anomaly_values = 1\n"
        "context.column = age\ncontext.bins = 50\n")
    return dict({"dataset": "csv", "seed": "1", "csv_path": str(csv_path),
                 "schema_path": str(schema_path)}, **mapping)


class TestCsvPath:
    def test_benchmark_from_files(self, tmp_path):
        cfg = config_from(_toy_csv(tmp_path, method="C_COAD,FIXED", runs="2",
                                   steps="8"))
        arts = run_benchmark(cfg)
        assert len(arts.per_method["C_COAD"].records) == 16
        recs = [r for _, r in arts.per_method["C_COAD"].records]
        assert all(r.u == 1 and r.p is not None for r in recs)
