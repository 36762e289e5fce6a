"""End-to-end acceptance suite.

Every test prints one PASS/FAIL line with its measured margin, and pins the
tolerance in the assertion.  The Monte Carlo benchmark checks share one
Gaussian-oracle base configuration (alpha 0.1, delta 0.99, eta 1,
100 runs x 200 steps).
"""

import itertools
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path
from statistics import NormalDist

import numpy as np

import coad
from coad.conformal import (GAMMA_MAX, active_pvalue, conformal_pvalue,
                            draw_acquisition)
from coad.fdr import DetectorState, next_threshold
from coad.harness import config_from, run_benchmark
from coad.oran import check_conflicts, generate_oran
from coad.twin import gamma_of_context, superuniformity_gap
from test_fdr import zeta_table

A4_BASE = {
    "dataset": "gaussian", "seed": "1", "alpha": "0.1", "delta": "0.99",
    "eta": "1.0", "runs": "100", "steps": "200", "n": "1100",
    "anomaly_rate": "0.1", "anomaly_shift": "4.0",
}

U_GRID = (0.01, 0.05, 0.1, 0.2, 0.5)


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


def _ecdf_margins(samples: np.ndarray, trials: int) -> list[float]:
    """u + 3 * binomial SE - ECDF(u); negative means a violation."""
    return [u + 3 * math.sqrt(u * (1 - u) / trials)
            - float(np.mean(samples <= u)) for u in U_GRID]


def test_a1_conformal_pvalue_validity():
    trials, n = 10**5, 20
    rng = np.random.default_rng(101)
    cal = rng.standard_normal((trials, n))
    tests = rng.standard_normal(trials)
    start = time.perf_counter()
    pvals = np.array([conformal_pvalue(cal[i], tests[i], plus_one=True)
                      for i in range(trials)])
    elapsed = time.perf_counter() - start
    margins = _ecdf_margins(pvals, trials)
    ok = min(margins) >= 0.0 and elapsed < 10.0
    _report("A1 conformal p-value validity", ok,
            f"min margin {min(margins):+.5f}, {elapsed:.1f}s")


def test_a2_verbatim_formula_low_tail_defect():
    trials, n = 10**5, 20
    rng = np.random.default_rng(202)
    zeros = 0
    for _ in range(trials):
        p = conformal_pvalue(rng.standard_normal(n), rng.standard_normal(),
                             plus_one=False)
        zeros += p == 0.0
    rate = zeros / trials
    expected = 1.0 / (n + 1)
    se = math.sqrt(expected * (1 - expected) / trials)
    ok = abs(rate - expected) <= 3 * se
    _report("A2 verbatim formula hits zero at rate 1/(n+1)", ok,
            f"rate {rate:.5f} vs {expected:.5f} +/- {3 * se:.5f}")


def test_a3_active_pvalue_validity():
    trials, n = 10**5, 20
    start = time.perf_counter()
    worst = math.inf
    for gamma in (0.3, 0.7, 0.999):
        rng = np.random.default_rng(303)
        synth = 0.5 * rng.standard_normal((trials, n))  # variance x 0.25
        real = rng.standard_normal((trials, n))
        tests = rng.standard_normal(trials)
        zs = np.empty(trials)
        for i in range(trials):
            q = conformal_pvalue(synth[i], tests[i])
            u = draw_acquisition(q, gamma, rng)
            p = conformal_pvalue(real[i], tests[i]) if u else None
            zs[i] = active_pvalue(q, u, p, gamma)
        worst = min(worst, min(_ecdf_margins(zs, trials)))
    elapsed = time.perf_counter() - start
    ok = worst >= 0.0 and elapsed < 30.0
    _report("A3 active p-value validity under a biased twin", ok,
            f"min margin {worst:+.5f} over gamma grid, {elapsed:.1f}s")


def test_a3_fixed_pool_validity_on_null_streams():
    # the engine's active statistic, with q ranked against one synthetic
    # pool per run, lane and context, under a narrow, a matched and a wide
    # twin.  Given the pool, a context's z are independent across steps and
    # each P(z <= a | past) <= a, so a cell's count of z <= a is dominated
    # by a binomial(N, a); k bounds the false alarm rate of all the cells
    # together by ``family`` (Bonferroni over the normal tail)
    family, levels = 0.001, (0.01, 0.05, 0.1, 0.5)
    methods, scales, contexts = ("PP_COAD", "C_PP_COAD"), (0.25, 1, 4), 2
    k = NormalDist().inv_cdf(
        1 - family / (len(methods) * len(scales) * contexts * len(levels)))
    start = time.perf_counter()
    worst, worst_cell = math.inf, None
    for scale in scales:
        # 1/(n+1) <= alpha * (1 - delta): reachable, so the run must not warn
        cfg = config_from({
            "dataset": "gaussian", "method": ",".join(methods), "seed": "5",
            "alpha": "0.2", "delta": "0.9", "n": "60", "runs": "40",
            "steps": "500", "anomaly_rate": "0", "contexts": str(contexts),
            "twin_var_scale": str(scale), "score_train_size": "200",
            "twin_train_size": "200", "val_size": "100"})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            arts = run_benchmark(cfg)
        for name in methods:
            runs = arts.per_method[name].runs
            z = np.concatenate([s.z for s in runs])
            context = np.concatenate([s.context for s in runs])
            for c, a in itertools.product(range(contexts), levels):
                zc = z[context == c]
                margin = a + k * math.sqrt(a * (1 - a) / zc.size) \
                    - float(np.mean(zc <= a))
                if margin < worst:
                    worst, worst_cell = margin, (name, scale, c, a)
    elapsed = time.perf_counter() - start
    ok = worst >= 0.0 and elapsed < 30.0
    _report("A3 active statistic valid with a fixed synthetic pool", ok,
            f"min margin {worst:+.5f} at (method, twin_var_scale, context, "
            f"a) = {worst_cell}, k = {k:.2f}, {elapsed:.1f}s")


def test_a4_sfdr_control():
    start = time.perf_counter()
    cfg = config_from(dict(A4_BASE, method="C_PP_COAD,COAD,PP_COAD,C_COAD"))
    arts = run_benchmark(cfg)
    elapsed = time.perf_counter() - start
    worst_name, worst_excess = "", -math.inf
    for name, result in arts.per_method.items():
        s = result.summary
        excess = float(np.max(s.sfdr_mean - (cfg.alpha + 2 * s.sfdr_se)))
        if excess > worst_excess:
            worst_name, worst_excess = name, excess
    ok = worst_excess <= 0.0 and elapsed < 300.0
    _report("A4 sFDR control for guaranteed methods", ok,
            f"worst excess {worst_excess:+.4f} ({worst_name}), {elapsed:.0f}s")


def test_a4_sfdr_control_at_length():
    # one long stream with a mis-specified twin; 200-step blocks stand in
    # for the runs, and 1/(n+1) <= alpha * (1 - delta) keeps detections
    # reachable, so the run must not warn
    start = time.perf_counter()
    cfg = config_from({
        "dataset": "gaussian", "method": "C_PP_COAD", "seed": "1",
        "alpha": "0.2", "delta": "0.9", "n": "60", "runs": "1",
        "steps": "100000", "anomaly_rate": "0.1", "anomaly_shift": "4.0",
        "twin_var_scale": "0.25"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = run_benchmark(cfg).per_method["C_PP_COAD"].traces[0]
    elapsed = time.perf_counter() - start
    blocks = trace.sfdr.reshape(-1, 200)
    mean = blocks.mean(axis=0)
    se = blocks.std(axis=0, ddof=1) / math.sqrt(blocks.shape[0])
    excess = float(np.max(mean - 2 * se)) - cfg.alpha
    power = float(trace.power.mean())
    ok = excess <= 0.0 and power > 0.1 and elapsed < 10.0
    _report("A4 sFDR control on one long stream", ok,
            f"excess {excess:+.4f}, mean power {power:.3f}, "
            f"{elapsed:.1f}s")


def test_a5_prediction_only_violation():
    cfg = config_from(dict(A4_BASE, method="PO_COAD", twin_var_scale="0.25"))
    s = run_benchmark(cfg).per_method["PO_COAD"].summary
    excess = s.sfdr_mean - (cfg.alpha + 2 * s.sfdr_se)
    ok = bool((excess > 0).any())
    _report("A5 synthetic-only method violates the sFDR target", ok,
            f"max sfdr {float(np.max(s.sfdr_mean)):.3f} vs alpha 0.1")


def test_a6_lambda_tradeoff():
    lams = (1.0, 4.0, 7.0, 10.0)
    sweep = {}
    for alpha in (0.1, 0.2):
        for lam in lams:
            cfg = config_from(dict(
                A4_BASE, method="C_PP_COAD", runs="30", steps="100",
                twin_var_scale="0.25", alpha=str(alpha),
                **{"lambda": str(lam)}))
            s = run_benchmark(cfg).per_method["C_PP_COAD"].summary
            sweep[(alpha, lam)] = (float(s.cdar_mean[-1]),
                                   float(s.cdar_se[-1]),
                                   float(s.power_mean[-1]))
    cdar_ok = True
    for alpha in (0.1, 0.2):
        for lo, hi in zip(lams, lams[1:]):
            c_lo, se_lo, _ = sweep[(alpha, lo)]
            c_hi, se_hi, _ = sweep[(alpha, hi)]
            cdar_ok &= c_hi >= c_lo - math.hypot(se_lo, se_hi)
    power_ok = all(sweep[(0.2, lam)][2] >= sweep[(0.1, lam)][2]
                   for lam in lams)
    cdars = [round(sweep[(0.1, lam)][0], 2) for lam in lams]
    _report("A6 lambda governs the data-cost/power tradeoff",
            cdar_ok and power_ok,
            f"cdar across lambda {cdars}, "
            f"power(0.2) >= power(0.1) for each lambda: {power_ok}")


def test_a7_cdar_extremes():
    cfg = config_from(dict(A4_BASE, method="COAD,C_COAD,PO_COAD,C_PO_COAD",
                           runs="3", steps="40"))
    arts = run_benchmark(cfg)
    delta = cfg.delta
    expected = []
    acc = 0.0
    for _ in range(cfg.steps):
        acc = delta * acc + 1.0
        expected.append(acc)
    expected = np.asarray(expected)
    closed_form = (1.0 - delta ** np.arange(1, cfg.steps + 1)) / (1.0 - delta)
    assert np.allclose(expected, closed_form, rtol=1e-12)
    ok = True
    for name in ("COAD", "C_COAD"):
        for trace in arts.per_method[name].traces:
            ok &= bool(np.array_equal(trace.cdar, expected))
    for name in ("PO_COAD", "C_PO_COAD"):
        for trace in arts.per_method[name].traces:
            ok &= bool(np.all(trace.cdar == 0.0))
    _report("A7 acquisition-rate extremes are exact", ok,
            "always-real traces match the decayed sum bitwise, "
            "synthetic-only traces are identically zero")


def test_a8_threshold_identities():
    zetas = zeta_table()
    worst = 0.0
    for alpha, delta, eta in ((0.1, 0.99, 1.0), (0.2, 0.95, 1.0),
                              (0.05, 0.9, 0.5)):
        for t in (1, 2, 3, 7, 20, 60, 199):
            state = DetectorState(t=t, detection_times=(), alpha=alpha,
                                  delta=delta, eta=eta)
            manual = alpha * eta * max(zetas[t - 1], 1.0 - delta)
            worst = max(worst, abs(next_threshold(state) - manual))
            for rho in (1, t // 2, t - 1):
                if not 1 <= rho <= t - 1:
                    continue
                with_det = DetectorState(t=t, detection_times=(rho,),
                                         alpha=alpha, delta=delta, eta=eta)
                gain = alpha * delta ** (t - rho) * zetas[t - rho - 1]
                worst = max(worst, abs(next_threshold(with_det)
                                       - (manual + gain)))
    ok = worst <= 1e-12
    _report("A8 threshold schedule identities", ok,
            f"max absolute deviation {worst:.2e}")


def test_a9_pvalue_brute_force_oracle():
    start = time.perf_counter()
    checked = 0
    for n in range(1, 9):
        for cal in itertools.product(range(4), repeat=n):
            cal_arr = np.array(cal, dtype=float)
            for test in range(4):
                pool_rank = sum(1 for v in cal if v >= test) + 1  # test itself
                assert conformal_pvalue(cal_arr, float(test), plus_one=True) \
                    == pool_rank / (n + 1)
                assert conformal_pvalue(cal_arr, float(test), plus_one=False) \
                    == (pool_rank - 1) / (n + 1)
                checked += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 5.0
    _report("A9 exhaustive rank-oracle agreement", ok,
            f"{checked} configurations, {elapsed:.1f}s")


def test_a10_gap_and_trust_behavior():
    reps, size, lam = 100, 500, 5.0
    rng = np.random.default_rng(1010)
    matched = [superuniformity_gap(np.abs(rng.standard_normal(size)),
                                   np.abs(rng.standard_normal(size)))
               for _ in range(reps)]
    shrunk = [superuniformity_gap(np.abs(0.5 * rng.standard_normal(size)),
                                  np.abs(rng.standard_normal(size)))
              for _ in range(reps)]
    matched_ok = float(np.mean(matched)) <= 3.0 / math.sqrt(size)
    shrunk_hits = sum(d > 0.1 for d in shrunk)
    gamma_ok = all(
        abs(gamma_of_context(d, lam)
            - min(GAMMA_MAX, math.exp(-lam * max(0.0, d)))) <= 1e-12
        for d in itertools.chain(matched, shrunk))
    ok = matched_ok and shrunk_hits >= 95 and gamma_ok
    _report("A10 twin-gap sensitivity and trust map", ok,
            f"matched mean gap {np.mean(matched):.4f} <= "
            f"{3 / math.sqrt(size):.4f}; shrunk gap > 0.1 in "
            f"{shrunk_hits}/100; gamma map exact: {gamma_ok}")


def _conflict_oracle(graph, xa, pc):
    found = set()
    for p in range(graph.n_params):
        controllers = [a for a in range(graph.n_xapps)
                       if xa[a] and graph.xapp_param[a, p]]
        if len(controllers) >= 2:
            found.add("direct")
    for k in range(graph.n_kpis):
        movers = [p for p in range(graph.n_params)
                  if pc[p] and graph.param_kpi[p, k]]
        if len(movers) >= 2:
            found.add("indirect")
    for p, q in itertools.permutations(range(graph.n_params), 2):
        if pc[p] and pc[q] and graph.param_param[p, q]:
            found.add("implicit")
    return found


def test_a11_oran_generator_soundness():
    graph, samples = generate_oran(0, 1, n_samples=10000, anomaly_frac=0.1)
    nominal_ok = all(
        not check_conflicts(graph, s.xapp_active, s.param_changed,
                            s.kpi_changed)
        for s in samples if s.conflict == "none")
    n_anom = sum(1 for s in samples if s.conflict != "none")
    count_ok = n_anom == 1000
    small, _ = generate_oran(7, 8, n_samples=10, n_xapps=3, n_params=3,
                             n_kpis=2)
    oracle_ok = all(
        check_conflicts(small, bits[:3], bits[3:6], bits[6:])
        == _conflict_oracle(small, bits[:3], bits[3:6])
        for bits in itertools.product([0, 1], repeat=8))
    ok = nominal_ok and count_ok and oracle_ok
    _report("A11 conflict generator soundness", ok,
            f"nominals clean: {nominal_ok}; anomalies {n_anom}/10000; "
            f"exhaustive checker agreement: {oracle_ok}")


def test_a12_cli_end_to_end_determinism(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "method = C_PP_COAD,FIXED\ndataset = gaussian\nruns = 2\n"
        "steps = 12\nseed = 31\nn = 60\nscore_train_size = 200\n"
        "twin_train_size = 200\nval_size = 100\n")
    # the CLI process imports the coad that this test imported
    src = str(Path(coad.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    outputs = []
    for sub in ("one", "two"):
        out_dir = tmp_path / sub
        result = subprocess.run(
            [sys.executable, "-m", "coad.cli", "run", "--config",
             str(cfg_path), "--out", str(out_dir)],
            capture_output=True, text=True, timeout=300, env=env)
        assert result.returncode == 0, result.stderr
        outputs.append((
            (out_dir / "steps.csv").read_bytes(),
            (out_dir / "aggregate.csv").read_bytes(),
            json.loads((out_dir / "summary.json").read_text())["per_method"],
        ))
    ok = (outputs[0][0] == outputs[1][0]          # the criterion
          and outputs[0][1] == outputs[1][1]      # aggregates follow
          and outputs[0][2] == outputs[1][2])     # summaries follow
    _report("A12 end-to-end replay is byte-identical", ok,
            f"steps.csv bytes equal: {outputs[0][0] == outputs[1][0]}")
