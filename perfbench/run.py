#!/usr/bin/env python3
"""coad benchmark: time one workload end to end, or trace it per layer.

Run from the repository root:

    python3 perfbench/run.py --workload mc-a4 --seed 1 --seconds 45 --trace 0

Each repetition runs in a fresh single-threaded interpreter (worker.py)
that sets up, times ``run_benchmark`` + ``emit`` and checks its outputs.
Repetitions continue until ``--seconds`` is spent (at least three).  With
``--trace 1``, at least one untraced repetition is followed by one with
every layer wrapped in spans, and the per-layer metrics are reported
instead of the end-to-end ones.

Prints a JSON report (environment, digests, checks, warnings), then as the
last line ``{"correct", "attempted", "failed", "metrics"}`` with the metrics
BENCHMARK.json lists.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
MIN_REPS = 3
MIN_REPS_TRACED = 1  # untraced repetitions before the traced one
DEADLINE_S = 170.0  # the whole run, set-up included, ends before this
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def run_repetition(workload: str, seed: int, traced: bool,
                   scratch: Path, timeout: float) -> dict:
    out = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **SINGLE_THREAD)
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
           "--workload", workload, "--seed", str(seed), "--out", str(out),
           "--trace", str(int(traced))]
    start = perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    report = json.loads(lines[-1])
    report["process_s"] = perf_counter() - start
    return report


def environment(seed: int, workload, numpy_version: str | None) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in (ROOT / "src").rglob("*.py"))
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy_version,
            "seed": seed, "src_lines": src_lines,
            "workload": workload.name, "why": workload.why,
            "config": workload.mapping(seed),
            "detections_reachable": workload.reachable}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = perf_counter()

    if not (ROOT / "src" / "coad" / "__init__.py").is_file():
        print(f"no coad sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)

    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    reps: list[dict] = []
    try:
        # untraced repetitions until the measured time is spent; a traced
        # run keeps room for its traced repetition (about 1.5 untraced ones)
        floor = MIN_REPS_TRACED if traced else MIN_REPS
        reserve = 1.5 if traced else 0.0
        while True:
            left = DEADLINE_S - (perf_counter() - started)
            reps.append(run_repetition(args.workload, args.seed, False,
                                       scratch, left))
            if "error" in reps[-1]:
                break
            typical = statistics.median(r["process_s"] for r in reps)
            elapsed = perf_counter() - started
            if len(reps) >= floor and \
                    elapsed + (1.0 + reserve) * typical > args.seconds:
                break
            if elapsed + (2.0 + reserve) * typical > DEADLINE_S:
                break
        trace_rep = None
        if traced and "error" not in reps[-1]:
            left = DEADLINE_S - (perf_counter() - started)
            trace_rep = run_repetition(args.workload, args.seed, True,
                                       scratch, left)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    everything = reps + ([trace_rep] if trace_rep else [])
    ok = [r for r in everything if "error" not in r]
    attempted = workload.replicates * len(everything)
    failed = sum(r.get("failed", workload.replicates) for r in everything)
    checks = {"no_errors": len(ok) == len(everything)}
    if ok:
        # the traced repetition is among them: tracing must not change a byte
        differ = [r for r in ok if r["digests"] != ok[0]["digests"]]
        checks["identical_outputs"] = not differ
        failed += workload.replicates * len(differ)
        checks["sfdr_controlled"] = all(
            excess <= 0.0 for r in ok for excess in r["sfdr_excess"].values())
    untraced = [r for r in reps if "error" not in r]
    metrics: dict[str, float] = {}
    if untraced:
        wall = statistics.median(r["wall_s"] for r in untraced)
        metrics.update({
            "setup_s": statistics.median(r["setup_s"] for r in untraced),
            "wall_s": wall,
            "step_us": wall * 1e6 / workload.detector_steps,
            "peak_rss_mb": statistics.median(
                r["peak_rss_mb"] for r in untraced),
            "power": untraced[0]["power"],
            "cdar": untraced[0]["cdar"],
        })
    if trace_rep is not None and "error" not in trace_rep:
        layers = trace_rep["layers"]
        metrics.update(layers)
        metrics["trace.overhead_s"] = trace_rep["wall_s"] - metrics["wall_s"]
        self_total = sum(v for k, v in layers.items()
                         if k.endswith(".self_s") and not k.startswith("oran."))
        self_total += layers["harness.unattributed_s"]
        # the spans cover the traced region exactly, up to the cost of
        # opening and closing the root span
        checks["spans_cover_wall"] = abs(self_total - trace_rep["wall_s"]) \
            <= 1e-3 + 1e-6 * trace_rep["wall_s"]

    wanted = spec["per_layer" if traced else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    correct = all(checks.values()) and failed == 0 and not missing
    report = {
        "environment": environment(args.seed, workload,
                                   ok[0].get("numpy") if ok else None),
        "repetitions": [{k: r.get(k) for k in (
            "setup_s", "wall_s", "peak_rss_mb", "process_s", "error")}
            for r in everything],
        "digests": ok[0]["digests"] if ok else None,
        "warnings": ok[0]["warnings"] if ok else None,
        "sfdr_excess": ok[0]["sfdr_excess"] if ok else None,
        "checks": checks,
        "missing_metrics": missing,
    }
    if trace_rep is not None and "layers" in trace_rep:
        report["layers"] = trace_rep["layers"]
    print(json.dumps(report, indent=2, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
