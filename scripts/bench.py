#!/usr/bin/env python3
"""Write a BENCH file: the benchmark's metrics on every workload, plus the
tier-1 test time and the size of the source tree.

Run from the repository root:

    python3 scripts/bench.py --out BENCH_<n>.json --seed 1 --seconds 45

For each workload of perfbench/workloads.py it runs perfbench/run.py twice,
with ``--trace 0`` for the end-to-end metrics and with ``--trace 1`` for
the per-layer split, one run after another.  It then times the tier-1
suite and probes peak memory, each probe in a fresh interpreter: the fixed
footprint of set-up alone (``import coad``, ``config_from`` of the
``long-stream`` config and ``build_zeta()``), and how the peak grows with
stream length: the ``long-stream`` config at each of STREAM_LENGTHS steps.
Last, it times one many-contexts config at each of CONTEXT_COUNTS
contexts, to show how the engine's cost grows with the context count.
It uses only the standard library; the benchmark runs measure themselves,
the suite is timed with ``time.perf_counter``, and a probe times its run
and reads its own peak RSS.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from run import SINGLE_THREAD  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Steps of the long-stream config whose peak RSS the memory probe compares;
# the growth between the two, per added step, is what a step costs at peak.
STREAM_LENGTHS = (20_000, 200_000)
# Context counts of the context-scaling probe.  Each context keeps the
# same rows (see context_mapping), so only the number of contexts grows.
CONTEXT_COUNTS = (2, 128)
# One fresh interpreter's config_from, run_benchmark and emit of the JSON
# config mapping in argv[1]; prints the seconds that run_benchmark and
# emit took, then its peak RSS in MB.
PROBE = """
import json, resource, sys, tempfile
from time import perf_counter
from coad import config_from, emit, run_benchmark
cfg = config_from(json.loads(sys.argv[1]))
start = perf_counter()
with tempfile.TemporaryDirectory() as out:
    emit(run_benchmark(cfg), out)
print(perf_counter() - start,
      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
"""
# The same up to the run: what every run holds before its first step.
SETUP_PROBE = """
import json, resource, sys
from coad import config_from
from coad.fdr import build_zeta
config_from(json.loads(sys.argv[1]))
build_zeta()
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
"""


def perfbench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run perfbench/run.py once; its report plus its last-line verdict."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    report, _, verdict = proc.stdout.rstrip().rpartition("\n")
    return {"report": json.loads(report), "verdict": json.loads(verdict)}


def values(verdict: dict) -> dict[str, float]:
    return {name: metric["value"]
            for name, metric in verdict["metrics"].items()}


def source_env(**extra: str) -> dict[str, str]:
    """This environment with the source tree first on PYTHONPATH."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def tier1() -> dict:
    """Wall time and summary line of the tier-1 suite."""
    env = source_env()
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=ROOT, env=env, capture_output=True, text=True)
    wall = perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "exit_code": proc.returncode,
            "summary": lines[-1] if lines else proc.stderr.strip()[-500:]}


def probe(mapping: dict[str, str], code: str = PROBE) -> list[float]:
    """The numbers that one single-threaded probe ``code`` of the config
    ``mapping`` prints; the last is its peak RSS in MB."""
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(mapping)], cwd=ROOT,
        env=source_env(**SINGLE_THREAD), capture_output=True, text=True,
        check=True)
    return [float(value) for value in proc.stdout.split()]


def stream_memory(seed: int) -> dict:
    """Peak RSS of the long-stream config at each of STREAM_LENGTHS, and
    its growth in bytes per added step."""
    mapping = WORKLOADS["long-stream"].mapping(seed)
    peaks = {steps: probe(dict(mapping, steps=str(steps)))[-1]
             for steps in STREAM_LENGTHS}
    short, long = STREAM_LENGTHS
    return {"peak_rss_mb": {str(steps): mb for steps, mb in peaks.items()},
            "bytes_per_step": (peaks[long] - peaks[short]) * 2**20
            / (long - short)}


def context_mapping(seed: int, contexts: int) -> dict[str, str]:
    """C_COAD and C_PP_COAD over one 5,000-step run at n = 1100, with 100
    score- and 100 generator-training rows and 50 validation rows per
    context."""
    return {"method": "C_COAD,C_PP_COAD", "runs": "1", "steps": "5000",
            "n": "1100", "seed": str(seed), "contexts": str(contexts),
            "score_train_size": str(100 * contexts),
            "twin_train_size": str(100 * contexts), "val_size": "50"}


def context_scaling(seed: int) -> dict:
    """Wall time and peak RSS of the context_mapping config at each of
    CONTEXT_COUNTS contexts, each in a fresh interpreter."""
    runs = {}
    for contexts in CONTEXT_COUNTS:
        mapping = context_mapping(seed, contexts)
        wall, peak = probe(mapping)
        runs[str(contexts)] = {"config": mapping, "wall_s": wall,
                               "peak_rss_mb": peak}
    return runs


def fixed_memory(seed: int) -> dict:
    """Peak RSS of set-up alone, the footprint a run starts from."""
    mapping = WORKLOADS["long-stream"].mapping(seed)
    return {"peak_rss_mb": probe(mapping, SETUP_PROBE)[-1]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path,
                        help="the BENCH JSON file to write")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="measured time of each perfbench run")
    args = parser.parse_args()

    workloads, environment, src_lines = {}, None, None
    for name in WORKLOADS:
        timed = perfbench(name, args.seed, args.seconds, trace=0)
        traced = perfbench(name, args.seed, args.seconds, trace=1)
        env = timed["report"]["environment"]
        environment = environment or {
            "machine": platform.machine(), "cpu": env["cpu"],
            "nproc": env["nproc"], "python": env["python"],
            "numpy": env["numpy"]}
        src_lines = env["src_lines"]
        workloads[name] = {
            "config": env["config"],
            "correct": timed["verdict"]["correct"],
            "failed": timed["verdict"]["failed"],
            "attempted": timed["verdict"]["attempted"],
            "repetitions": len(timed["report"]["repetitions"]),
            "end_to_end": values(timed["verdict"]),
            "digests": timed["report"]["digests"],
            "traced_correct": traced["verdict"]["correct"],
            "missing_metrics": traced["report"]["missing_metrics"],
            "layers": values(traced["verdict"]),
        }
        print(f"{name}: {workloads[name]['end_to_end']}", file=sys.stderr)

    bench = {
        "environment": environment,
        "seed": args.seed,
        "seconds": args.seconds,
        "src_lines": src_lines,
        "fixed_memory": fixed_memory(args.seed),
        "stream_memory": stream_memory(args.seed),
        "context_scaling": context_scaling(args.seed),
        "tier1": tier1(),
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
