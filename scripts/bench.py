#!/usr/bin/env python3
"""Write a BENCH file: the benchmark's metrics on every workload, plus the
tier-1 test time and the size of the source tree.

Run from the repository root:

    python3 scripts/bench.py --out BENCH_<n>.json --seed 1 --seconds 45

For each workload of perfbench/workloads.py it runs perfbench/run.py twice,
with ``--trace 0`` for the end-to-end metrics and with ``--trace 1`` for
the per-layer split, one run after another.  It then times the tier-1
suite.  It uses only the standard library; the benchmark runs measure
themselves, and the suite is timed with ``time.perf_counter``.
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

from workloads import WORKLOADS  # noqa: E402


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


def tier1() -> dict:
    """Wall time and summary line of the tier-1 suite."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=ROOT, env=env, capture_output=True, text=True)
    wall = perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "exit_code": proc.returncode,
            "summary": lines[-1] if lines else proc.stderr.strip()[-500:]}


def src_lines() -> int:
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in (ROOT / "src").rglob("*.py"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path,
                        help="the BENCH JSON file to write")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="measured time of each perfbench run")
    args = parser.parse_args()

    workloads, environment = {}, None
    for name in WORKLOADS:
        timed = perfbench(name, args.seed, args.seconds, trace=0)
        traced = perfbench(name, args.seed, args.seconds, trace=1)
        env = timed["report"]["environment"]
        environment = environment or {
            "machine": platform.machine(), "cpu": env["cpu"],
            "nproc": env["nproc"], "python": env["python"],
            "numpy": env["numpy"]}
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
        "src_lines": src_lines(),
        "tier1": tier1(),
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
