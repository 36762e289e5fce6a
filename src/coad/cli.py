"""Command-line entry points: `run` executes a benchmark, `gen-oran` writes
the synthetic conflict dataset to disk."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .data import parse_kv_file
from .harness import config_from, emit, run_benchmark
from .oran import generate_oran, graph_to_json, samples_to_csv


def _bool_flag(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    raise argparse.ArgumentTypeError("expected 'true' or 'false'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coad",
        description="Streaming conformal anomaly detection benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a configured benchmark")
    run_p.add_argument("--config", help="key=value config file")
    run_p.add_argument("--method",
                       help="method name, comma list, or 'all'")
    run_p.add_argument("--alpha", type=float, help="target error level")
    run_p.add_argument("--delta", type=float, help="memory decay factor")
    run_p.add_argument("--lambda", dest="lam", type=float,
                       help="trust decay for the acquisition parameter")
    run_p.add_argument("--seed", type=int, help="master seed")
    run_p.add_argument("--runs", type=int, help="Monte Carlo replicates")
    run_p.add_argument("--steps", type=int, help="timesteps per run")
    run_p.add_argument("--dataset", choices=("csv", "oran", "gaussian"))
    run_p.add_argument("--out", dest="out_dir", help="output directory")
    run_p.add_argument("--plus-one", dest="plus_one", type=_bool_flag,
                       metavar="true|false",
                       help="use the offset p-value numerator (default true)")

    gen_p = sub.add_parser("gen-oran", help="write the synthetic conflict "
                                            "dataset as CSV plus graph JSON")
    gen_p.add_argument("--graph-seed", type=int, default=0)
    gen_p.add_argument("--sample-seed", type=int, default=1)
    gen_p.add_argument("--samples", type=int, default=10000)
    gen_p.add_argument("--anomaly-frac", type=float, default=0.1)
    gen_p.add_argument("--xapps", type=int, default=10)
    gen_p.add_argument("--params", type=int, default=15)
    gen_p.add_argument("--kpis", type=int, default=5)
    gen_p.add_argument("--out", default="oran_data")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    mapping = parse_kv_file(args.config) if args.config else {}
    overrides = {name: getattr(args, name) for name in
                 ("method", "alpha", "delta", "lam", "seed", "runs", "steps",
                  "dataset", "out_dir", "plus_one")
                 if getattr(args, name, None) is not None}
    cfg = config_from(mapping, **overrides)
    artifacts = run_benchmark(cfg)
    paths = emit(artifacts, cfg.out_dir)
    summary = json.loads(paths["summary"].read_text(encoding="utf-8"))
    for name in artifacts.per_method:
        s = summary["per_method"][name]
        print(f"{name}: final sfdr={s['final_sfdr']:.4f} "
              f"power={s['final_power']:.4f} cdar={s['final_cdar']:.4f} "
              f"sfdr_controlled={s['sfdr_controlled']}")
    print(f"artifacts written to {paths['steps'].parent}")
    return 0


def _cmd_gen_oran(args: argparse.Namespace) -> int:
    graph, samples = generate_oran(
        args.graph_seed, args.sample_seed, args.samples, args.anomaly_frac,
        args.xapps, args.params, args.kpis)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "oran.csv").write_text(samples_to_csv(graph, samples),
                                  encoding="utf-8")
    (out / "graph.json").write_text(graph_to_json(graph) + "\n",
                                    encoding="utf-8")
    n_conflicts = sum(1 for s in samples if s.conflict != "none")
    print(f"wrote {len(samples)} samples ({n_conflicts} with conflicts) "
          f"to {out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_gen_oran(args)


if __name__ == "__main__":
    sys.exit(main())
