"""Command-line entry points: `run` executes a benchmark, `gen-oran` writes
the synthetic conflict dataset to disk with a schema and a ready config.

One preset ships in ``configs/``: ``coad run --config configs/gaussian.cfg``.
For O-RAN data, ``coad gen-oran --out D`` writes ``D/benchmark.cfg``, which
``coad run --config D/benchmark.cfg`` runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .data import parse_kv_file
from .harness import CONFIG_KEYS, config_from, emit, run_benchmark
from .oran import generate_oran, graph_to_json, samples_to_csv, schema_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coad",
        description="Streaming conformal anomaly detection benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="run a configured benchmark",
        description="Every config key is a flag (underscores as dashes), "
                    "parsed like the key; flags override the config file.")
    run_p.add_argument("--config", help="key=value config file")
    for key in CONFIG_KEYS:
        run_p.add_argument("--" + key.replace("_", "-"), dest=key)

    gen_p = sub.add_parser("gen-oran", help="write the synthetic conflict "
                                            "dataset as CSV plus graph JSON, "
                                            "schema and benchmark config")
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
    cfg = config_from(mapping, **{key: getattr(args, key)
                                  for key in CONFIG_KEYS})
    artifacts = run_benchmark(cfg)
    paths = emit(artifacts, cfg.out_dir)
    summary = json.loads(paths["summary"].read_text(encoding="utf-8"))
    for name in artifacts.per_method:
        s = summary["per_method"][name]
        print(f"{name}: final sfdr={s['final_sfdr']:.4f} "
              f"max_sfdr={s['max_sfdr_t']:.4f} "
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
    for name, text in (
            ("oran.csv", samples_to_csv(graph, samples)),
            ("graph.json", graph_to_json(graph) + "\n"),
            ("oran.schema", schema_text(graph, samples)),
            ("benchmark.cfg",
             "method = COAD,C_COAD,C_PO_COAD,C_PP_COAD,FIXED\n"
             "dataset = csv\n"
             f"csv_path = {out / 'oran.csv'}\n"
             f"schema_path = {out / 'oran.schema'}\n"
             "delta = 0.8\nsteps = 50\nruns = 20\n")):
        (out / name).write_text(text, encoding="utf-8")
    n_conflicts = sum(1 for s in samples if s.conflict != "none")
    print(f"wrote {len(samples)} samples ({n_conflicts} with conflicts) "
          f"to {out}")
    print(f"next: coad run --config {out / 'benchmark.cfg'} "
          f"--out {out / 'results'}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return (_cmd_run if args.command == "run" else _cmd_gen_oran)(args)
    except (OSError, ValueError) as exc:  # an input fault, not a failed run
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
