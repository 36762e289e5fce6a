"""One repetition of one workload, in a fresh interpreter.

Sets up (imports coad, resolves the config, builds the zeta table and, for
the CSV workload, writes the O-RAN data), then times ``run_benchmark`` plus
``emit`` and checks the outputs.  Prints one JSON object as its last line.
run.py starts one of these per repetition; run it directly only to debug:

    PYTHONPATH=src python3 perfbench/worker.py --workload mc-a4 --seed 1 \
        --out /tmp/rep --trace 0
"""

from time import perf_counter

_START = perf_counter()  # set-up is timed from interpreter start-up

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# A single long stream has no second run to take a standard error over, so
# its sFDR check cuts the stream into blocks of A4's stream length and
# treats the blocks as the replicates.
SFDR_BLOCK = 200
# Schema contexts hold at least this many rows; a sparser activity level
# joins its neighbour so that every context can fit a scorer and a twin.
MIN_CONTEXT_ROWS = 60
_NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def context_bins(counts: dict[int, int]) -> list[float]:
    """Bin boundaries over the populated context ids, merging sparse ones."""
    bins, pending = [], 0
    for context in sorted(counts):
        pending += counts[context]
        if pending >= MIN_CONTEXT_ROWS:
            bins.append(context + 0.5)
            pending = 0
    if bins:  # closes the top group, or precedes a tail too short to stand
        bins.pop()
    return bins


def write_oran(out: Path, seed: int, samples: int) -> dict[str, str]:
    """O-RAN conflict data as CSV plus schema, as scripts/gen_oran_dataset.py
    writes them, except that the context bins skip empty and sparse levels.

    The control graph is the script's default (graph seed 0) on every seed;
    only the samples follow the seed.  How detectable conflicts are depends
    on the graph, so a graph per seed would make `power` swing by a fifth.
    """
    from coad.oran import generate_oran, samples_to_csv

    graph, rows = generate_oran(0, seed, samples)
    csv_path = out / "oran.csv"
    csv_path.write_text(samples_to_csv(graph, rows))
    lines = []
    for prefix, count in (("xapp", graph.n_xapps), ("param", graph.n_params),
                          ("kpi", graph.n_kpis)):
        lines += [f"feature.{prefix}_{i} = categorical" for i in range(count)]
    lines += ["label = conflict_type",
              "label.anomaly_values = direct,indirect,implicit",
              "context.column = context"]
    bins = context_bins(Counter(s.context for s in rows))
    if bins:
        lines.append("context.bins = " + ",".join(f"{b:g}" for b in bins))
    schema_path = out / "oran.schema"
    schema_path.write_text("\n".join(lines) + "\n")
    return {"csv_path": str(csv_path), "schema_path": str(schema_path)}


def warning_kind(w: warnings.WarningMessage) -> str:
    """Message with its numbers blanked, so one cause is one key."""
    return f"{w.category.__name__}: {_NUMBER.sub('#', str(w.message))}"


def sfdr_excess(result, alpha: float) -> float:
    """Worst max_t(sfdr_mean - 2 sfdr_se) - alpha, the A4 rule."""
    import numpy as np

    if len(result.traces) >= 2:
        s = result.summary
        return float(np.max(s.sfdr_mean - 2.0 * s.sfdr_se)) - alpha
    sfdr = result.traces[0].sfdr
    blocks = sfdr[: sfdr.size // SFDR_BLOCK * SFDR_BLOCK].reshape(-1, SFDR_BLOCK)
    if blocks.shape[0] < 2:
        raise ValueError("a single run needs at least two sFDR blocks")
    mean = blocks.mean(axis=0)
    se = blocks.std(axis=0, ddof=1) / np.sqrt(blocks.shape[0])
    return float(np.max(mean - 2.0 * se)) - alpha


def record_counts(arts, n: int) -> dict[str, float]:
    """Per-layer counts read from the step records."""
    from coad.harness import MethodVariant

    real_batches = adaptive_steps = adaptive_real = detections = 0
    max_history = 0
    for name, result in arts.per_method.items():
        method = MethodVariant(name)
        history = Counter()
        for run_idx, rec in result.records:
            real_batches += rec.u
            if method.acquisition == "active":
                adaptive_steps += 1
                adaptive_real += rec.u
            if method is not MethodVariant.FIXED and rec.decision:
                detections += 1
                history[run_idx] += 1
        max_history = max([max_history, *history.values()])
    return {
        "conformal.real_batches": real_batches,
        "conformal.real_rows": real_batches * n,
        "conformal.acquire_ratio": (adaptive_real / adaptive_steps
                                    if adaptive_steps else 0.0),
        "fdr.detections": detections,
        "fdr.max_history": max_history,
    }


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, stat in tracer.stats.items():
        if name == "harness":  # the root span: time in no layer below it
            out["harness.unattributed_s"] = stat.self_s
            continue
        out[f"{name}.calls"] = stat.calls
        out[f"{name}.self_s"] = stat.self_s
        if stat.rows is not None:
            out[f"{name}.rows"] = stat.rows
    out.update(tracer.counts)
    return out


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def repetition(workload, seed: int, out: Path, traced: bool) -> dict:
    report: dict = {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        import numpy as np

        import coad
        from coad.fdr import build_zeta

        mapping = workload.mapping(seed)
        oran_s = 0.0
        if workload.oran_samples:
            oran_start = perf_counter()
            mapping.update(write_oran(out, seed, workload.oran_samples))
            oran_s = perf_counter() - oran_start
        cfg = coad.config_from(mapping)
        build_zeta()
        report["setup_s"] = perf_counter() - _START

        tracer = Tracer() if traced else None
        run, emit = coad.run_benchmark, coad.emit
        if tracer is not None:
            tracer.install()
            emit = tracer.wrap("harness.emit", emit)

        def job():
            arts = run(cfg)
            return arts, emit(arts, out / "emit")

        if tracer is not None:
            job = tracer.wrap("harness", job)  # the root span
        start = perf_counter()
        try:
            arts, paths = job()
        finally:
            report["wall_s"] = perf_counter() - start
            if tracer is not None:
                tracer.uninstall()

    report["numpy"] = np.__version__
    report["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["digests"] = {key: digest(paths[key])
                         for key in ("steps", "aggregate")}
    report["warnings"] = dict(Counter(warning_kind(w) for w in caught))

    guaranteed = [arts.per_method[m] for m in workload.guaranteed]
    report["power"] = float(np.mean(
        [r.summary.power_mean.mean() for r in guaranteed]))
    report["cdar"] = float(np.mean(
        [r.summary.cdar_mean.mean() for r in guaranteed]))
    report["sfdr_excess"] = {m: sfdr_excess(arts.per_method[m], cfg.alpha)
                             for m in workload.guaranteed}
    report["failed"] = sum(int(cfg.runs) for excess in
                           report["sfdr_excess"].values() if excess > 0.0)

    if tracer is not None:
        layers = layer_metrics(tracer)
        layers.update(record_counts(arts, int(cfg.n)))
        layers["harness.emit.bytes"] = sum(p.stat().st_size
                                           for p in paths.values())
        layers["twin.gamma_fallbacks"] = sum(
            1 for w in caught if "no validation inliers" in str(w.message))
        layers["oran.generate.self_s"] = oran_s
        report["layers"] = layers
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path,
                        help="empty scratch directory for this repetition")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    try:
        report = repetition(workload, args.seed, args.out, bool(args.trace))
    except Exception:  # reported to run.py, which counts the failure
        report = {"failed": workload.replicates,
                  "error": traceback.format_exc(limit=-3)}
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
