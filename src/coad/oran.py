"""Synthetic O-RAN conflict dataset: tripartite control graph, nominal and
conflicting samples, and the conflict checker.

The graph has xApp, parameter, and KPI nodes.  xApp->parameter edges say
which parameters an xApp controls, parameter->KPI edges which KPIs a
parameter affects, and parameter->parameter edges couple parameters.  Each
possible edge is drawn independently with probability one half, and the
graph stays fixed across all samples.  A sample records one binary state
per node; three conflict types can occur:

  direct   - two or more active xApps control a common parameter,
  indirect - two distinct changed parameters affect a common KPI,
  implicit - two changed parameters are joined by a coupling edge.

Samples are drawn for all rows at once and repaired in rounds: in each
round every row that still has an offender clears one, drawn uniformly, so
each row follows the law of a one-sample-at-a-time repair.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .scoring import lower_quantile

CONFLICT_TYPES = ("direct", "indirect", "implicit")

__all__ = [
    "CONFLICT_TYPES",
    "OranGraph",
    "OranSample",
    "generate_oran",
    "check_conflicts",
    "feasible_conflicts",
    "activity",
    "activity_context",
    "graph_to_json",
    "samples_to_csv",
    "schema_text",
]


@dataclass(frozen=True, eq=False)
class OranGraph:
    """Fixed tripartite control graph as three boolean adjacency matrices."""

    xapp_param: np.ndarray   # (n_xapps, n_params)
    param_kpi: np.ndarray    # (n_params, n_kpis)
    param_param: np.ndarray  # (n_params, n_params), no self-loops

    def __post_init__(self) -> None:
        if np.any(np.diag(self.param_param)):
            raise ValueError("parameter coupling must not contain self-loops")
        for name in ("xapp_param", "param_kpi", "param_param"):
            getattr(self, name).flags.writeable = False

    @property
    def n_xapps(self) -> int:
        return self.xapp_param.shape[0]

    @property
    def n_params(self) -> int:
        return self.xapp_param.shape[1]

    @property
    def n_kpis(self) -> int:
        return self.param_kpi.shape[1]

    @property
    def out_degrees(self) -> np.ndarray:
        """Number of parameters each xApp controls."""
        return self.xapp_param.sum(axis=1)

    @classmethod
    def random(cls, rng: np.random.Generator, n_xapps: int = 10,
               n_params: int = 15, n_kpis: int = 5,
               edge_prob: float = 0.5) -> "OranGraph":
        xp = rng.random((n_xapps, n_params)) < edge_prob
        pk = rng.random((n_params, n_kpis)) < edge_prob
        pp = rng.random((n_params, n_params)) < edge_prob
        np.fill_diagonal(pp, False)
        return cls(xp, pk, pp)


@dataclass(frozen=True, eq=False)
class OranSample:
    """Binary node states plus the injected conflict type and context."""

    xapp_active: np.ndarray
    param_changed: np.ndarray
    kpi_changed: np.ndarray
    conflict: str            # "none" or one of CONFLICT_TYPES
    context: int = 0

    def features(self) -> np.ndarray:
        return np.concatenate([self.xapp_active, self.param_changed,
                               self.kpi_changed]).astype(float)


def _hits(state: np.ndarray, adjacency: np.ndarray) -> np.ndarray:
    """How many set entries of each state row reach each column (float32:
    a BLAS product, exact below 2**24 nodes)."""
    return np.matmul(state, adjacency, dtype=np.float32)


def _conflicts(graph: OranGraph, xa: np.ndarray, pc: np.ndarray
               ) -> np.ndarray:
    """Which of CONFLICT_TYPES each row of node states shows, as a
    (rows, 3) boolean array."""
    return np.stack([
        (_hits(xa, graph.xapp_param) >= 2).any(axis=1),
        (_hits(pc, graph.param_kpi) >= 2).any(axis=1),
        (pc & (_hits(pc, graph.param_param) > 0)).any(axis=1)], axis=1)


def check_conflicts(graph: OranGraph, xapp_active, param_changed,
                    kpi_changed=None) -> set[str]:
    """Conflict types present in a node-state assignment."""
    shown = _conflicts(graph, np.asarray(xapp_active, dtype=bool)[None],
                       np.asarray(param_changed, dtype=bool)[None])[0]
    return {kind for kind, hit in zip(CONFLICT_TYPES, shown) if hit}


def _witnesses(graph: OranGraph) -> dict[str, np.ndarray]:
    """Per feasible conflict type, what an injection of it picks from."""
    found = {"direct": np.flatnonzero(graph.xapp_param.sum(axis=0) >= 2),
             "indirect": np.flatnonzero(graph.param_kpi.sum(axis=0) >= 2),
             "implicit": np.argwhere(graph.param_param)}
    return {kind: picks for kind, picks in found.items() if len(picks)}


def feasible_conflicts(graph: OranGraph) -> tuple[str, ...]:
    """Conflict types the graph can express at all."""
    return tuple(_witnesses(graph))


def _nth(mask: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Column of each row's k-th (from 0) set entry."""
    return (mask.cumsum(axis=1) <= k[:, None]).sum(axis=1)


def _shared(state: np.ndarray, adjacency: np.ndarray) -> np.ndarray:
    """Set entries that reach a column which two or more set entries reach."""
    twice = _hits(state, adjacency) >= 2
    return state & (_hits(twice, adjacency.T) > 0)


def _clear(state: np.ndarray, offenders, rng: np.random.Generator) -> None:
    """Clear offenders of ``state`` in place, in rounds: in each, every row
    that has some clears one, drawn uniformly among them."""
    rows = np.arange(len(state))
    while True:
        hit = offenders(state[rows])
        counts = hit.sum(axis=1)
        left = counts > 0
        if not left.any():
            return
        rows, hit = rows[left], hit[left]
        state[rows, _nth(hit, rng.integers(counts[left]))] = False


def _inject(graph: OranGraph, xa: np.ndarray, pc: np.ndarray, rows,
            rng: np.random.Generator) -> np.ndarray:
    """Give each of ``rows`` a minimal witness of a uniformly drawn feasible
    conflict type: a witness of it, then two distinct members.  Returns
    every sample's conflict type, "none" off ``rows``."""
    kinds = np.full(len(xa), "none", dtype=object)
    witnesses = _witnesses(graph)
    drawn = rng.integers(len(witnesses), size=len(rows))
    for i, (kind, picks) in enumerate(witnesses.items()):
        at = rows[drawn == i]
        kinds[at] = kind
        pick = picks[rng.integers(len(picks), size=len(at))]
        if kind == "implicit":  # pick is a coupling edge
            pc[at, pick[:, 0]] = pc[at, pick[:, 1]] = True
        else:
            state, members = ((xa, graph.xapp_param) if kind == "direct"
                              else (pc, graph.param_kpi))
            members = members[:, pick].T  # each row's witness's members
            counts = members.sum(axis=1)
            first = rng.integers(counts)
            second = rng.integers(counts - 1)
            second += second >= first
            state[at, _nth(members, first)] = True
            state[at, _nth(members, second)] = True
            if kind == "direct":
                pc[at, pick] = True
        shown = _conflicts(graph, xa[at], pc[at])
        assert shown[:, CONFLICT_TYPES.index(kind)].all(), \
            "injected conflict not visible to the checker"
    return kinds


def generate_oran(graph_seed: int, sample_seed: int, n_samples: int = 10000,
                  anomaly_frac: float = 0.1, n_xapps: int = 10,
                  n_params: int = 15, n_kpis: int = 5
                  ) -> tuple[OranGraph, list[OranSample]]:
    """Generate one fixed graph and a count-controlled mix of samples.

    Exactly round(n_samples * anomaly_frac) samples carry a conflict; their
    positions are shuffled.  Contexts bin each sample's activity at the
    batch's lower activity quartiles.
    """
    for name, count in (("n_samples", n_samples), ("n_xapps", n_xapps),
                        ("n_params", n_params), ("n_kpis", n_kpis)):
        if count < 1:
            raise ValueError(f"{name} must be >= 1")
    if not 0.0 <= anomaly_frac < 1.0:
        raise ValueError("anomaly_frac must lie in [0, 1)")
    graph = OranGraph.random(np.random.default_rng(graph_seed),
                             n_xapps, n_params, n_kpis)
    if not feasible_conflicts(graph):
        raise ValueError("graph admits no conflict type at all; "
                         "try another graph_seed")
    rng = np.random.default_rng(sample_seed)
    anomalies = rng.permutation(n_samples)[:round(n_samples * anomaly_frac)]
    # repair: deactivate one xApp of each direct conflict, then revert one
    # changed parameter of each implicit and each indirect one, which keeps
    # xApp activity -- and hence the contexts -- diverse
    xa = rng.random((n_samples, n_xapps)) < 0.5
    _clear(xa, lambda s: _shared(s, graph.xapp_param), rng)
    pc = _hits(xa, graph.xapp_param) > 0
    couples = graph.param_param | graph.param_param.T
    _clear(pc, lambda s: s & (_hits(s, couples) > 0), rng)
    _clear(pc, lambda s: _shared(s, graph.param_kpi), rng)
    kinds = _inject(graph, xa, pc, anomalies, rng)
    rows = np.concatenate([xa, pc, _hits(pc, graph.param_kpi) > 0], axis=1)
    acts = activity(graph, rows)
    boundaries = [lower_quantile(acts, q) for q in (0.25, 0.5, 0.75)]
    split = n_xapps + n_params
    return graph, [
        OranSample(row[:n_xapps], row[n_xapps:split], row[split:], kind, c)
        for row, kind, c in zip(rows, kinds.tolist(),
                                activity_context(acts, boundaries).tolist())]


def activity(graph: OranGraph, features: np.ndarray) -> np.ndarray:
    """Active xApp->parameter control edges of each row of a sample feature
    matrix; only its first n_xapps columns, the xApp states, are read."""
    return features[:, :graph.n_xapps] @ graph.out_degrees


def activity_context(acts: np.ndarray, boundaries) -> np.ndarray:
    """Context of each activity level: the number of boundaries at or below
    it (right-open bins, the last one closed)."""
    return (acts[:, None] >= np.asarray(boundaries)[None, :]).sum(axis=1)


# --- persistence ------------------------------------------------------------


def graph_to_json(graph: OranGraph) -> str:
    """Adjacency lists keyed by edge set."""
    payload = {
        "xapp_param": [np.flatnonzero(row).tolist() for row in graph.xapp_param],
        "param_kpi": [np.flatnonzero(row).tolist() for row in graph.param_kpi],
        "param_param": [np.flatnonzero(row).tolist() for row in graph.param_param],
        "counts": {"xapps": graph.n_xapps, "params": graph.n_params,
                   "kpis": graph.n_kpis},
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _node_columns(graph: OranGraph) -> list[str]:
    return [f"{node}_{i}" for node, count in (
        ("xapp", graph.n_xapps), ("param", graph.n_params),
        ("kpi", graph.n_kpis)) for i in range(count)]


def samples_to_csv(graph: OranGraph, samples) -> str:
    """One binary column per node plus conflict_type and context."""
    header = _node_columns(graph)
    states = np.concatenate([np.empty(0, bool)] + [
        a for s in samples for a in (s.xapp_active, s.param_changed,
                                     s.kpi_changed)])
    # each row's "s,s,...,s," prefix, cut from one digit/comma byte matrix
    cells = np.full((states.size, 2), ord(","), dtype=np.uint8)
    cells[:, 0] = ord("0") + states
    prefixes, width = cells.tobytes().decode(), 2 * len(header)
    lines = [",".join(header + ["conflict_type", "context"])] + [
        f"{prefixes[i * width:(i + 1) * width]}{s.conflict},{s.context}"
        for i, s in enumerate(samples)]
    return "\n".join(lines) + "\n"


# A schema context holds at least this many rows, so that every context can
# fit a scorer and a twin.
MIN_CONTEXT_ROWS = 60


def schema_text(graph: OranGraph, samples) -> str:
    """The csv-dataset schema of ``samples_to_csv``'s output: every node a
    categorical feature, conflict_type the label, and bins over the context
    column in which a level of fewer than MIN_CONTEXT_ROWS rows joins the
    level above it, and a short top tail joins the level below."""
    bins, pending = [], 0
    for context, count in enumerate(np.bincount([s.context for s in samples])):
        pending += count
        if pending >= MIN_CONTEXT_ROWS:
            bins.append(context + 0.5)
            pending = 0
    if bins:  # closes the top group, or precedes a tail too short to stand
        bins.pop()
    lines = [f"feature.{name} = categorical" for name in _node_columns(graph)]
    lines += ["label = conflict_type",
              "label.anomaly_values = " + ",".join(CONFLICT_TYPES),
              "context.column = context"]
    if bins:
        lines.append("context.bins = " + ",".join(f"{b:g}" for b in bins))
    return "\n".join(lines) + "\n"
