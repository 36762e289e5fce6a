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

Samples are repaired on Python-int bitmasks of the graph, built once per
``generate_oran`` call.  Each uniform pick makes ``rng.choice``'s draw, so
the samples equal a per-sample numpy repair's, draw for draw.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import Table
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
    "samples_to_table",
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


def check_conflicts(graph: OranGraph, xapp_active, param_changed,
                    kpi_changed=None) -> set[str]:
    """Conflict types present in a node-state assignment."""
    xa = np.asarray(xapp_active, dtype=bool)
    pc = np.asarray(param_changed, dtype=bool)
    found = set()
    controllers = (xa[:, None] & graph.xapp_param).sum(axis=0)
    if np.any(controllers >= 2):
        found.add("direct")
    influencers = (pc[:, None] & graph.param_kpi).sum(axis=0)
    if np.any(influencers >= 2):
        found.add("indirect")
    coupled = pc[:, None] & pc[None, :] & graph.param_param
    if np.any(coupled):
        found.add("implicit")
    return found


def _witnesses(graph: OranGraph) -> dict[str, np.ndarray]:
    """Per feasible conflict type, what an injection of it picks from."""
    found = {"direct": np.flatnonzero(graph.xapp_param.sum(axis=0) >= 2),
             "indirect": np.flatnonzero(graph.param_kpi.sum(axis=0) >= 2),
             "implicit": np.argwhere(graph.param_param)}
    return {kind: picks for kind, picks in found.items() if len(picks)}


def feasible_conflicts(graph: OranGraph) -> tuple[str, ...]:
    """Conflict types the graph can express at all."""
    return tuple(_witnesses(graph))


def _row_masks(adjacency: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as an int whose bit j is column j."""
    packed = np.packbits(adjacency, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _bits(masks: list[int], width: int) -> np.ndarray:
    """Bits 0..width-1 of each mask, one boolean row per mask."""
    size = (width + 7) // 8
    raw = b"".join(m.to_bytes(size, "little") for m in masks)
    return np.unpackbits(np.frombuffer(raw, np.uint8).reshape(-1, size),
                         axis=1, count=width, bitorder="little").view(bool)


def _reach(members: list[int], masks: list[int]) -> tuple[int, int]:
    """The bits that at least one, and at least two, members' masks set."""
    once = twice = 0
    for m in members:
        twice |= once & masks[m]
        once |= masks[m]
    return once, twice


def _pick(cands, rng: np.random.Generator):
    """One uniform pick: the draw that ``rng.choice(cands)`` makes."""
    return cands[rng.integers(len(cands))]


def _repair(masks: tuple[list[int], list[int], list[int]],
            rng: np.random.Generator) -> tuple[int, int, int]:
    """Draw the xApp, parameter and KPI state masks with no conflict left:
    direct ones repaired by deactivating one participating xApp, implicit
    and indirect ones by reverting one offending parameter's change, which
    keeps xApp activity -- and hence the contexts -- diverse."""
    controls, affects, couples = masks
    active = (rng.random(len(controls)) < 0.5).nonzero()[0].tolist()
    while (hit := _reach(active, controls))[1]:  # parameters hit once, twice
        active.remove(_pick([a for a in active if controls[a] & hit[1]], rng))
    changed = hit[0]
    params = [p for p in range(len(couples)) if changed >> p & 1]
    while offenders := [p for p in params if couples[p] & changed]:
        params.remove(p := _pick(offenders, rng))
        changed ^= 1 << p
    while (hit := _reach(params, affects))[1]:  # KPIs hit once, twice
        params.remove(_pick([p for p in params if affects[p] & hit[1]], rng))
    return sum(1 << a for a in active), sum(1 << p for p in params), hit[0]


def _anomaly_sample(graph: OranGraph, masks, witnesses: dict[str, np.ndarray],
                    rng: np.random.Generator) -> tuple[int, int, int, str]:
    """Inject a minimal witness of a uniformly drawn feasible conflict type
    into a repaired draw; returns its state masks and the type."""
    xa, pc, _ = _repair(masks, rng)
    kind = _pick(tuple(witnesses), rng)
    pick = _pick(witnesses[kind], rng)
    if kind == "direct":
        controllers = np.flatnonzero(graph.xapp_param[:, pick])
        xa |= sum(1 << int(a) for a in rng.choice(controllers, size=2,
                                                  replace=False))
        pc |= 1 << int(pick)
    elif kind == "indirect":
        influencers = np.flatnonzero(graph.param_kpi[:, pick])
        pc |= sum(1 << int(p) for p in rng.choice(influencers, size=2,
                                                  replace=False))
    else:  # implicit: pick is a coupling edge
        pc |= (1 << int(pick[0])) | (1 << int(pick[1]))
    assert kind in check_conflicts(graph, _bits([xa], graph.n_xapps)[0],
                                   _bits([pc], graph.n_params)[0]), \
        "injected conflict not visible to the checker"
    params = [p for p in range(graph.n_params) if pc >> p & 1]
    return xa, pc, _reach(params, masks[1])[0], kind


def generate_oran(graph_seed: int, sample_seed: int, n_samples: int = 10000,
                  anomaly_frac: float = 0.1, n_xapps: int = 10,
                  n_params: int = 15, n_kpis: int = 5
                  ) -> tuple[OranGraph, list[OranSample]]:
    """Generate one fixed graph and a count-controlled mix of samples.

    Exactly round(n_samples * anomaly_frac) samples carry a conflict; their
    positions are shuffled.  Contexts bin each sample's activity at the
    batch's lower activity quartiles (callers may re-bin on a subset).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not 0.0 <= anomaly_frac < 1.0:
        raise ValueError("anomaly_frac must lie in [0, 1)")
    graph = OranGraph.random(np.random.default_rng(graph_seed),
                             n_xapps, n_params, n_kpis)
    witnesses = _witnesses(graph)
    if not witnesses:
        raise ValueError("graph admits no conflict type at all; "
                         "try another graph_seed")
    masks = (_row_masks(graph.xapp_param), _row_masks(graph.param_kpi),
             _row_masks(graph.param_param | graph.param_param.T))
    rng = np.random.default_rng(sample_seed)
    n_anom = round(n_samples * anomaly_frac)
    labels = np.zeros(n_samples, dtype=bool)
    labels[rng.permutation(n_samples)[:n_anom]] = True
    drawn = [_anomaly_sample(graph, masks, witnesses, rng) if is_anom
             else (*_repair(masks, rng), "none") for is_anom in labels]
    split = n_xapps + n_params
    rows = _bits([xa | pc << n_xapps | kc << split
                  for xa, pc, kc, _ in drawn], split + n_kpis)
    acts = activity(graph, rows)
    boundaries = [lower_quantile(acts, q) for q in (0.25, 0.5, 0.75)]
    return graph, [
        OranSample(row[:n_xapps], row[n_xapps:split], row[split:], kind, c)
        for row, (*_, kind), c in zip(
            rows, drawn, activity_context(acts, boundaries).tolist())]


def activity(graph: OranGraph, features: np.ndarray) -> np.ndarray:
    """Active xApp->parameter control edges of each row of a sample feature
    matrix; only its first n_xapps columns, the xApp states, are read."""
    return features[:, :graph.n_xapps] @ graph.out_degrees


def activity_context(acts: np.ndarray, boundaries) -> np.ndarray:
    """Context of each activity level: the number of boundaries at or below
    it (right-open bins, the last one closed)."""
    return (acts[:, None] >= np.asarray(boundaries)[None, :]).sum(axis=1)


def samples_to_table(samples) -> Table:
    return Table(np.stack([s.features() for s in samples]),
                 np.array([s.context for s in samples]),
                 np.array([int(s.conflict != "none") for s in samples]))


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
    rows = np.fromiter((s.features() for s in samples), count=len(samples),
                       dtype=(np.uint8, len(header)))
    lines = [",".join(header + ["conflict_type", "context"])] + [
        ",".join([*map(str, row.tolist()), s.conflict, str(s.context)])
        for row, s in zip(rows, samples)]
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
