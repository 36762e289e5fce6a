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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

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


def feasible_conflicts(graph: OranGraph) -> tuple[str, ...]:
    """Conflict types the graph can express at all."""
    feasible = []
    if np.any(graph.xapp_param.sum(axis=0) >= 2):
        feasible.append("direct")
    if np.any(graph.param_kpi.sum(axis=0) >= 2):
        feasible.append("indirect")
    if np.any(graph.param_param):
        feasible.append("implicit")
    return tuple(feasible)


def _propagate_params(graph: OranGraph, xa: np.ndarray) -> np.ndarray:
    """A parameter changes iff at least one active xApp controls it."""
    return (xa[:, None] & graph.xapp_param).any(axis=0)


def _propagate_kpis(graph: OranGraph, pc: np.ndarray) -> np.ndarray:
    """A KPI changes iff at least one changed parameter affects it."""
    return (pc[:, None] & graph.param_kpi).any(axis=0)


def _nominal_sample(graph: OranGraph, rng: np.random.Generator) -> OranSample:
    """Draw node states and repair until no conflict remains.

    Direct conflicts are repaired by deactivating one participating xApp
    (re-propagating parameter changes); implicit and indirect conflicts by
    reverting one offending parameter's change.  Reversion keeps xApp
    activity -- and hence the activity-based contexts -- diverse.
    """
    xa = rng.random(graph.n_xapps) < 0.5
    pc = _propagate_params(graph, xa)
    while True:
        controllers = (xa[:, None] & graph.xapp_param).sum(axis=0)
        clashed = np.flatnonzero(controllers >= 2)
        if clashed.size == 0:
            break
        participants = np.flatnonzero(
            xa & graph.xapp_param[:, clashed].any(axis=1))
        xa = xa.copy()
        xa[rng.choice(participants)] = False
        pc = _propagate_params(graph, xa)
    pc = pc.copy()
    while True:
        coupled = pc[:, None] & pc[None, :] & graph.param_param
        if not coupled.any():
            break
        offenders = np.flatnonzero(coupled.any(axis=0) | coupled.any(axis=1))
        pc[rng.choice(offenders)] = False
    while True:
        influencers = (pc[:, None] & graph.param_kpi).sum(axis=0)
        clashed_kpis = np.flatnonzero(influencers >= 2)
        if clashed_kpis.size == 0:
            break
        offenders = np.flatnonzero(
            pc & graph.param_kpi[:, clashed_kpis].any(axis=1))
        pc[rng.choice(offenders)] = False
    kc = _propagate_kpis(graph, pc)
    return OranSample(xa, pc, kc, "none")


def _anomaly_sample(graph: OranGraph, rng: np.random.Generator,
                    feasible: tuple[str, ...]) -> OranSample:
    """Inject a minimal witness of a uniformly drawn feasible conflict type."""
    base = _nominal_sample(graph, rng)
    kind = feasible[rng.integers(len(feasible))]
    xa = base.xapp_active.copy()
    pc = base.param_changed.copy()
    if kind == "direct":
        candidates = np.flatnonzero(graph.xapp_param.sum(axis=0) >= 2)
        param = rng.choice(candidates)
        controllers = np.flatnonzero(graph.xapp_param[:, param])
        pair = rng.choice(controllers, size=2, replace=False)
        xa[pair] = True
        pc[param] = True
    elif kind == "indirect":
        candidates = np.flatnonzero(graph.param_kpi.sum(axis=0) >= 2)
        kpi = rng.choice(candidates)
        influencers = np.flatnonzero(graph.param_kpi[:, kpi])
        pair = rng.choice(influencers, size=2, replace=False)
        pc[pair] = True
    else:  # implicit
        edges = np.argwhere(graph.param_param)
        p, q = edges[rng.integers(edges.shape[0])]
        pc[p] = True
        pc[q] = True
    kc = _propagate_kpis(graph, pc)
    sample = OranSample(xa, pc, kc, kind)
    assert kind in check_conflicts(graph, xa, pc, kc), \
        "injected conflict not visible to the checker"
    return sample


def generate_oran(graph_seed: int, sample_seed: int, n_samples: int = 10000,
                  anomaly_frac: float = 0.1, n_xapps: int = 10,
                  n_params: int = 15, n_kpis: int = 5
                  ) -> tuple[OranGraph, list[OranSample]]:
    """Generate one fixed graph and a count-controlled mix of samples.

    Exactly round(n_samples * anomaly_frac) samples carry a conflict; their
    positions are shuffled.  Contexts bin each sample's activity at the
    batch's lower activity quartiles (callers may re-bin on a subset).
    """
    if not 0.0 <= anomaly_frac < 1.0:
        raise ValueError("anomaly_frac must lie in [0, 1)")
    graph = OranGraph.random(np.random.default_rng(graph_seed),
                             n_xapps, n_params, n_kpis)
    feasible = feasible_conflicts(graph)
    if not feasible:
        raise ValueError("graph admits no conflict type at all; "
                         "try another graph_seed")
    rng = np.random.default_rng(sample_seed)
    n_anom = round(n_samples * anomaly_frac)
    labels = np.zeros(n_samples, dtype=bool)
    labels[rng.permutation(n_samples)[:n_anom]] = True
    samples = [
        _anomaly_sample(graph, rng, feasible) if is_anom
        else _nominal_sample(graph, rng)
        for is_anom in labels
    ]
    acts = activity(graph, np.stack([s.xapp_active for s in samples]))
    boundaries = [lower_quantile(acts, q) for q in (0.25, 0.5, 0.75)]
    return graph, [replace(s, context=int(c)) for s, c in
                   zip(samples, activity_context(acts, boundaries))]


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


def samples_to_csv(graph: OranGraph, samples) -> str:
    """One binary column per node plus conflict_type and context."""
    header = ([f"xapp_{i}" for i in range(graph.n_xapps)]
              + [f"param_{i}" for i in range(graph.n_params)]
              + [f"kpi_{i}" for i in range(graph.n_kpis)]
              + ["conflict_type", "context"])
    lines = [",".join(header)]
    for s in samples:
        bits = [str(int(v)) for v in s.features()]
        lines.append(",".join(bits + [s.conflict, str(s.context)]))
    return "\n".join(lines) + "\n"
