"""The per-sample O-RAN sampler and the row-join CSV writer that
``coad.oran`` replaced, kept as references for the tests.

``generate_reference`` repairs one sample at a time on Python-int bitmasks
of the graph, with one scalar uniform pick per repair step; it draws the
rows that ``generate_oran`` drew before it moved to whole-array rounds.
Both follow the same per-row law, so the tests compare the two in law, and
compare this module's rows with the old golden digests byte for byte.
"""

import numpy as np

from coad.oran import (OranGraph, OranSample, _node_columns, _witnesses,
                       activity, activity_context, check_conflicts)
from coad.scoring import lower_quantile


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


def _repair(masks, rng: np.random.Generator) -> tuple[int, int, int]:
    """Draw the xApp, parameter and KPI state masks with no conflict left:
    direct ones repaired by deactivating one participating xApp, implicit
    and indirect ones by reverting one offending parameter's change."""
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


def _anomaly_sample(graph: OranGraph, masks, witnesses, rng):
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
                                   _bits([pc], graph.n_params)[0])
    params = [p for p in range(graph.n_params) if pc >> p & 1]
    return xa, pc, _reach(params, masks[1])[0], kind


def generate_reference(graph_seed: int, sample_seed: int,
                       n_samples: int = 10000, anomaly_frac: float = 0.1,
                       n_xapps: int = 10, n_params: int = 15, n_kpis: int = 5):
    """``generate_oran``'s graph and samples, drawn one sample at a time."""
    graph = OranGraph.random(np.random.default_rng(graph_seed),
                             n_xapps, n_params, n_kpis)
    witnesses = _witnesses(graph)
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


def csv_reference(graph: OranGraph, samples) -> str:
    """``samples_to_csv``'s text, joined row by row."""
    header = _node_columns(graph)
    rows = np.fromiter((np.concatenate([s.xapp_active, s.param_changed,
                                        s.kpi_changed]) for s in samples),
                       count=len(samples), dtype=(np.uint8, len(header)))
    lines = [",".join(header + ["conflict_type", "context"])] + [
        ",".join([*map(str, row.tolist()), s.conflict, str(s.context)])
        for row, s in zip(rows, samples)]
    return "\n".join(lines) + "\n"
