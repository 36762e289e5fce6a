import hashlib
import itertools
import json
from collections import Counter

import numpy as np
import pytest

from coad.oran import (OranGraph, OranSample, activity, activity_context,
                       check_conflicts, feasible_conflicts, generate_oran,
                       graph_to_json, samples_to_csv, samples_to_table)
from coad.scoring import lower_quantile


def _graph(xp, pk, pp):
    return OranGraph(np.array(xp, dtype=bool), np.array(pk, dtype=bool),
                     np.array(pp, dtype=bool))


def _tiny_graph():
    # 3 xapps, 3 params, 2 kpis
    xp = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
    pk = [[1, 0], [1, 1], [0, 1]]
    pp = [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
    return _graph(xp, pk, pp)


class TestCheckConflicts:
    def test_all_inactive(self):
        g = _tiny_graph()
        assert check_conflicts(g, [0, 0, 0], [0, 0, 0], [0, 0]) == set()

    def test_direct(self):
        # xapps 0 and 1 both control param 1
        g = _tiny_graph()
        found = check_conflicts(g, [1, 1, 0], [0, 1, 0], [0, 0])
        assert "direct" in found

    def test_indirect(self):
        # params 1 and 2 both affect kpi 1
        g = _tiny_graph()
        found = check_conflicts(g, [0, 0, 0], [0, 1, 1], [0, 1])
        assert found == {"indirect"}

    def test_implicit(self):
        # params 0 and 1 joined by a coupling edge
        g = _tiny_graph()
        found = check_conflicts(g, [0, 0, 0], [1, 1, 0], [0, 0])
        assert "implicit" in found

    def test_single_controller_is_fine(self):
        g = _tiny_graph()
        assert "direct" not in check_conflicts(g, [1, 0, 0], [1, 1, 0], [1, 1])


def _oracle(graph, xa, pc):
    """Pairwise re-derivation of the three conflict definitions."""
    found = set()
    for p in range(graph.n_params):
        active_controllers = [a for a in range(graph.n_xapps)
                              if xa[a] and graph.xapp_param[a, p]]
        if len(active_controllers) >= 2:
            found.add("direct")
    for k in range(graph.n_kpis):
        movers = [p for p in range(graph.n_params)
                  if pc[p] and graph.param_kpi[p, k]]
        if len(movers) >= 2:
            found.add("indirect")
    for p, q in itertools.permutations(range(graph.n_params), 2):
        if pc[p] and pc[q] and graph.param_param[p, q]:
            found.add("implicit")
    return found


def test_checker_matches_oracle_exhaustively():
    g = _tiny_graph()
    for bits in itertools.product([0, 1], repeat=8):
        xa, pc, kc = bits[:3], bits[3:6], bits[6:]
        assert check_conflicts(g, xa, pc, kc) == _oracle(g, xa, pc)


class TestGenerate:
    def test_nominal_samples_conflict_free(self):
        graph, samples = generate_oran(3, 4, n_samples=1500)
        for s in samples:
            found = check_conflicts(graph, s.xapp_active, s.param_changed,
                                    s.kpi_changed)
            if s.conflict == "none":
                assert found == set()
            else:
                assert s.conflict in found

    def test_count_controlled_fraction(self):
        _, samples = generate_oran(0, 1, n_samples=1000, anomaly_frac=0.1)
        assert sum(1 for s in samples if s.conflict != "none") == 100

    def test_direct_witness_exists(self):
        graph, samples = generate_oran(3, 4, n_samples=800)
        direct = [s for s in samples if s.conflict == "direct"]
        assert direct
        for s in direct:
            controllers = (s.xapp_active[:, None]
                           & graph.xapp_param).sum(axis=0)
            assert (controllers >= 2).any()

    def test_context_totality(self):
        _, samples = generate_oran(0, 1, n_samples=600)
        assert all(s.context in (0, 1, 2, 3) for s in samples)

    def test_deterministic(self):
        g1, s1 = generate_oran(5, 6, n_samples=200)
        g2, s2 = generate_oran(5, 6, n_samples=200)
        assert np.array_equal(g1.xapp_param, g2.xapp_param)
        assert all(np.array_equal(a.xapp_active, b.xapp_active)
                   and a.conflict == b.conflict and a.context == b.context
                   for a, b in zip(s1, s2))

    def test_all_types_appear(self):
        _, samples = generate_oran(0, 1, n_samples=3000)
        kinds = Counter(s.conflict for s in samples)
        assert set(kinds) == {"none", "direct", "indirect", "implicit"}

    @pytest.mark.parametrize("n_samples", [0, -1])
    def test_sample_count_named(self, n_samples):
        # left to the generator, 0 failed as "cannot take a quantile of no
        # values" and -1 inside the shuffle, naming neither the count
        with pytest.raises(ValueError, match=r"^n_samples must be >= 1$"):
            generate_oran(0, 1, n_samples)

    def test_infeasible_graph_rejected(self):
        # one xapp, one param, one kpi: no conflict type is expressible
        with pytest.raises(ValueError, match="graph_seed"):
            generate_oran(0, 1, n_samples=10, n_xapps=1, n_params=1, n_kpis=1)

    def test_feasible_conflicts(self):
        assert set(feasible_conflicts(_tiny_graph())) == \
            {"direct", "indirect", "implicit"}
        no_edges = _graph(np.zeros((2, 2)), np.zeros((2, 2)),
                          np.zeros((2, 2)))
        assert feasible_conflicts(no_edges) == ()


class TestGoldenBytes:
    """SHA-256 of the generated CSV text: the graph, every sample's node
    states, conflict type and context, and so every draw made for them."""

    @pytest.mark.parametrize("args, digest", [
        # the csv-oran benchmark workload's set-up at seed 1
        ((0, 1, 5000),
         "9ea0cca08212eb8b146c7732cf6b3c15cab0a30e0a30baae000c0f747bca660c"),
        # half anomalies: many injections of all three kinds
        ((3, 4, 3000, 0.5),
         "d45866c419db9c1f3869ea0bc849b811ce023611ed0b1c2740ca2c7794677063"),
        ((7, 8, 10, 0.1, 3, 3, 3),
         "af7abfaf452990978e063f5507a2f2930e92a768f73ff00f0a8869b45b7935f5"),
        # more parameters than a 64-bit word holds
        ((11, 12, 400, 0.2, 8, 80, 6),
         "f148dbf5bc367eb3f84c9d6c71243801b3466e3b40c95aadfc49c1af342a8c44"),
    ])
    def test_csv_digest(self, args, digest):
        text = samples_to_csv(*generate_oran(*args))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestContexts:
    def test_quartile_binning(self):
        # generated contexts bin each sample's active control edges at the
        # batch's lower activity quartiles
        graph, samples = generate_oran(3, 4, n_samples=500)
        acts = [int(graph.out_degrees[s.xapp_active].sum()) for s in samples]
        boundaries = [lower_quantile(acts, q) for q in (0.25, 0.5, 0.75)]
        for s, act in zip(samples, acts):
            assert s.context == sum(act >= b for b in boundaries)

    def test_activity_definition(self):
        g = _tiny_graph()  # out-degrees 2, 2, 1
        s = OranSample(np.array([True, False, True]),
                       np.zeros(3, bool), np.zeros(2, bool), "none")
        assert activity(g, s.features()[None, :]).tolist() == [3.0]

    def test_boundaries_count_at_or_below(self):
        acts = np.array([0.0, 1.0, 2.0, 3.0, 9.0])
        assert activity_context(acts, (1.0, 3.0)).tolist() == [0, 1, 1, 2, 2]
        assert activity_context(acts, (2.0, 2.0)).tolist() == [0, 0, 2, 2, 2]
        assert activity_context(acts, ()).tolist() == [0] * 5


class TestSerialization:
    def test_graph_json_roundtrip(self):
        graph, _ = generate_oran(9, 9, n_samples=10)
        payload = json.loads(graph_to_json(graph))
        for key in ("xapp_param", "param_kpi", "param_param"):
            assert payload[key] == [np.flatnonzero(row).tolist()
                                    for row in getattr(graph, key)], key
        assert payload["counts"] == {"xapps": graph.n_xapps,
                                     "params": graph.n_params,
                                     "kpis": graph.n_kpis}

    def test_csv_layout(self):
        graph, samples = generate_oran(9, 9, n_samples=5, n_xapps=3,
                                       n_params=4, n_kpis=2)
        text = samples_to_csv(graph, samples)
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        assert header[:3] == ["xapp_0", "xapp_1", "xapp_2"]
        assert header[-2:] == ["conflict_type", "context"]
        assert len(lines) == 6
        assert all(len(line.split(",")) == 3 + 4 + 2 + 2 for line in lines)

    def test_table_conversion(self):
        graph, samples = generate_oran(9, 9, n_samples=20)
        rows = samples_to_table(samples)
        assert rows.dim == graph.n_xapps + graph.n_params + graph.n_kpis
        assert rows.truth.tolist() == [int(s.conflict != "none")
                                       for s in samples]
        assert rows.context.tolist() == [s.context for s in samples]
        assert np.array_equal(rows.features,
                              np.stack([s.features() for s in samples]))

    def test_no_self_loops(self):
        with pytest.raises(ValueError):
            _graph(np.zeros((1, 2)), np.zeros((2, 1)), np.eye(2))
