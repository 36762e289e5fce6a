import hashlib
import itertools
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coad.oran import (OranGraph, activity, activity_context,
                       check_conflicts, feasible_conflicts, generate_oran,
                       graph_to_json, samples_to_csv)
from coad.scoring import lower_quantile
from oran_reference import csv_reference, generate_reference


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

    @pytest.mark.parametrize("count", ["n_xapps", "n_params", "n_kpis"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_node_count_named(self, count, value):
        # 0 failed as "cannot reshape array of size 0" and -1 as "negative
        # dimensions are not allowed", naming neither the count
        with pytest.raises(ValueError, match=rf"^{count} must be >= 1$"):
            generate_oran(0, 1, 50, **{count: value})

    @pytest.mark.parametrize("seed", ["graph_seed", "sample_seed"])
    def test_negative_seed_named(self, seed):
        # numpy's "expected non-negative integer" named neither seed
        seeds = {"graph_seed": 0, "sample_seed": 1, seed: -1}
        with pytest.raises(ValueError, match=rf"^{seed} must be >= 0$"):
            generate_oran(n_samples=50, **seeds)

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


# generate_oran's argument sets of the golden digests
GOLDEN_ARGS = [
    # the csv-oran benchmark workload's set-up at seed 1
    (0, 1, 5000),
    # half anomalies: many injections of all three kinds
    (3, 4, 3000, 0.5),
    (7, 8, 10, 0.1, 3, 3, 3),
    # more parameters than a 64-bit word holds
    (11, 12, 400, 0.2, 8, 80, 6),
]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestGoldenBytes:
    """SHA-256 of the generated CSV text: the graph, every sample's node
    states, conflict type and context, and so every draw made for them."""

    @pytest.mark.parametrize("args, digest", zip(GOLDEN_ARGS, [
        "2851ba057e151375ae198707b502df823a004230b45ee5cf2c9aaf3406276121",
        "aa8fe422f0c14c29626d35aa01a135f5c110a5a4545c550c587d30b3381e710c",
        "8b75e9dc8b442f65ca430b034daad95d0057b7c7d0e27f2982ceb52367e21e55",
        "10d0367d08b4aaa92e45d5fa11a1bb0d2bbad7c46678d58f69c4f7b46a31950e",
    ]))
    def test_csv_digest(self, args, digest):
        assert _digest(samples_to_csv(*generate_oran(*args))) == digest

    @pytest.mark.parametrize("args, digest", zip(GOLDEN_ARGS, [
        "9ea0cca08212eb8b146c7732cf6b3c15cab0a30e0a30baae000c0f747bca660c",
        "d45866c419db9c1f3869ea0bc849b811ce023611ed0b1c2740ca2c7794677063",
        "af7abfaf452990978e063f5507a2f2930e92a768f73ff00f0a8869b45b7935f5",
        "f148dbf5bc367eb3f84c9d6c71243801b3466e3b40c95aadfc49c1af342a8c44",
    ]))
    def test_reference_keeps_the_per_sample_digests(self, args, digest):
        # the reference sampler of the law test draws the rows that the
        # per-sample generator drew, byte for byte
        assert _digest(csv_reference(*generate_reference(*args))) == digest

    @pytest.mark.parametrize("args", GOLDEN_ARGS)
    def test_csv_text_matches_the_row_join_writer(self, args):
        graph, samples = generate_oran(*args)
        assert samples_to_csv(graph, samples) == csv_reference(graph, samples)
        assert samples_to_csv(graph, []) == csv_reference(graph, [])


def _laws(samples) -> dict[str, Counter]:
    """Counts of the conflict types, and of the node states per type."""
    laws = {"kinds": Counter(s.conflict for s in samples)}
    for s in samples:
        state = (*s.xapp_active.tolist(), *s.param_changed.tolist(),
                 *s.kpi_changed.tolist())
        laws.setdefault(s.conflict, Counter())[state] += 1
    return laws


def _tv(a: Counter, b: Counter) -> float:
    """Total variation distance between two empirical laws."""
    na, nb = sum(a.values()), sum(b.values())
    return 0.5 * sum(abs(a[k] / na - b[k] / nb) for k in a.keys() | b.keys())


# Two-sample TV bounds at 40,000 rows of graph seed 0 (4 xApps x 5
# parameters x 3 KPIs, all three conflict types feasible) at
# anomaly_frac 0.5: 1.5 times the largest distance between the reference
# sampler's rows at sample seeds 20-31 (66 pairs), which was 0.0060 for the
# type shares, 0.0239 for the nominal states (20 states) and 0.0581,
# 0.0507 and 0.0806 for the direct, indirect and implicit states (44, 30
# and 100 states).  A sampler that clears the first offender instead of a
# uniform one lands at 0.45-0.54 on every key.
LAW_BOUNDS = {"kinds": 0.009, "none": 0.036, "direct": 0.087,
              "indirect": 0.076, "implicit": 0.121}


def test_rows_keep_the_per_sample_law():
    args = (40000, 0.5, 4, 5, 3)
    graph, samples = generate_oran(0, 1, *args)
    assert feasible_conflicts(graph) == ("direct", "indirect", "implicit")
    new = _laws(samples)
    reference = _laws(generate_reference(0, 2, *args)[1])
    distances = {key: _tv(new[key], reference[key]) for key in LAW_BOUNDS}
    assert all(distances[key] <= bound
               for key, bound in LAW_BOUNDS.items()), distances


@settings(deadline=None, max_examples=200)
@given(graph_seed=st.integers(0, 2**16), sample_seed=st.integers(0, 2**16),
       n_xapps=st.integers(1, 4), n_params=st.integers(1, 5),
       n_kpis=st.integers(1, 3), n_samples=st.integers(1, 300),
       anomaly_frac=st.one_of(st.just(0.0),
                              st.floats(0.0, 1.0, exclude_max=True)))
def test_generated_rows_hold_their_conflicts(graph_seed, sample_seed, n_xapps,
                                             n_params, n_kpis, n_samples,
                                             anomaly_frac):
    try:
        graph, samples = generate_oran(graph_seed, sample_seed, n_samples,
                                       anomaly_frac, n_xapps, n_params,
                                       n_kpis)
    except ValueError as exc:
        assert "admits no conflict type" in str(exc)
        return
    assert len(samples) == n_samples
    anomalies = [s for s in samples if s.conflict != "none"]
    assert len(anomalies) == round(n_samples * anomaly_frac)
    for s in samples:
        found = check_conflicts(graph, s.xapp_active, s.param_changed)
        if s.conflict == "none":
            assert found == set()
        else:
            assert s.conflict in found


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
        # a row of node states: xApps, then parameters, then KPIs
        row = np.array([[1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
        assert activity(g, row).tolist() == [3.0]

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

    def test_no_self_loops(self):
        with pytest.raises(ValueError):
            _graph(np.zeros((1, 2)), np.zeros((2, 1)), np.eye(2))
