from itertools import combinations

import pytest
from hypothesis import given, settings

from conftest import connected_graphs, graphs, random_connected
from monopos.bitset import full_mask, mask_of, to_tuple
from monopos.errors import CapExceeded, InputError, NodeLimitExceeded
from monopos.graph import (Graph, complete_graph, complete_multipartite, corona,
                           cycle_graph, path_graph)
from monopos.graph6 import emit_graph6
from monopos.invariants import cut_vertices, simplicial_vertices
from monopos.paths import IntervalCache, monophonic_hull
from monopos.solvers import (GraphSolver, PathMode, SolverOptions, _PositionSearch,
                             brute_force_position, build_triple_index, hull_number,
                             hull_number_oracle, is_position_set, max_position_set,
                             parameter_suite)


def test_triple_index_examples():
    p3 = path_graph(3)
    idx = build_triple_index(p3, PathMode.MONOPHONIC)
    assert idx.witness[0][2] == mask_of([1])
    kn = complete_graph(6)
    for mode in PathMode:
        idx = build_triple_index(kn, mode)
        assert all(idx.witness[x][z] == 0 for x in range(6) for z in range(6) if x != z)
    c5 = cycle_graph(5)
    idx = build_triple_index(c5, PathMode.MONOPHONIC)
    for x in range(5):
        for z in range(5):
            if x != z and not c5.has_edge(x, z):
                assert idx.witness[x][z] == full_mask(5) & ~mask_of([x, z])


def test_is_position_set():
    p3 = path_graph(3)
    idx = build_triple_index(p3, PathMode.MONOPHONIC)
    ok, triple = is_position_set(idx, mask_of([0, 2]))
    assert ok and triple is None
    ok, triple = is_position_set(idx, full_mask(3))
    assert not ok and triple == (0, 1, 2)
    kn = complete_graph(5)
    idx = build_triple_index(kn, PathMode.MONOPHONIC)
    assert is_position_set(idx, full_mask(5))[0]


def test_search_refuses_forced_sets_that_meet_a_triple():
    p3 = path_graph(3)
    for mode in PathMode:
        idx = build_triple_index(p3, mode)
        search = _PositionSearch(p3.adj, idx.witness, idx.witness_of())
        assert search.run(full_mask(3), full_mask(3), None) == (0, 0)
        assert search.run(mask_of([0, 2]), full_mask(3), None) == (2, mask_of([0, 2]))
    indep = _PositionSearch(p3.adj, idx.witness, idx.witness_of(), independent=True)
    assert indep.run(mask_of([0, 1]), full_mask(3), None) == (0, 0)


def test_known_position_values():
    values = {
        "mp": {cycle_graph(5): 2, cycle_graph(8): 2, complete_graph(6): 6},
        "gp": {cycle_graph(5): 3},
    }
    for name, cases in values.items():
        for g, want in cases.items():
            assert GraphSolver(g).value(name) == want


def test_c5_corona_k1():
    g = corona(cycle_graph(5), complete_graph(1))
    s = GraphSolver(g)
    assert s.value("mp") == 5 and s.value("gp") == 5


def test_multipartite_value():
    g = complete_multipartite([3, 2, 2])
    s = GraphSolver(g)
    assert s.value("mp") == 3 and s.value("gp") == 3


def test_gp2_degenerate_small():
    for n in (1, 2):
        g = complete_graph(n)
        assert GraphSolver(g).value("gp2") == n


@settings(max_examples=40, deadline=None)
@given(graphs(min_n=1, max_n=7))
def test_bb_equals_oracle_all_modes(g):
    for name, (mode, ind) in (("mp", (PathMode.MONOPHONIC, False)),
                              ("gp", (PathMode.GEODESIC, False)),
                              ("gp2", (PathMode.GEODESIC_LEN2, False)),
                              ("imp", (PathMode.MONOPHONIC, True)),
                              ("igp", (PathMode.GEODESIC, True))):
        want = brute_force_position(g, mode, ind)
        got = max_position_set(build_triple_index(g, mode),
                               SolverOptions(require_independent=ind))
        assert got.value == want.value
        assert got.witness == want.witness


def test_fully_independent_oracle_intervals(rng):
    for _ in range(10):
        g = random_connected(rng, rng.randint(2, 8))
        a = brute_force_position(g, PathMode.MONOPHONIC, interval_source="oracle")
        b = brute_force_position(g, PathMode.MONOPHONIC, interval_source="dfs")
        assert (a.value, a.witness) == (b.value, b.witness)


def test_witness_is_valid_position_set(rng):
    for _ in range(20):
        g = random_connected(rng, rng.randint(2, 9))
        for name in ("mp", "gp", "imp"):
            rep = GraphSolver(g, lexmin=True).report(name)
            idx = build_triple_index(g, PathMode.MONOPHONIC if name != "gp"
                                     else PathMode.GEODESIC)
            ok, _ = is_position_set(idx, mask_of(rep.witness))
            assert ok
            if name == "imp":
                assert g.is_independent_mask(mask_of(rep.witness))


def test_allowed_mask_restriction():
    p5 = path_graph(5)
    idx = build_triple_index(p5, PathMode.MONOPHONIC)
    cuts = cut_vertices(p5)
    rep = max_position_set(idx, SolverOptions(allowed=p5.full() & ~cuts))
    assert rep.value == 2  # both endpoints survive


def test_node_limit_is_hard():
    g = complete_multipartite([2] * 6)
    idx = build_triple_index(g, PathMode.GEODESIC)
    with pytest.raises(NodeLimitExceeded):
        max_position_set(idx, SolverOptions(node_limit=3))


def test_cap_refusal():
    big = path_graph(70)
    with pytest.raises(CapExceeded):
        build_triple_index(big, PathMode.MONOPHONIC)
    with pytest.raises(CapExceeded):
        brute_force_position(path_graph(13), PathMode.MONOPHONIC)


def test_report_serialization():
    rep = GraphSolver(cycle_graph(5), lexmin=True).report("mp")
    doc = rep.to_dict()
    assert doc["parameter"] == "mp" and doc["value"] == 2
    assert doc["witness"] == [0, 1] and doc["method"] == "branch_and_bound"


def test_hull_numbers():
    t = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (4, 6)])
    assert hull_number(t).value == 4
    assert hull_number(complete_graph(5)).value == 5
    assert hull_number(cycle_graph(6)).value == 2
    assert hull_number(complete_graph(1)).value == 1
    with pytest.raises(InputError):
        hull_number(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_hull_against_oracle(rng):
    for _ in range(25):
        g = random_connected(rng, rng.randint(2, 8))
        assert hull_number(g).value == hull_number_oracle(g)


def test_hull_witness_properties(rng):
    for _ in range(20):
        g = random_connected(rng, rng.randint(2, 9))
        rep = hull_number(g)
        witness = mask_of(rep.witness)
        simp = simplicial_vertices(g)
        assert witness & simp == simp
        idx = build_triple_index(g, PathMode.MONOPHONIC)
        assert is_position_set(idx, witness)[0]
        assert rep.value <= GraphSolver(g).value("mp")


def test_hull_witness_is_first_hull_set_in_lexicographic_order():
    for g in connected_graphs(7):
        cache = IntervalCache(g)
        first = next(combo for k in range(1, g.n + 1) for combo in combinations(range(g.n), k)
                     if monophonic_hull(g, mask_of(combo), cache)[0] == g.full())
        assert hull_number(g, cache).witness == first, emit_graph6(g)


def test_hull_search_builds_no_triple_index(monkeypatch):
    import monopos.solvers as solvers

    built = []
    real = solvers.build_triple_index

    def counting(g, mode, *args, **kwargs):
        built.append(mode)
        return real(g, mode, *args, **kwargs)

    monkeypatch.setattr(solvers, "build_triple_index", counting)
    g = cycle_graph(6)
    assert GraphSolver(g).report("hm").value == 2 and built == []
    s = GraphSolver(g)
    s.report("mp")
    s.report("hm")
    assert built == [PathMode.MONOPHONIC]


def test_parameter_suite_bundle():
    g = cycle_graph(6)
    suite = parameter_suite(g)
    vals = {k: r.value for k, r in suite.reports.items()}
    assert vals["mp"] == 2 and vals["gp"] == 3
    assert vals["alpha"] == 3 and vals["omega"] == 2
    assert vals["hm"] == 2 and vals["L"] == 4 and vals["rho"] == 2
    assert not suite.skipped


def test_parameter_suite_flags_caps():
    g = complete_graph(22)
    suite = parameter_suite(g)
    assert "alphaomega" in suite.skipped and "diss" in suite.skipped
    assert suite.reports["mp"].value == 22


def test_mode_parsing():
    assert PathMode.from_string("mono") is PathMode.MONOPHONIC
    with pytest.raises(InputError):
        PathMode.from_string("nope")
