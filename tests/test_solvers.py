import random
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
from monopos.families import grid_graph, hypercube, petersen_graph, random_connected_graph
from monopos.paths import IntervalCache, _chordless_simple_paths, convex_hull, monophonic_hull
from monopos.solvers import (PARAMETERS, POSITION_PARAMS, GraphSolver, PathMode,
                             _PositionSearch, brute_force_position, build_triple_index,
                             hull_number, hull_number_oracle, is_position_set,
                             max_position_set, parameter_suite)


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
        got = max_position_set(build_triple_index(g, mode), independent=ind)
        assert got.value == want.value
        assert got.witness == want.witness


def test_subset_oracle_uses_neither_the_search_nor_lexmin(monkeypatch):
    import monopos.solvers as solvers

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle ran a fast path")

    monkeypatch.setattr(_PositionSearch, "run", refuse)
    monkeypatch.setattr(solvers, "_lexmin", refuse)
    g = cycle_graph(5)
    got = {}
    for name, (mode, ind) in POSITION_PARAMS.items():
        rep = brute_force_position(g, mode, ind)
        got[name] = (rep.value, rep.witness)
    assert got == {"mp": (2, (0, 1)), "gp": (3, (0, 1, 3)), "gp2": (3, (0, 1, 3)),
                   "imp": (2, (0, 2)), "igp": (2, (0, 2))}


def test_geodesic_witnesses_equal_shortest_chordless_paths():
    """The geo and geo2 twin: interiors of the shortest x-z paths, taken
    from the simple-path filter with no distance matrix."""
    checked = 0
    for g in connected_graphs(7):
        geo = build_triple_index(g, PathMode.GEODESIC).witness
        geo2 = build_triple_index(g, PathMode.GEODESIC_LEN2).witness
        for x, z in combinations(range(g.n), 2):
            paths = _chordless_simple_paths(g, x, z)
            shortest = min(m.bit_count() for m in paths)
            inner = 0
            for m in paths:
                if m.bit_count() == shortest:
                    inner |= m & ~mask_of([x, z])
            assert geo[x][z] == geo[z][x] == inner, (emit_graph6(g), x, z)
            want2 = inner if shortest == 3 else 0
            assert geo2[x][z] == geo2[z][x] == want2, (emit_graph6(g), x, z)
        checked += 1
    assert checked == 996


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
    rep = max_position_set(idx, allowed=p5.full() & ~cuts)
    assert rep.value == 2  # both endpoints survive


def test_node_limit_is_hard():
    g = complete_multipartite([2] * 6)
    idx = build_triple_index(g, PathMode.GEODESIC)
    with pytest.raises(NodeLimitExceeded):
        max_position_set(idx, node_limit=3)


def test_geo2_independent_variant_is_refused_before_any_search(monkeypatch):
    import monopos.solvers as solvers

    def refuse(*args, **kwargs):
        raise AssertionError("searched before refusing")

    monkeypatch.setattr(_PositionSearch, "run", refuse)
    monkeypatch.setattr(solvers, "oracle_max_subset", refuse)
    g = path_graph(6)
    idx = build_triple_index(g, PathMode.GEODESIC_LEN2)
    for call in (lambda: max_position_set(idx, independent=True),
                 lambda: brute_force_position(g, PathMode.GEODESIC_LEN2, True)):
        with pytest.raises(InputError, match="not defined for the length-two mode"):
            call()


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


def test_branch_and_bound_label_marks_exactly_the_node_limited_maxima():
    g = petersen_graph()
    labels = {name: rep.method for name, rep in parameter_suite(g).reports.items()}
    assert set(labels) == set(PARAMETERS)
    limited = set()
    for name in PARAMETERS:
        try:
            GraphSolver(g, node_limit=1).report(name)
        except NodeLimitExceeded:
            limited.add(name)
    nine = {"omega", "alpha", "alphaomega", "diss", "mp", "gp", "gp2", "imp", "igp"}
    assert {name for name, method in labels.items() if method == "branch_and_bound"} == nine
    assert limited == nine
    assert (labels["L"], labels["rho"], labels["hm"], labels["simplicial"]) == (
        "induced_path_walk", "partition_dp", "hull_search", "closed_form")


def test_position_report_time_covers_the_index_build(monkeypatch):
    import time

    import monopos.solvers as solvers

    real = solvers.build_triple_index
    built = []

    def slow(g, mode, *args, **kwargs):
        built.append(mode)
        time.sleep(0.05)
        return real(g, mode, *args, **kwargs)

    monkeypatch.setattr(solvers, "build_triple_index", slow)
    s = GraphSolver(cycle_graph(6))
    assert s.report("mp").ms >= 50.0 and s.report("gp").ms >= 50.0
    assert built == [PathMode.MONOPHONIC, PathMode.GEODESIC]


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


def _first_hull_set(g):
    """First set in (cardinality, lexicographic) order whose closure-iteration
    hull is V: the hm witness, found with no component test."""
    cache = IntervalCache(g)
    return next(combo for k in range(1, g.n + 1) for combo in combinations(range(g.n), k)
                if monophonic_hull(g, mask_of(combo), cache)[0] == g.full())


def _c4_flower(petals):
    """``petals`` 4-cycles sharing vertex 0; vertex 3i + 2 is opposite it on petal i."""
    edges = []
    for i in range(petals):
        a, b, c = 3 * i + 1, 3 * i + 2, 3 * i + 3
        edges += [(0, a), (a, b), (b, c), (c, 0)]
    return Graph.from_edges(3 * petals + 1, edges)


def test_hull_witness_is_first_hull_set_in_lexicographic_order():
    for g in [*connected_graphs(7), _c4_flower(5)]:
        assert hull_number(g).witness == _first_hull_set(g), emit_graph6(g)


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=1, max_n=8))
def test_hull_number_equals_closure_iteration_scan(g):
    if not g.is_connected():
        with pytest.raises(InputError):
            hull_number(g)
        return
    rep = hull_number(g)
    first = _first_hull_set(g)
    assert (rep.value, rep.witness) == (len(first), first)


def test_hull_search_reads_no_interval_row():
    for g in (petersen_graph(), grid_graph(8, 8), hypercube(6)):
        s = GraphSolver(g)
        assert s.report("hm").value == 2 and s.cache.expansions == 0, emit_graph6(g)


def test_hull_number_at_order_64():
    g = random_connected_graph(64, random.Random(1), 0.1)
    rep = hull_number(g)
    witness = mask_of(rep.witness)
    simp = simplicial_vertices(g)
    assert witness & simp == simp and convex_hull(g, witness) == g.full()


def test_hull_budget_refusal_reports_progress(monkeypatch):
    import monopos.solvers as solvers

    monkeypatch.setattr(solvers, "HULL_SET_BUDGET", 1000)
    with pytest.raises(CapExceeded, match=r"sets of size 4 after 1000 hull extensions: "
                                          r"the hull number is at least 4"):
        hull_number(_c4_flower(5))


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
