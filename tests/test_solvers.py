import random
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import connected_graphs, graphs, random_connected
from monopos.bitset import bit, full_mask, mask_of, to_tuple
from monopos.errors import CapExceeded, InputError, NodeLimitExceeded
from monopos.graph import (SOLVER_CAP, Graph, complete_graph, complete_multipartite, corona,
                           cycle_graph, path_graph)
from monopos.graph6 import emit_graph6, parse_graph6_lines
from monopos.invariants import (DIST_INF, alpha_omega_number, clique_number, cut_vertices,
                                dissociation_number, distance_matrix, independence_number, leaves,
                                oracle_max_subset, simplicial_vertices)
from monopos.families import (grid_graph, hypercube, petersen_graph, random_block_graph,
                               random_connected_graph, random_distance_hereditary,
                               random_split_graph, random_tree, random_unicyclic)
from monopos.paths import (IntervalCache, _chordless_simple_paths, convex_hull,
                           induced_path_partition, interior_vertices, longest_induced_path_length,
                           monophonic_closure, monophonic_hull, monophonic_interval)
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
    """A run takes and returns masks in the order space of its table."""
    p3 = path_graph(3)
    for mode in PathMode:
        idx = build_triple_index(p3, mode)
        search = _PositionSearch(p3.adj, idx.table())
        ends = mask_of(search.pos[v] for v in (0, 2))
        assert search.run(full_mask(3), full_mask(3), None) == (0, 0)
        assert search.run(ends, full_mask(3), None) == (2, ends)
    indep = _PositionSearch(p3.adj, idx.table(), independent=True)
    assert indep.run(mask_of(indep.pos[v] for v in (0, 1)), full_mask(3), None) == (0, 0)


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
    import monopos.invariants as invariants
    import monopos.solvers as solvers

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle ran a fast path")

    monkeypatch.setattr(_PositionSearch, "run", refuse)
    monkeypatch.setattr(solvers, "_lexmin", refuse)
    monkeypatch.setattr(invariants, "_lexmin", refuse)
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
        listings = [_chordless_simple_paths(g, x) for x in range(g.n)]
        for x, z in combinations(range(g.n), 2):
            paths = listings[x][z]
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


def _distance_identity_witnesses(g):
    """The geo twin: y is a witness of {x, z} iff d(x, y) + d(y, z) = d(x, z),
    tested one y at a time."""
    dist = distance_matrix(g)
    n = g.n
    witness = [[0] * n for _ in range(n)]
    for x in range(n):
        dx = dist[x]
        for z in range(x + 1, n):
            d = dx[z]
            if d >= DIST_INF:
                continue
            dz = dist[z]
            w = 0
            for y in range(n):
                if y != x and y != z and dx[y] + dz[y] == d:
                    w |= bit(y)
            witness[x][z] = witness[z][x] = w
    return witness


def test_geodesic_witnesses_equal_distance_identity_twin(rng):
    """All connected graphs of up to 7 vertices, the 15 geo-search benchmark
    graphs and random connected graphs of 30-64 vertices."""
    corpus = Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "geo-search.g6"
    bench = parse_graph6_lines(corpus.read_text())
    assert len(bench) == 15
    cases = list(connected_graphs(7)) + bench
    cases += [random_connected(rng, rng.randint(30, 64), rng.uniform(0.05, 0.3))
              for _ in range(8)]
    for g in cases:
        got = build_triple_index(g, PathMode.GEODESIC).witness
        assert got == _distance_identity_witnesses(g), emit_graph6(g)


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


def test_allowed_mask_restriction(monkeypatch):
    p5 = path_graph(5)
    idx = build_triple_index(p5, PathMode.MONOPHONIC)
    cuts = cut_vertices(p5)
    rep = max_position_set(idx, allowed=p5.full() & ~cuts)
    assert rep.value == 2  # both endpoints survive
    c5 = build_triple_index(cycle_graph(5), PathMode.MONOPHONIC)
    assert max_position_set(c5, allowed=0).value == 0

    def refuse(*args, **kwargs):
        raise AssertionError("searched before refusing")

    monkeypatch.setattr(_PositionSearch, "run", refuse)
    for allowed, stray in ((129, "0x80"), (255, "0xe0"), (-1, "-0x20")):
        with pytest.raises(InputError, match=f"allowed has bits outside the 5 vertices: {stray}$"):
            max_position_set(c5, allowed=allowed)


_STRAY_ENTRIES = {
    "max_position_set": (lambda g: max_position_set(
        build_triple_index(g, PathMode.MONOPHONIC), allowed=0x81), "allowed", 0x80),
    "convex_hull": (lambda g: convex_hull(g, 0x81), "vertex set", 0x80),
    "monophonic_closure": (lambda g: monophonic_closure(g, 0x81), "vertex set", 0x80),
    "monophonic_hull": (lambda g: monophonic_hull(g, 0x81), "vertex set", 0x80),
    "interior_vertices": (lambda g: interior_vertices(g, 0x81), "vertex set", 0x80),
    "is_position_set": (lambda g: is_position_set(
        build_triple_index(g, PathMode.MONOPHONIC), 0x201), "vertex set", 0x200),
    "monophonic_interval": (lambda g: monophonic_interval(g, 0, 9), "interval endpoint pair",
                            0x200),
}


@pytest.mark.parametrize("entry", sorted(_STRAY_ENTRIES))
def test_a_vertex_outside_the_graph_is_bad_input(entry):
    """Every entry that takes a vertex mask names the stray bits on C5."""
    call, what, stray = _STRAY_ENTRIES[entry]
    with pytest.raises(InputError, match=rf"^{what} has bits outside the 5 vertices: {stray:#x}$"):
        call(cycle_graph(5))


def test_node_limit_is_hard():
    g = complete_multipartite([2] * 6)
    idx = build_triple_index(g, PathMode.GEODESIC)
    with pytest.raises(NodeLimitExceeded):
        max_position_set(idx, node_limit=3)


def test_node_limit_refusals_name_nodes_spent_and_largest_set():
    # On Petersen the gp optimum takes 28 nodes, so a limit of 40 stops the
    # lexmin pass, and the largest set so far is the optimum, 6.
    g = petersen_graph()
    for param, limit, said in (
            ("mp", 5, "position solver node limit 5 exceeded after 6 nodes, largest set so far 3"),
            ("gp", 40, "position solver node limit 40 exceeded after 41 nodes, "
                       "largest set so far 6"),
            ("alpha", 5, "position solver node limit 5 exceeded after 6 nodes, "
                         "largest set so far 4")):
        with pytest.raises(NodeLimitExceeded) as refused:
            GraphSolver(g, node_limit=limit, lexmin=True).report(param)
        assert str(refused.value) == said


def test_clique_cover_bound_keeps_igp_under_small_node_limits():
    # Without the cover the count bound took 208,734 and 188,762 nodes.
    g = random_block_graph(37, random.Random(392663))
    assert GraphSolver(g, node_limit=2_000, lexmin=True).report("igp").value == 14
    assert GraphSolver(hypercube(6), node_limit=120_000, lexmin=True).report("igp").value == 8


def test_conflict_cover_bound_keeps_imp_and_igp_under_small_node_limits():
    # Covering by cliques of G alone took 35,299 nodes on the tree (imp and
    # igp), 39,581 on the grid and 68,804 on Q6; the conflict cover takes
    # 585, 5,522 and 21,833.
    tree = random_tree(70, random.Random(5))
    for param in ("imp", "igp"):
        rep = GraphSolver(tree, node_limit=2_000, lexmin=True, cap=70).report(param)
        assert rep.value == leaves(tree).bit_count()
    assert GraphSolver(grid_graph(8, 8), node_limit=10_000, lexmin=True).report("igp").value == 4
    assert GraphSolver(hypercube(6), node_limit=30_000, lexmin=True).report("igp").value == 8


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
    with pytest.raises(CapExceeded, match="cap 5 exceeded by order 6"):
        brute_force_position(path_graph(6), PathMode.MONOPHONIC, cap=5)


@pytest.mark.parametrize("kwargs", [{"cap": 0}, {"cap": -1}, {"node_limit": 0}],
                         ids=["cap0", "cap-1", "node_limit0"])
def test_a_limit_below_one_is_bad_input(kwargs):
    """Refused alike from every entry that takes a cap or a node limit."""
    entries = [GraphSolver, clique_number, independence_number, alpha_omega_number,
               dissociation_number]
    if "cap" in kwargs:
        entries += [lambda g, **kw: brute_force_position(g, PathMode.MONOPHONIC, **kw),
                    lambda g, **kw: build_triple_index(g, PathMode.MONOPHONIC, **kw),
                    longest_induced_path_length, induced_path_partition,
                    lambda g, **kw: oracle_max_subset(g, g.is_clique_mask, **kw)]
    else:
        entries.append(lambda g, **kw: max_position_set(
            build_triple_index(g, PathMode.MONOPHONIC), **kw))
    for entry in entries:
        with pytest.raises(InputError, match="must be at least 1"):
            entry(cycle_graph(5), **kwargs)


def test_gp2_and_alphaomega_share_one_search_and_one_refusal(monkeypatch):
    import monopos.solvers as solvers

    real = solvers.max_position_set
    searches = []

    def counting(*args, **kwargs):
        searches.append(args[0].mode)
        return real(*args, **kwargs)

    monkeypatch.setattr(solvers, "max_position_set", counting)
    g = petersen_graph()
    for first, second in (("gp2", "alphaomega"), ("alphaomega", "gp2")):
        s = GraphSolver(g, node_limit=5)
        with pytest.raises(NodeLimitExceeded) as refused:
            s.report(first)
        with pytest.raises(NodeLimitExceeded) as again:
            s.report(second)
        assert again.value is refused.value and s.values() == {}
    s = GraphSolver(g, lexmin=True)
    ao, gp2 = s.report("alphaomega"), s.report("gp2")
    assert searches == [PathMode.GEODESIC_LEN2] * 3
    assert (ao.parameter, gp2.parameter) == ("alphaomega", "gp2")
    assert (ao.value, ao.witness, ao.expansions) == (gp2.value, gp2.witness, gp2.expansions)
    assert s.values() == {"gp2": gp2.value, "alphaomega": ao.value}


def test_parameter_suite_on_forty_vertices_refuses_only_rho():
    from monopos.invariants import alpha_omega_number, max_degree_le_one

    g = random_connected_graph(40, random.Random(1), 0.1)
    suite = parameter_suite(g)
    assert set(suite.skipped) == {"rho"}
    ao, gp2, diss = (suite.reports[name] for name in ("alphaomega", "gp2", "diss"))
    assert (ao.value, ao.witness) == (gp2.value, gp2.witness)
    assert alpha_omega_number(g) == (ao.value, mask_of(ao.witness))
    assert len(diss.witness) == diss.value and max_degree_le_one(g, mask_of(diss.witness))
    assert suite.value("mp") <= g.n - suite.value("L") + 1  # L is answered at n = 40


@pytest.mark.parametrize("family", [random_tree, random_block_graph, random_distance_hereditary])
def test_longest_induced_path_is_the_diameter_at_the_solver_cap(family):
    """Every induced path of a distance-hereditary graph is a geodesic; trees
    and block graphs are distance hereditary."""
    for seed in range(1, 6):
        s = GraphSolver(family(SOLVER_CAP, random.Random(seed)))
        assert s.value("L") == s.value("diam")


def test_report_serialization():
    rep = GraphSolver(cycle_graph(5), lexmin=True).report("mp")
    doc = rep.to_dict()
    assert doc["parameter"] == "mp" and doc["value"] == 2
    assert doc["witness"] == [0, 1] and doc["method"] == "branch_and_bound"
    assert set(doc) == {"parameter", "value", "witness", "method", "expansions", "ms"}


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
        "induced_path_walk", "partition_search", "separator_atoms", "closed_form")


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


def _walk_hull_set(g):
    """First minimum hull set by a combination walk: every hull set holds
    the simplicial vertices, and a minimum one holds no vertex of the hull
    of its other members.  So candidates are the vertices outside
    hull(seed), walked depth first in lexicographic order, skipping those
    inside the hull of the prefix."""
    seed = simplicial_vertices(g)
    closed = convex_hull(g, seed) if seed else 0
    if closed == g.full():
        return seed
    others = [v for v in range(g.n) if not closed >> v & 1]
    for size in range(max(seed.bit_count() + 1, 2), g.n + 1):
        stack = [(seed, closed, 0)]  # a prefix, its hull, the index of its next candidate
        while stack:
            mask, hull, i = stack.pop()
            last = len(others) - (size - mask.bit_count())
            while i <= last and hull >> others[i] & 1:
                i += 1
            if i > last:
                continue
            stack.append((mask, hull, i + 1))
            v = 1 << others[i]
            child = convex_hull(g, hull | v)
            if mask.bit_count() + 1 < size:
                stack.append((mask | v, child, i + 1))
            elif child == g.full():
                return mask | v


@settings(max_examples=40, deadline=None)
@given(st.integers(9, 14), st.integers(0, 2**32), st.sampled_from([None, 0.15, 0.25, 0.4]))
def test_hull_number_equals_the_combination_walk(n, seed, p):
    _assert_walk_agrees(random_connected_graph(n, random.Random(seed), p))


def test_hull_number_equals_the_combination_walk_on_the_five_petal_flower():
    _assert_walk_agrees(_c4_flower(5))


def _assert_walk_agrees(g):
    rep = hull_number(g)
    walk = _walk_hull_set(g)
    assert (rep.value, mask_of(rep.witness)) == (walk.bit_count(), walk), emit_graph6(g)


def test_hull_search_reads_no_interval_row(monkeypatch):
    import monopos.paths as paths

    real = paths.interval_row
    rows = []

    def counted(g, u, *args, **kwargs):
        rows.append(u)
        return real(g, u, *args, **kwargs)

    monkeypatch.setattr(paths, "interval_row", counted)
    for g in (petersen_graph(), grid_graph(8, 8), hypercube(6)):
        assert GraphSolver(g).report("hm").value == 2 and rows == [], emit_graph6(g)
    s = GraphSolver(petersen_graph())
    s.report("mp")
    s.report("imp")
    assert rows == list(range(9))  # the mono index reads each row but the last once


def test_mono_index_reads_every_interval_row_but_the_last(monkeypatch):
    """The rows read are those of the 2-core in label order, but its last:
    row x fills the core pairs {x, z} with z > x, so the last core row would
    fill none.  A vertex peeled off the 2-core reads no row."""
    import monopos.paths as paths

    real = paths.interval_row
    rows = []

    def counted(g, u, *args, **kwargs):
        rows.append(u)
        return real(g, u, *args, **kwargs)

    monkeypatch.setattr(paths, "interval_row", counted)
    for g in (path_graph(1), cycle_graph(5), petersen_graph(), hypercube(4), grid_graph(3, 5)):
        rows.clear()
        build_triple_index(g, PathMode.MONOPHONIC)
        assert rows == list(range(g.n - 1)), g.n
    # the cycle 2..6 with pendant paths 6-1-0 and 4-7-8-9
    unicyclic = Graph.from_edges(10, [(2, 3), (3, 4), (4, 5), (5, 6), (6, 2), (6, 1), (1, 0),
                                      (4, 7), (7, 8), (8, 9)])
    # the path 0..3 beside the 4-cycle 4..7, which has a pendant 8 at 5
    forest_and_cycle = Graph.from_edges(9, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7),
                                            (7, 4), (5, 8)])
    for g, core_rows in ((random_tree(12, random.Random(1)), []), (unicyclic, [2, 3, 4, 5]),
                         (forest_and_cycle, [4, 5, 6])):
        rows.clear()
        build_triple_index(g, PathMode.MONOPHONIC)
        assert rows == core_rows, g.n


def test_closed_forms_are_timed_and_memoized_by_the_solver(monkeypatch):
    import time

    import monopos.solvers as solvers

    real = solvers.cut_vertices

    def slow(g):
        time.sleep(0.05)
        return real(g)

    monkeypatch.setattr(solvers, "cut_vertices", slow)
    s = GraphSolver(path_graph(4))
    assert s.report("cuts").ms >= 50.0 and s.report("cuts").witness == (1, 2)
    assert s.report("psi") is s.report("psi")
    assert set(solvers.CLOSED_FORMS).isdisjoint(parameter_suite(path_graph(4)).reports)


def test_hull_number_at_order_64():
    g = random_connected_graph(64, random.Random(1), 0.1)
    rep = hull_number(g)
    witness = mask_of(rep.witness)
    simp = simplicial_vertices(g)
    assert witness & simp == simp and convex_hull(g, witness) == g.full()


#: Sets the simplicial-seeded hull twin may try before a case counts as unfinished.
TWIN_SET_BUDGET = 5_000


def _simplicial_seeded_hull_set(g):
    """First minimum hull set with no atom: every hull set holds the
    simplicial vertices (the extreme vertices of the monophonic convexity),
    so try Simp plus each k-subset T of the other vertices, k = 0, 1, ...,
    in combination order.  Combination order on T is combination order on
    Simp | T.  Returns None past ``TWIN_SET_BUDGET`` sets."""
    simp = simplicial_vertices(g)
    others = [v for v in range(g.n) if not simp >> v & 1]
    tried = 0
    for k in range(len(others) + 1):
        for combo in combinations(others, k):
            m = simp | mask_of(combo)
            if not m:
                continue
            tried += 1
            if tried > TWIN_SET_BUDGET:
                return None
            if convex_hull(g, m) == g.full():
                return m
    raise AssertionError("V is a hull set")


@pytest.mark.parametrize("make, orders", [
    (random_tree, (16, 32, 64)),
    (random_unicyclic, (16, 32, 64)),
    (random_block_graph, (16, 32, 64)),
    (random_split_graph, (16, 32, 64)),
    (lambda n, rng: random_connected_graph(n, rng, 0.1), (16, 32, 64)),
    (lambda n, rng: random_connected_graph(n, rng, 0.2), (16, 32, 64)),
    (lambda n, rng: random_connected_graph(n, rng, 0.4), (16, 32, 64)),
    # at 64 vertices, seeds 34 and 41 run past the budget
    (random_distance_hereditary, (16, 32)),
], ids=["tree", "unicyclic", "block", "split", "gnp0.1", "gnp0.2", "gnp0.4", "dh"])
def test_hull_number_equals_the_simplicial_seeded_twin(make, orders):
    for n in orders:
        for seed in range(1, 11):
            g = make(n, random.Random(seed))
            first = _simplicial_seeded_hull_set(g)
            if first is None:
                pytest.fail(f"twin unfinished after {TWIN_SET_BUDGET} sets: {emit_graph6(g)}")
            rep = hull_number(g)
            assert (rep.value, mask_of(rep.witness)) == (first.bit_count(), first), emit_graph6(g)


def test_hull_number_is_the_leaf_and_simplicial_count_at_order_512():
    """Every leaf of a tree and every simplicial vertex of a block graph is
    in each hull set, and those vertices already form one."""
    for make, closed_form in ((random_tree, leaves), (random_block_graph, simplicial_vertices)):
        g = make(512, random.Random(1))
        rep = hull_number(g)
        assert mask_of(rep.witness) == closed_form(g) and rep.value == closed_form(g).bit_count()


def test_hull_number_on_the_twenty_petal_flower():
    rep = hull_number(_c4_flower(20))
    assert rep.value == 20 and rep.witness == tuple(3 * i + 2 for i in range(20))


def test_hull_number_is_not_held_to_the_solver_cap():
    rep = GraphSolver(random_tree(70, random.Random(5))).report("hm")
    assert (rep.value, rep.method) == (27, "separator_atoms")


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
    assert set(suite.skipped) == {"rho"}
    assert suite.reports["mp"].value == suite.reports["alphaomega"].value == 22


def test_parameter_suite_skips_only_hm_on_a_disconnected_graph():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    suite = parameter_suite(g)
    assert suite.skipped == {"hm": "hull number undefined for disconnected graphs"}
    assert set(suite.reports) == set(PARAMETERS) - {"hm"}
    assert suite.value("omega") == 3 and suite.value("alpha") == 2 and suite.value("rho") == 4


def test_mode_parsing():
    assert PathMode.from_string("mono") is PathMode.MONOPHONIC
    with pytest.raises(InputError):
        PathMode.from_string("nope")
