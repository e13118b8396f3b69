import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import connected_graphs, graphs, random_connected
from monopos.bitset import bit, full_mask, iter_bits, mask_of, to_tuple
from monopos.errors import BudgetExceeded, CapExceeded, InputError
from monopos.graph import Graph, complete_graph, cycle_graph, disjoint_union, path_graph
from monopos.invariants import distance_matrix
from monopos.families import (hypercube, random_block_graph, random_connected_graph,
                              random_split_graph, random_tree, random_unicyclic)
from monopos.paths import (IntervalCache, _chordless_simple_paths, convex_hull,
                           count_induced_paths_oracle, induced_path_partition, interior_vertices,
                           interval_row, longest_induced_path_length, monophonic_closure,
                           monophonic_hull, monophonic_interval, monophonic_witnesses,
                           simple_path_interval, walk_induced_paths)


def _paths_to(g, u, v):
    return [mask for last, mask, _ in walk_induced_paths(g, u) if last == v]


def _induces_path(g, mask):
    """Connected, one edge fewer than vertices, and no vertex of degree
    above two inside the set: a tree with two leaves at most."""
    k = mask.bit_count()
    degrees = [(g.adj[v] & mask).bit_count() for v in iter_bits(mask)]
    low = (mask & -mask).bit_length() - 1
    return (k > 0 and sum(degrees) == 2 * (k - 1) and max(degrees) <= 2
            and g.component_of(low, within=mask) == mask)


def test_adjacent_pair_on_cycle_has_only_the_edge():
    c5 = cycle_graph(5)
    assert _paths_to(c5, 0, 1) == [mask_of([0, 1])]
    assert monophonic_interval(c5, 0, 1) == mask_of([0, 1])
    with pytest.raises(InputError):
        monophonic_interval(c5, 2, 2)


def test_nonadjacent_pair_on_cycle_gets_both_arcs():
    c5 = cycle_graph(5)
    assert _paths_to(c5, 0, 2) == [mask_of([0, 1, 2]), mask_of([0, 4, 3, 2])]
    assert monophonic_interval(c5, 0, 2) == full_mask(5)
    # neighbors ascending, depth first, each path before its extensions
    assert [(last, to_tuple(mask), length) for last, mask, length in walk_induced_paths(c5, 0)] == [
        (1, (0, 1), 1), (2, (0, 1, 2), 2), (3, (0, 1, 2, 3), 3),
        (4, (0, 4), 1), (3, (0, 3, 4), 2), (2, (0, 2, 3, 4), 3)]


def test_path_chain_interval():
    p5 = path_graph(5)
    assert monophonic_interval(p5, 0, 4) == full_mask(5)
    assert monophonic_interval(p5, 1, 3) == mask_of([1, 2, 3])


def test_petersen_counts_match_simple_path_oracle():
    from monopos.families import petersen_graph

    g = petersen_graph()
    for u, v in ((0, 1), (0, 2), (0, 7), (3, 8)):
        assert len(_paths_to(g, u, v)) == count_induced_paths_oracle(g, u, v)


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=1, max_n=8))
def test_walk_matches_predicate_and_interval_rows(g):
    walked = [bit(u) for u in range(g.n)]
    for u in range(g.n):
        row = [0] * g.n
        row[u] = bit(u)
        nodes = 0
        for last, mask, length in walk_induced_paths(g, u):
            assert mask.bit_count() == length + 1 and mask & bit(u) and mask & bit(last)
            row[last] |= mask
            nodes += 1
            if u < last:
                walked.append(mask)
        assert (row, nodes) == interval_row(g, u)
    assert sorted(walked) == [m for m in range(1, 1 << g.n) if _induces_path(g, m)]


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=2, max_n=7))
def test_interval_equals_simple_path_oracle(g):
    rows = [interval_row(g, u)[0] for u in range(g.n)]
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert rows[u][v] == rows[v][u]
            got = rows[u][v] or (bit(u) | bit(v))
            assert got == simple_path_interval(g, u, v)


def _full_row_witnesses(g):
    """The mono witness system read off full rows, one per source: the twin
    of ``monophonic_witnesses``."""
    out = []
    for x in range(g.n):
        row = interval_row(g, x)[0]
        out.append([row[z] & ~(bit(x) | bit(z)) for z in range(g.n)])
    return out


@st.composite
def forests_plus_edges(draw, max_n=14):
    """A forest, each vertex hanging from an earlier one or from none, plus up
    to three more edges, under a random labelling: trees, cycles with
    pendant trees and disconnected graphs."""
    n = draw(st.integers(1, max_n))
    label = draw(st.permutations(range(n)))
    edges = [(draw(st.integers(-1, v - 1)), v) for v in range(1, n)]
    ends = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(ends, ends), max_size=3))
    return Graph.from_edges(n, {tuple(sorted((label[u], label[v])))
                                for u, v in edges if u >= 0 and u != v})


def test_witnesses_equal_full_rows_on_small_connected_graphs():
    checked = 0
    for g in connected_graphs(7):
        assert monophonic_witnesses(g) == _full_row_witnesses(g), g.adj
        checked += 1
    assert checked == 996


@settings(max_examples=150, deadline=None)
@given(st.one_of(graphs(min_n=1, max_n=14), forests_plus_edges()))
def test_witnesses_equal_full_rows(g):
    assert monophonic_witnesses(g) == _full_row_witnesses(g)


@pytest.mark.parametrize("make", [
    random_tree, random_unicyclic, random_block_graph,
    lambda n, rng: random_connected_graph(n, rng, 0.1),
    lambda n, rng: disjoint_union(random_unicyclic(n // 2, rng), random_tree(n // 2, rng)),
], ids=["tree", "unicyclic", "block", "gnp", "cycle-and-tree"])
def test_witnesses_equal_full_rows_on_larger_graphs(make):
    rng = random.Random(3)
    for n in (30, 40):
        g = make(n, rng)
        assert monophonic_witnesses(g) == _full_row_witnesses(g), n


def test_witness_budget_names_rows_done_and_expansions():
    # Rows 0 and 1 of the C4 on 0..3 take four expansions each, rows 2 and 3
    # none (each later C4 vertex is adjacent, so exact at once); row 4, the
    # first row of Q4, runs out after 51.
    g = disjoint_union(cycle_graph(4), hypercube(4))
    with pytest.raises(BudgetExceeded, match=r"at source 4 after 4 of 19 rows, "
                                             r"59 expansions so far"):
        monophonic_witnesses(g, budget=50)


@settings(max_examples=40, deadline=None)
@given(graphs(min_n=2, max_n=8))
def test_geodesics_are_monophonic(g):
    d = distance_matrix(g)
    cache = IntervalCache(g)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if d[u][v] >= g.n:
                continue
            k = cache.interval(u, v)
            for y in range(g.n):
                if d[u][y] + d[y][v] == d[u][v]:
                    assert k & bit(y)


def test_disconnected_pair_convention():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert monophonic_interval(g, 0, 2) == mask_of([0, 2])
    assert monophonic_interval(g, 0, 1) == mask_of([0, 1])


def test_closure_examples():
    c5 = cycle_graph(5)
    assert monophonic_closure(c5, mask_of([0, 2])) == full_mask(5)
    k4 = complete_graph(4)
    assert monophonic_closure(k4, mask_of([0, 1, 2])) == mask_of([0, 1, 2])
    assert monophonic_closure(c5, mask_of([0])) == mask_of([0])


@settings(max_examples=30, deadline=None)
@given(graphs(min_n=2, max_n=7))
def test_closure_monotone_and_hull_idempotent(g):
    cache = IntervalCache(g)
    full = g.full()
    small = full & 0b1011
    big = full & 0b11111
    if small and big:
        cs = monophonic_closure(g, small, cache)
        cb = monophonic_closure(g, big, cache)
        assert cs & ~cb == 0
        assert small & ~cs == 0
    if small:
        hull, _ = monophonic_hull(g, small, cache)
        assert monophonic_closure(g, hull, cache) == hull


def test_hull_examples():
    c5 = cycle_graph(5)
    hull, rounds = monophonic_hull(c5, mask_of([0, 2]))
    assert hull == full_mask(5) and rounds == 1
    hull, rounds = monophonic_hull(c5, mask_of([0, 1]))
    assert hull == mask_of([0, 1]) and rounds == 0
    p4 = path_graph(4)
    hull, _ = monophonic_hull(p4, mask_of([0, 3]))
    assert hull == full_mask(4)


def test_hull_matches_oracle_fixpoint(rng):
    for _ in range(25):
        g = random_connected(rng, rng.randint(2, 7))
        m = 0
        while m.bit_count() < 2:
            m = rng.randrange(1, 1 << g.n)
        current = m
        while True:
            nxt = current
            verts = to_tuple(current)
            for i, u in enumerate(verts):
                for v in verts[i + 1:]:
                    nxt |= simple_path_interval(g, u, v)
            if nxt == current:
                break
            current = nxt
        assert monophonic_hull(g, m)[0] == current


def test_convex_hull_equals_closure_iteration_on_small_connected_graphs():
    """Every non-empty subset of every connected graph up to 6 vertices."""
    for g in connected_graphs(6):
        cache = IntervalCache(g)
        for m in range(1, 1 << g.n):
            assert convex_hull(g, m) == monophonic_hull(g, m, cache)[0], (g.adj, m)
    with pytest.raises(InputError):
        convex_hull(path_graph(3), 0)


def test_convex_hull_equals_closure_iteration_at_solver_sizes(rng):
    """Trees, block graphs, split graphs and cycles of 30-64 vertices, where
    interval rows stay cheap enough for the closure-iteration oracle."""
    def cycle(n, _):
        return cycle_graph(n)

    for make in (random_tree, random_block_graph, random_split_graph, cycle):
        for _ in range(3):
            g = make(rng.randint(30, 64), rng)
            cache = IntervalCache(g)
            for _ in range(8):
                m = mask_of(rng.sample(range(g.n), rng.randint(1, 4)))
                hull = monophonic_hull(g, m, cache)[0]
                assert convex_hull(g, m) == hull
                v = rng.randrange(g.n)
                assert convex_hull(g, hull | bit(v)) == monophonic_hull(g, hull | bit(v), cache)[0]


def test_interior_examples():
    p3 = path_graph(3)
    assert interior_vertices(p3, full_mask(3)) == mask_of([1])
    assert interior_vertices(p3, mask_of([0, 2])) == 0
    with pytest.raises(InputError):
        interior_vertices(p3, mask_of([1]))


def test_interior_of_position_witness_is_empty(rng):
    from monopos.solvers import GraphSolver

    for _ in range(15):
        g = random_connected(rng, rng.randint(3, 8))
        rep = GraphSolver(g, lexmin=True).report("mp")
        witness = mask_of(rep.witness)
        assert interior_vertices(g, witness) == 0


def test_longest_induced_path():
    assert longest_induced_path_length(path_graph(6)) == 5
    assert longest_induced_path_length(complete_graph(5)) == 1
    assert longest_induced_path_length(cycle_graph(7)) == 5
    from monopos.families import petersen_graph

    # frozen from the simple-path filter oracle over all ten start vertices
    assert longest_induced_path_length(petersen_graph()) == 4
    with pytest.raises(CapExceeded):
        longest_induced_path_length(complete_graph(65))


def test_longest_induced_path_budget_names_how_far_it_got(monkeypatch):
    import monopos.paths as paths

    monkeypatch.setattr(paths, "DEFAULT_BUDGET", 60)
    with pytest.raises(BudgetExceeded, match=r"^longest-path budget 60 exhausted after 4 of 9 "
                       r"sources, longest induced path so far 7$"):
        longest_induced_path_length(cycle_graph(9))


def test_longest_matches_bruteforce(rng):
    for _ in range(20):
        g = random_connected(rng, rng.randint(2, 7))
        best = max(m.bit_count() - 1 for u in range(g.n) for v in range(g.n) if u != v
                   for m in _chordless_simple_paths(g, u, v))
        assert longest_induced_path_length(g) == best


def test_partition_examples():
    assert induced_path_partition(path_graph(7))[0] == 1
    assert induced_path_partition(complete_graph(4))[0] == 2
    for n in (4, 5, 6, 8, 10):
        assert induced_path_partition(cycle_graph(n))[0] == 2
    assert induced_path_partition(cycle_graph(3))[0] == 2
    with pytest.raises(CapExceeded):
        induced_path_partition(complete_graph(17))


def test_partition_structure(rng):
    for _ in range(10):
        g = random_connected(rng, rng.randint(2, 8))
        rho, parts = induced_path_partition(g)
        assert len(parts) == rho
        covered = 0
        for part in parts:
            m = mask_of(part)
            assert covered & m == 0
            covered |= m
        assert covered == g.full()


def test_partition_is_minimum_over_induced_path_subsets():
    from functools import lru_cache

    checked = 0
    for g in connected_graphs(6):
        @lru_cache(maxsize=None)
        def fewest(rest):
            if not rest:
                return 0
            low = rest & -rest
            best = g.n + 1
            sub = rest
            while sub:
                if sub & low and _induces_path(g, sub):
                    best = min(best, 1 + fewest(rest & ~sub))
                sub = (sub - 1) & rest
            return best

        rho, parts = induced_path_partition(g)
        assert rho == len(parts) == fewest(g.full())
        masks = [mask_of(part) for part in parts]
        assert sum(m.bit_count() for m in masks) == g.n
        assert mask_of([v for part in parts for v in part]) == g.full()
        assert all(_induces_path(g, m) for m in masks)
        checked += 1
    assert checked == 143


def _bottom_up_partition(g):
    """The partition DP solved over every subset mask in increasing order,
    taking the first path of least cost: the slow twin of the top-down DP."""
    n = g.n
    full = full_mask(n)
    masks = [bit(u) for u in range(n)]
    for u in range(n):
        masks.extend(mask for last, mask, _ in walk_induced_paths(g, u) if u < last)
    paths_by_low = [[] for _ in range(n)]
    for mask in sorted(masks):
        paths_by_low[(mask & -mask).bit_length() - 1].append(mask)
    dp = [n + 1] * (full + 1)
    choice = [0] * (full + 1)
    dp[0] = 0
    for mask in range(1, full + 1):
        for p in paths_by_low[(mask & -mask).bit_length() - 1]:
            if not p & ~mask and dp[mask & ~p] + 1 < dp[mask]:
                dp[mask] = dp[mask & ~p] + 1
                choice[mask] = p
    parts = []
    mask = full
    while mask:
        parts.append(to_tuple(choice[mask]))
        mask &= ~choice[mask]
    return dp[full], tuple(parts)


def test_partition_equals_bottom_up_twin_on_small_connected_graphs():
    checked = 0
    for g in connected_graphs(7):
        assert induced_path_partition(g) == _bottom_up_partition(g)
        checked += 1
    assert checked == 996


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=1, max_n=12))
def test_partition_equals_bottom_up_twin(g):
    assert induced_path_partition(g) == _bottom_up_partition(g)


def test_partition_leaves_no_cyclic_garbage():
    import gc
    import random

    from monopos.families import random_tree

    g = random_tree(16, random.Random(1))
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        induced_path_partition(g)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_budget_exhaustion_is_loud():
    g = hypercube(4)
    with pytest.raises(BudgetExceeded):
        interval_row(g, 0, budget=50)


def test_interval_cache_guards():
    c5, c6 = cycle_graph(5), cycle_graph(6)
    cache = IntervalCache(c5)
    cache.interval(0, 2)
    with pytest.raises(InputError):
        monophonic_interval(c6, 0, 2, cache)
    from monopos.solvers import PathMode, build_triple_index

    with pytest.raises(InputError):
        build_triple_index(complete_graph(6), PathMode.MONOPHONIC, IntervalCache(path_graph(6)))
