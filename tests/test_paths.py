import random
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import connected_graphs, graphs, random_connected
import monopos.paths as paths
from monopos.bitset import bit, full_mask, iter_bits, mask_of, to_tuple
from monopos.errors import BudgetExceeded, CapExceeded, InputError
from monopos.graph import (Graph, complete_graph, cycle_graph, disjoint_union, empty_graph,
                           path_graph)
from monopos.invariants import distance_matrix
from monopos.families import (grid_graph, hypercube, petersen_graph, random_bipartite_graph,
                              random_block_graph, random_connected_graph, random_cubic_graph,
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
    g = petersen_graph()
    for u, v in ((0, 1), (0, 2), (0, 7), (3, 8)):
        assert len(_paths_to(g, u, v)) == count_induced_paths_oracle(g, u, v)


def test_simple_path_listing_equals_the_path_predicate_on_small_connected_graphs():
    """Entry v of the listing from u holds, once each, exactly the vertex
    sets that induce a path with ends u and v."""
    for g in connected_graphs(7):
        by_ends = {}
        for m in range(1, 1 << g.n):
            if m.bit_count() > 1 and _induces_path(g, m):
                ends = tuple(x for x in iter_bits(m) if (g.adj[x] & m).bit_count() <= 1)
                by_ends.setdefault(ends, []).append(m)
        for u in range(g.n):
            listed = _chordless_simple_paths(g, u)
            assert listed[u] == []
            for v in range(g.n):
                if v != u:
                    got = sorted(listed[v])
                    assert len(set(got)) == len(got), (g.adj, u, v)
                    assert got == by_ends.get((min(u, v), max(u, v)), []), (g.adj, u, v)


def test_simple_path_oracle_has_one_cap_for_both_entry_points():
    g = petersen_graph()
    assert simple_path_interval(g, 0, 2) == interval_row(g, 0)[0][2]
    assert count_induced_paths_oracle(g, 0, 2) == len(_paths_to(g, 0, 2))
    for call in (simple_path_interval, count_induced_paths_oracle):
        with pytest.raises(CapExceeded,
                           match=r"^simple-path oracle cap 10 exceeded by order 11$"):
            call(path_graph(11), 0, 10)


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


def _unseeded_and_seeded(g):
    """``monophonic_witnesses(g)`` as it runs, and seeded after the first row
    that takes any expansion (``SEED_AFTER`` at 0), so that small graphs,
    whose rows stay far below the threshold, take the seeded path too."""
    with pytest.MonkeyPatch.context() as m:
        unseeded = monophonic_witnesses(g)
        m.setattr(paths, "SEED_AFTER", 0)
        return unseeded, monophonic_witnesses(g)


def test_witnesses_equal_full_rows_on_small_connected_graphs():
    checked = 0
    for g in connected_graphs(7):
        full = _full_row_witnesses(g)
        assert _unseeded_and_seeded(g) == (full, full), g.adj
        checked += 1
    assert checked == 996


@settings(max_examples=150, deadline=None)
@given(st.one_of(graphs(min_n=1, max_n=14), graphs(min_n=8, max_n=14), forests_plus_edges()))
def test_witnesses_equal_full_rows(g):
    full = _full_row_witnesses(g)
    assert _unseeded_and_seeded(g) == (full, full)


@pytest.mark.parametrize("make", [
    random_tree, random_unicyclic, random_block_graph,
    lambda n, rng: random_connected_graph(n, rng, 0.1),
    lambda n, rng: disjoint_union(random_unicyclic(n // 2, rng), random_tree(n // 2, rng)),
], ids=["tree", "unicyclic", "block", "gnp", "cycle-and-tree"])
def test_witnesses_equal_full_rows_on_larger_graphs(make):
    rng = random.Random(3)
    for n in (30, 40):
        g = make(n, rng)
        full = _full_row_witnesses(g)
        assert _unseeded_and_seeded(g) == (full, full), n


def test_witness_budget_names_rows_done_and_expansions(monkeypatch):
    # Rows 0 and 1 of the C4 on 0..3 take four expansions each, rows 2 and 3
    # none (each later C4 vertex is adjacent, so exact at once); row 4, the
    # first row of Q4, runs out after 51.
    monkeypatch.setattr(paths, "DEFAULT_BUDGET", 50)
    g = disjoint_union(cycle_graph(4), hypercube(4))
    with pytest.raises(BudgetExceeded, match=r"at source 4 after 4 of 19 rows, "
                                             r"59 expansions so far"):
        monophonic_witnesses(g)


def _traced_witnesses(monkeypatch, g):
    """``monophonic_witnesses(g)`` and the expansions of each row it reads."""
    real = paths.interval_row
    counts = []

    def counted(*args, **kwargs):
        row, exp = real(*args, **kwargs)
        counts.append(exp)
        return row, exp

    with monkeypatch.context() as m:
        m.setattr(paths, "interval_row", counted)
        return monophonic_witnesses(g), counts


def test_seeding_at_the_default_threshold_changes_no_witness(monkeypatch):
    # SEED_AFTER bounds the expansions of all rows so far: Q5 and the cubic
    # graph cross it in their first row, the 5x5 grid in its tenth, though
    # none of its rows takes more than 1,432.
    for g in (hypercube(5), random_cubic_graph(40, random.Random(2)), grid_graph(5, 5)):
        seeded, counts = _traced_witnesses(monkeypatch, g)
        crossed = next(i for i, spent in enumerate(accumulate(counts)) if spent > paths.SEED_AFTER)
        assert crossed == (9 if g.n == 25 else 0)
        with monkeypatch.context() as m:
            m.setattr(paths, "SEED_AFTER", float("inf"))
            unseeded, full_counts = _traced_witnesses(monkeypatch, g)
        assert counts[:crossed + 1] == full_counts[:crossed + 1]  # the rows after are seeded
        assert unseeded == seeded and sum(full_counts) > sum(counts), g.n


def test_walk_seed_moves_cost_not_witnesses_and_counts_repeat(monkeypatch):
    monkeypatch.setattr(paths, "SEED_AFTER", 0)
    gs = [grid_graph(4, 5), petersen_graph(), random_connected_graph(16, random.Random(4), 0.25)]
    first = [_traced_witnesses(monkeypatch, g) for g in gs]
    assert [_traced_witnesses(monkeypatch, g) for g in gs] == first
    monkeypatch.setattr(paths, "WALK_SEED", 1)
    second = [_traced_witnesses(monkeypatch, g) for g in gs]
    assert [w for w, _ in first] == [w for w, _ in second]
    assert [c for _, c in first] != [c for _, c in second]


def test_seeded_budget_counts_rows_settled_by_seeds(monkeypatch):
    # Row 0, of the C4 on 0..3, takes four expansions and seeds the rest.
    # The seeds settle row 1 with none (unseeded it takes four, see
    # test_witness_budget_names_rows_done_and_expansions); row 4, the first
    # of Q4, runs out after 21.
    monkeypatch.setattr(paths, "SEED_AFTER", 0)
    g = disjoint_union(cycle_graph(4), hypercube(4))
    assert _traced_witnesses(monkeypatch, g)[1][:5] == [4, 0, 0, 0, 55]
    monkeypatch.setattr(paths, "DEFAULT_BUDGET", 20)
    with pytest.raises(BudgetExceeded, match=r"at source 4 after 4 of 19 rows, "
                                             r"25 expansions so far"):
        monophonic_witnesses(g)


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
    # frozen from the simple-path filter oracle over all ten start vertices
    assert longest_induced_path_length(petersen_graph()) == 4
    with pytest.raises(CapExceeded):
        longest_induced_path_length(complete_graph(65))


def test_longest_induced_path_budget_names_how_far_it_got(monkeypatch):
    monkeypatch.setattr(paths, "DEFAULT_BUDGET", 60)
    with pytest.raises(BudgetExceeded, match=r"^longest-path budget 60 exhausted after 4 of 9 "
                       r"sources, longest induced path so far 7$"):
        longest_induced_path_length(cycle_graph(9))


def test_longest_matches_bruteforce(rng):
    for _ in range(20):
        g = random_connected(rng, rng.randint(2, 7))
        best = max(m.bit_count() - 1 for u in range(g.n)
                   for listed in _chordless_simple_paths(g, u) for m in listed)
        assert longest_induced_path_length(g) == best


def test_partition_examples():
    assert induced_path_partition(path_graph(7))[0] == 1
    assert induced_path_partition(complete_graph(4))[0] == 2
    for n in (4, 5, 6, 8, 10):
        assert induced_path_partition(cycle_graph(n))[0] == 2
    assert induced_path_partition(cycle_graph(3))[0] == 2
    with pytest.raises(CapExceeded):
        induced_path_partition(complete_graph(17))


def test_partition_ceiling_holds_whatever_cap_it_gets():
    # the search has no budget, so a larger cap cannot lift its ceiling
    with pytest.raises(CapExceeded, match=r"^induced path partition cap 16 exceeded by order 17$"):
        induced_path_partition(complete_graph(17), cap=64)


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


def _bottom_up_table(g):
    """The partition DP solved over every subset mask in increasing order,
    taking the first path of least cost: ``dp[mask]`` is rho of the subgraph
    that ``mask`` induces and ``choice[mask]`` the path taken there."""
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
    return dp, choice


def _bottom_up_partition(g):
    """rho and the partition read off ``_bottom_up_table``: the slow twin of
    the decision search."""
    dp, choice = _bottom_up_table(g)
    parts = []
    mask = full = g.full()
    while mask:
        parts.append(to_tuple(choice[mask]))
        mask &= ~choice[mask]
    return dp[full], tuple(parts)


def _floors(g, mask):
    """The search's four counting floors at ``mask``, with the longest
    induced path of g as the order bound."""
    return tuple(paths._floors(g.adj, mask, longest_induced_path_length(g) + 1))


def test_partition_floors_never_exceed_rho_on_small_connected_graphs():
    """Every nonempty vertex set of every connected graph up to 6 vertices:
    no floor exceeds the exact rho of the subgraph the set induces, and
    each floor alone reaches it somewhere."""
    checked = 0
    alone = [0] * 4
    for g in connected_graphs(6):
        dp, _ = _bottom_up_table(g)
        for mask in range(1, 1 << g.n):
            floors = _floors(g, mask)
            assert len(floors) == 4 and max(floors) <= dp[mask], (g.adj, mask, floors)
            if floors.count(dp[mask]) == 1:
                alone[floors.index(dp[mask])] += 1
        checked += 1
    assert checked == 143 and all(alone), alone


@pytest.mark.parametrize("make, binding", [
    (lambda: random_connected_graph(16, random.Random(15), 0.6), 0),
    (lambda: random_block_graph(16, random.Random(3)), 1),
    (lambda: random_bipartite_graph(4, 11, random.Random(0)), 2),
    (lambda: random_split_graph(14, random.Random(5)), 3),
], ids=["gnp-order", "block-ends", "bipartite-independent", "split-clique"])
def test_partition_equals_bottom_up_twin_at_the_cap(make, binding):
    """Graphs of 14-16 vertices, each with a different floor alone reaching
    rho on the whole vertex set."""
    g = make()
    rho, parts = induced_path_partition(g)
    assert (rho, parts) == _bottom_up_partition(g)
    floors = _floors(g, g.full())
    assert floors[binding] == rho and floors.count(rho) == 1


def test_partition_of_no_vertices_and_of_no_edges():
    # Graph refuses order 0, so a bare instance stands in for the empty graph.
    nothing = object.__new__(Graph)
    nothing.n, nothing.adj = 0, ()
    assert induced_path_partition(nothing) == (0, ())
    assert induced_path_partition(empty_graph(16)) == (16, tuple((v,) for v in range(16)))


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


def test_budget_exhaustion_is_loud(monkeypatch):
    monkeypatch.setattr(paths, "DEFAULT_BUDGET", 50)
    with pytest.raises(BudgetExceeded):
        interval_row(hypercube(4), 0)


def test_interval_cache_guards():
    c5, c6 = cycle_graph(5), cycle_graph(6)
    cache = IntervalCache(c5)
    cache.interval(0, 2)
    with pytest.raises(InputError):
        monophonic_interval(c6, 0, 2, cache)
    from monopos.solvers import PathMode, build_triple_index

    with pytest.raises(InputError):
        build_triple_index(complete_graph(6), PathMode.MONOPHONIC, IntervalCache(path_graph(6)))
