import random
from collections import deque
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monopos.invariants as invariants
import monopos.solvers as solvers
from conftest import connected_graphs, graphs, random_connected
from monopos.bitset import bit, iter_bits, mask_of, to_tuple
from monopos.errors import CapExceeded, InputError
from monopos.graph import (Graph, complete_graph, complete_multipartite,
                           cycle_graph, path_graph)
from monopos.invariants import (DIST_INF, SplitPartition, _lexmin, alpha_omega_number,
                                bipartition, blocks, clique_number, clique_separator_atoms,
                                cut_vertices, deficiency_witness, diameter, dissociation_number,
                                distance_matrix, has_triangle, independence_number,
                                is_block_graph, is_distance_hereditary, leaves,
                                max_degree_le_one, oracle_max_subset, phi_separated,
                                psi_uniform, simplicial_vertices, split_partition,
                                unions_of_cliques)
from monopos.solvers import GraphSolver


# -- distances ---------------------------------------------------------------


def test_distance_examples():
    d = distance_matrix(cycle_graph(6))
    assert d[0][3] == 3 and d[0][1] == 1 and d[0][0] == 0
    dk = distance_matrix(complete_graph(4))
    assert all(dk[i][j] + (i == j) == 1 for i in range(4) for j in range(4))
    from monopos.families import petersen_graph

    assert diameter(petersen_graph()) == 2


def test_distance_disconnected_sentinel():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    d = distance_matrix(g)
    assert d[0][2] == DIST_INF and d[0][1] == 1


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=2, max_n=9))
def test_distance_symmetry_triangle(g):
    d = distance_matrix(g)
    n = g.n
    assert all(d[i][j] == d[j][i] for i in range(n) for j in range(n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert d[i][j] <= d[i][k] + d[k][j]


def _plain_bfs(nbrs: list[list[int]], s: int) -> list[int]:
    """Hop distances from s by a queue over adjacency lists: the twin of
    ``Graph.layers``."""
    dist = [DIST_INF] * len(nbrs)
    dist[s] = 0
    queue = deque([s])
    while queue:
        v = queue.popleft()
        for u in nbrs[v]:
            if dist[u] == DIST_INF:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def test_distance_rows_equal_plain_bfs_up_to_512(rng):
    from monopos.families import random_graph, random_tree

    sizes = [rng.randint(2, 512) for _ in range(2)]
    cases = [random_graph(512, rng, 1.5 / 512), random_tree(512, rng)]
    cases += [random_graph(n, rng, rng.choice((1, 3, 20)) / n) for n in sizes]
    assert not all(g.is_connected() for g in cases)
    for g in cases:
        nbrs = [list(iter_bits(m)) for m in g.adj]
        d = distance_matrix(g)
        for s in rng.sample(range(g.n), 20):
            assert d[s] == _plain_bfs(nbrs, s), (g.n, s)


@settings(max_examples=100, deadline=None)
@given(graphs(min_n=1, max_n=12))
def test_diameter_is_the_largest_distance(g):
    if g.is_connected():
        assert diameter(g) == max(map(max, distance_matrix(g)))
    else:
        with pytest.raises(InputError, match="disconnected"):
            diameter(g)


# -- articulation ------------------------------------------------------------


def test_cut_vertices():
    assert to_tuple(cut_vertices(path_graph(5))) == (1, 2, 3)
    assert cut_vertices(cycle_graph(6)) == 0
    star = complete_multipartite([4, 1])
    assert to_tuple(cut_vertices(star)) == (4,)
    with pytest.raises(InputError):
        cut_vertices(Graph.from_edges(3, [(0, 1)]))


def test_blocks_and_block_graph():
    # two triangles sharing a vertex
    g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    bl = blocks(g)
    assert len(bl) == 2 and all(m.bit_count() == 3 for m in bl)
    assert is_block_graph(g)
    assert not is_block_graph(cycle_graph(4))
    assert is_block_graph(path_graph(6))


def _atoms_oracle(g):
    """The maximal vertex sets that induce a connected subgraph with no
    clique separator, by trying every clique inside every vertex set."""
    cliques = [s for s in range(1 << g.n) if g.is_clique_mask(s)]

    def connected(m):
        return g.component_of((m & -m).bit_length() - 1, m) == m

    atoms = []
    for m in sorted(range(1, 1 << g.n), key=lambda m: -m.bit_count()):
        if any(m & a == m for a in atoms) or not connected(m):
            continue
        if all(connected(m & ~s) for s in cliques if s & m == s and s != m):
            atoms.append(m)
    return sorted(atoms)


def test_clique_separator_atoms_equal_the_definition_on_small_connected_graphs():
    for g in connected_graphs(7):
        assert sorted(clique_separator_atoms(g)) == _atoms_oracle(g), g.adj


def test_simplicial():
    assert to_tuple(simplicial_vertices(path_graph(4))) == (0, 3)
    assert simplicial_vertices(complete_graph(5)) == (1 << 5) - 1
    assert simplicial_vertices(cycle_graph(5)) == 0


# -- exact solvers vs exhaustive oracles --------------------------------------


def test_clique_examples():
    from monopos.families import petersen_graph

    assert clique_number(petersen_graph())[0] == 2
    assert clique_number(complete_multipartite([3, 3]))[0] == 2
    assert clique_number(complete_graph(7))[0] == 7


@settings(max_examples=50, deadline=None)
@given(graphs(min_n=1, max_n=12))
def test_clique_alpha_against_subset_oracle(g):
    w, wit = clique_number(g)
    ow, owit = oracle_max_subset(g, g.is_clique_mask)
    assert (w, wit) == (ow, owit)  # value and lexmin witness
    a, awit = independence_number(g)
    oa, oawit = oracle_max_subset(g, g.is_independent_mask)
    assert (a, awit) == (oa, oawit)


def test_alpha_examples():
    assert independence_number(cycle_graph(5))[0] == 2
    assert independence_number(complete_graph(6))[0] == 1
    from monopos.families import grid_graph

    for n, m in ((2, 3), (3, 3), (2, 4), (3, 4)):
        got, _ = independence_number(grid_graph(n, m))
        want = -(-n // 2) * -(-m // 2) + (n // 2) * (m // 2)
        assert got == want, (n, m, got, want)


def test_alpha_omega_examples():
    assert alpha_omega_number(complete_graph(6))[0] == 6
    # exhaustive subsets: the 5-cycle packs an edge plus a far vertex
    assert alpha_omega_number(cycle_graph(5))[0] == 3
    with pytest.raises(CapExceeded):
        alpha_omega_number(complete_graph(21), cap=20)


@settings(max_examples=40, deadline=None)
@given(graphs(min_n=1, max_n=12))
def test_alpha_omega_against_oracle(g):
    got, wit = alpha_omega_number(g)
    want, owit = oracle_max_subset(g, lambda m: unions_of_cliques(g, m))
    assert (got, wit) == (want, owit)
    a, _ = independence_number(g)
    w, _ = clique_number(g)
    assert got >= max(a, w)


def test_dissociation_examples():
    assert dissociation_number(complete_graph(5))[0] == 2
    # path on five vertices: both end edges
    assert dissociation_number(path_graph(5))[0] == 4
    with pytest.raises(CapExceeded):
        dissociation_number(complete_graph(21), cap=20)


@settings(max_examples=40, deadline=None)
@given(graphs(min_n=1, max_n=12))
def test_dissociation_against_oracle(g):
    got, wit = dissociation_number(g)
    want, owit = oracle_max_subset(g, lambda m: max_degree_le_one(g, m))
    assert (got, wit) == (want, owit)


def test_clique_alpha_against_oracle_on_small_connected_graphs():
    checked = 0
    for g in connected_graphs(7):
        assert clique_number(g) == oracle_max_subset(g, g.is_clique_mask), g.adj
        assert independence_number(g) == oracle_max_subset(g, g.is_independent_mask), g.adj
        checked += 1
    assert checked == 996


def test_gp2_alpha_omega_and_oracle_agree_on_small_connected_graphs():
    """A 2-position set is a set inducing a union of cliques: gp2 and
    alphaomega share value and lexmin witness, and both match the oracle."""
    checked = 0
    for g in connected_graphs(7):
        rep = GraphSolver(g, lexmin=True).report("gp2")
        gp2 = (rep.value, mask_of(rep.witness))
        assert gp2 == alpha_omega_number(g), g.adj
        assert gp2 == oracle_max_subset(g, lambda m: unions_of_cliques(g, m)), g.adj
        checked += 1
    assert checked == 996


def test_dissociation_against_oracle_on_small_connected_graphs():
    checked = 0
    for g in connected_graphs(7):
        want = oracle_max_subset(g, lambda m: max_degree_le_one(g, m))
        assert dissociation_number(g) == want, g.adj
        checked += 1
    assert checked == 996


# -- the lexmin driver ---------------------------------------------------------

NINE_MAXIMA = ("mp", "gp", "gp2", "imp", "igp", "omega", "alpha", "alphaomega", "diss")


def _lexmin_twin(n, run, allowed, lexmin=True):
    """The driver with neither witness reuse nor the target floor: one run
    per allowed vertex, each a full search with no target."""
    value, found = run(0, allowed, None)
    if not lexmin:
        return value, found
    forced = 0
    for v in range(n - 1, -1, -1):
        b = bit(v)
        if allowed & b:
            if run(forced, allowed & ~b, None)[0] >= value:
                allowed &= ~b
            else:
                forced |= b
    return value, forced


def _nine_maxima(g, driver=None):
    """(value, witness) of the nine node-limited maxima, computed through
    ``driver`` in place of ``_lexmin`` when one is given."""
    with pytest.MonkeyPatch.context() as patch:
        if driver is not None:
            patch.setattr(invariants, "_lexmin", driver)
            patch.setattr(solvers, "_lexmin", driver)
        s = GraphSolver(g, lexmin=True)
        return {name: (s.value(name), s.report(name).witness) for name in NINE_MAXIMA}


def test_lexmin_driver_equals_its_twin_on_small_connected_graphs():
    checked = 0
    for g in connected_graphs(7):
        assert _nine_maxima(g) == _nine_maxima(g, _lexmin_twin), g.adj
        checked += 1
    assert checked == 996


@settings(max_examples=60, deadline=None)
@given(st.integers(8, 14), st.integers(0, 2**32 - 1), st.floats(0.15, 0.6))
def test_lexmin_driver_equals_its_twin_on_random_connected_graphs(n, seed, p):
    g = random_connected(random.Random(seed), n, p)
    assert _nine_maxima(g) == _nine_maxima(g, _lexmin_twin)


def test_lexmin_pass_runs_only_for_vertices_of_the_current_witness(rng):
    passes = []

    def logging_driver(n, run, allowed, lexmin=True):
        calls = []
        passes.append(calls)

        def logged(forced, box, target):
            got = run(forced, box, target)
            calls.append((box, target, got))
            return got
        return _lexmin(n, logged, allowed, lexmin)

    cases = list(connected_graphs(6)) + [random_connected(rng, 12, 0.3) for _ in range(5)]
    for g in cases:
        _nine_maxima(g, logging_driver)
    runs = vertices = 0
    for calls in passes:
        (allowed, target, (value, witness)), settle = calls[0], calls[1:]
        assert target is None
        for box, target, (size, mask) in settle:
            assert target == value
            gone = allowed & ~box  # the vertices settled out so far, all above v
            v = (gone & -gone).bit_length() - 1
            assert witness >> v & 1, "a run for a vertex outside the witness"
            if size >= value:
                witness = mask
        runs += len(settle)
        vertices += allowed.bit_count()
    assert len(passes) == 9 * len(cases)
    assert runs < vertices  # the twin runs once per allowed vertex


def test_lexmin_pass_on_a_complete_graph_costs_one_node_per_vertex():
    """On K_n the optimum search walks one branch (n + 1 nodes).  Each vertex
    is then in the witness, and its run, floored at size n - 1 with n - 1
    candidates left, stops at its root, so the limit 2n + 1 holds for the
    clique search and for the position search alike."""
    from monopos.solvers import PathMode, build_triple_index, max_position_set

    n = 20
    g = complete_graph(n)
    assert clique_number(g, node_limit=2 * n + 1) == (n, g.full())
    rep = max_position_set(build_triple_index(g, PathMode.MONOPHONIC), node_limit=2 * n + 1)
    assert (rep.value, rep.expansions) == (n, 2 * n + 1)


def test_a_target_run_returns_a_set_that_reaches_it_or_a_size_below_it(rng):
    """The ``run`` contract of ``_lexmin``, for the search of every maximum:
    with a target, a set of at least that size when one exists in the box,
    else a size below the target."""
    from monopos.families import petersen_graph

    runs = []

    def capturing_driver(n, run, allowed, lexmin=True):
        runs.append((run, allowed))
        return _lexmin(n, run, allowed, lexmin)

    for g in (petersen_graph(), cycle_graph(7), random_connected(rng, 11, 0.35)):
        _nine_maxima(g, capturing_driver)
    misses = 0
    for run, allowed in runs:
        value = run(0, allowed, None)[0]
        for v in iter_bits(allowed):
            box = allowed & ~bit(v)
            top = box and bit(box.bit_length() - 1)
            for forced in (0, top):
                best = run(forced, box, None)[0]
                for target in (value - 1, value, value + 1):
                    size, mask = run(forced, box, target)
                    if best >= target:
                        assert size >= target and size == mask.bit_count()
                        assert mask & forced == forced and not mask & ~box
                        assert run(mask, mask, None)[0] == size  # an accepted set
                    else:
                        assert size < target
                        misses += 1
    assert len(runs) == 27 and misses


# -- bipartite machinery ------------------------------------------------------


def test_bipartition_examples():
    bp, odd = bipartition(cycle_graph(6))
    assert odd is None
    assert {to_tuple(bp.side_a), to_tuple(bp.side_b)} == {(0, 2, 4), (1, 3, 5)}
    bp, odd = bipartition(cycle_graph(5))
    assert bp is None and len(odd) % 2 == 1
    for i in range(len(odd)):
        assert cycle_graph(5).has_edge(odd[i], odd[(i + 1) % len(odd)])


def test_bipartition_equals_plain_two_colouring_on_small_connected_graphs():
    """Sides as a queue 2-colouring from vertex 0 gives them; otherwise the
    certificate is a closed walk of odd length."""
    checked = 0
    for g in connected_graphs(7):
        colour = _plain_bfs([list(iter_bits(m)) for m in g.adj], 0)
        side_a = mask_of(v for v in range(g.n) if colour[v] % 2 == 0)
        proper = all(colour[u] % 2 != colour[v] % 2 for u, v in g.edges())
        bp, odd = bipartition(g)
        if proper:
            assert odd is None and (bp.side_a, bp.side_b) == (side_a, g.full() & ~side_a)
        else:
            assert bp is None and len(odd) % 2 == 1, g.adj
            assert all(g.has_edge(odd[i - 1], odd[i]) for i in range(len(odd))), (g.adj, odd)
        checked += 1
    assert checked == 996


def test_trees_bipartite(rng):
    from monopos.families import random_tree

    for _ in range(20):
        bp, odd = bipartition(random_tree(rng.randint(2, 12), rng))
        assert bp is not None and odd is None


def _psi_oracle(g, bp):
    best = 0
    verts = list(range(g.n))
    for k in range(g.n, 0, -1):
        for sub in combinations(verts, k):
            m = mask_of(sub)
            sa = [v for v in sub if bp.side_a & bit(v)]
            sb = [v for v in sub if bp.side_b & bit(v)]
            if len({g.adj[v] for v in sa}) <= 1 and len({g.adj[v] for v in sb}) <= 1:
                return k
    return best


def test_psi_examples(rng):
    g = cycle_graph(4)
    bp, _ = bipartition(g)
    assert psi_uniform(g, bp)[0] == 4
    kmn = complete_multipartite([3, 4])
    bp, _ = bipartition(kmn)
    assert psi_uniform(kmn, bp)[0] == 7
    from monopos.families import random_bipartite_graph

    for _ in range(15):
        g = random_bipartite_graph(rng.randint(1, 4), rng.randint(1, 4), rng)
        bp, _ = bipartition(g)
        assert psi_uniform(g, bp)[0] == _psi_oracle(g, bp)


def test_psi_trees():
    # twin-free trees of diameter >= 3 have psi exactly 2 (all classes singleton)
    t = path_graph(6)
    bp, _ = bipartition(t)
    assert psi_uniform(t, bp)[0] == 2
    # twin leaves push psi above 2: vertex 1 carries leaves 0 and 5
    from monopos.graph import add_pendant

    twin = add_pendant(path_graph(5), 1)
    bp, _ = bipartition(twin)
    psi, _ = psi_uniform(twin, bp)
    alpha, _ = independence_number(twin)
    assert psi == 3
    assert psi <= alpha  # the complement formula still lands on alpha


def test_matching_examples():
    g = complete_multipartite([2, 3])
    left, right = mask_of([0, 1]), mask_of([2, 3, 4])
    assert deficiency_witness(g, left, right)[2] == 2
    c6 = cycle_graph(6)
    bp, _ = bipartition(c6)
    assert deficiency_witness(c6, bp.side_a, bp.side_b)[2] == 3


def _matching_oracle(g, left, right):
    edges = [(u, v) for u in iter_bits(left) for v in iter_bits(g.adj[u] & right)]
    best = 0
    for k in range(len(edges), 0, -1):
        for sub in combinations(edges, k):
            used = set()
            ok = True
            for u, v in sub:
                if u in used or v in used:
                    ok = False
                    break
                used.add(u)
                used.add(v)
            if ok:
                return k
    return best


def test_matching_against_oracle_and_koenig(rng):
    from monopos.families import random_bipartite_graph

    for _ in range(15):
        g = random_bipartite_graph(rng.randint(1, 4), rng.randint(1, 4), rng)
        bp, _ = bipartition(g)
        size = deficiency_witness(g, bp.side_a, bp.side_b)[2]
        assert size == _matching_oracle(g, bp.side_a, bp.side_b)
        alpha, _ = independence_number(g)
        assert size == g.n - alpha  # Koenig duality on bipartite instances


def test_deficiency_witness(rng):
    from monopos.families import random_split_graph

    for _ in range(20):
        g = random_split_graph(rng.randint(2, 10), rng)
        sp = split_partition(g)
        j, nj, size = deficiency_witness(g, sp.clique, sp.independent)
        assert j & ~sp.independent == 0 and nj & ~sp.clique == 0
        hood = 0
        for v in iter_bits(j):
            hood |= g.adj[v] & sp.clique
        assert hood == nj


# -- split graphs -------------------------------------------------------------


def test_split_examples():
    star = complete_multipartite([3, 1])
    sp = split_partition(star)
    assert sp is not None and sp.clique == bit(3)
    assert split_partition(cycle_graph(4)) is None
    assert split_partition(path_graph(4)) is not None
    assert split_partition(cycle_graph(5)) is None


def test_split_degenerate_bookkeeping():
    from monopos.graph import empty_graph

    for g in (empty_graph(1), empty_graph(4), complete_graph(5)):
        sp = split_partition(g)
        omega, _ = clique_number(g)
        alpha, _ = independence_number(g)
        bump = 1 if sp.divided is not None else 0
        assert omega == sp.clique.bit_count() + bump
        assert alpha == sp.independent.bit_count()


def test_split_threshold_graphs(rng):
    # threshold graphs (built by dominating/isolated additions) are split
    for _ in range(20):
        n = rng.randint(2, 12)
        adj = [0]
        for v in range(1, n):
            adj.append(0)
            if rng.random() < 0.5:
                for u in range(v):
                    adj[u] |= bit(v)
                    adj[v] |= bit(u)
        g = Graph(n, tuple(adj))
        assert split_partition(g) is not None


def test_split_normalization(rng):
    from monopos.families import random_split_graph

    for _ in range(40):
        g = random_split_graph(rng.randint(2, 12), rng)
        sp = split_partition(g)
        assert g.is_clique_mask(sp.clique)
        assert g.is_independent_mask(sp.independent)
        omega, _ = clique_number(g)
        alpha, _ = independence_number(g)
        if sp.divided is None:
            assert omega == sp.clique.bit_count()
            assert alpha == sp.independent.bit_count()
        else:
            assert sp.independent & bit(sp.divided)
            assert g.adj[sp.divided] & sp.clique == sp.clique
            assert omega == sp.clique.bit_count() + 1
            assert alpha == sp.independent.bit_count()


def _phi_oracle(g, cmask, imask):
    best = 0
    cl, il = list(iter_bits(cmask)), list(iter_bits(imask))
    sp = split_partition(g)
    for k in range(len(cl) + 1):
        for cs in combinations(cl, k):
            cm = mask_of(cs)
            for k2 in range(len(il) + 1):
                for isub in combinations(il, k2):
                    im = mask_of(isub)
                    cross = any(g.adj[v] & cm for v in isub)
                    if not cross or (k2 == 1 and g.is_clique_mask(cm | im)):
                        best = max(best, k + k2)
    return best


def test_phi_examples():
    star = complete_multipartite([3, 1])
    sp = split_partition(star)
    val, wit = phi_separated(star, sp)
    assert val == 3 and wit.bit_count() == 3


def is_separated_subgraph(g: Graph, sp: SplitPartition, csub: int, isub: int) -> bool:
    """Membership test for the separated-subgraph definition."""
    if csub & ~sp.clique or isub & ~sp.independent:
        return False
    cross = any(g.adj[v] & csub for v in iter_bits(isub))
    if not cross:
        return True
    return isub.bit_count() == 1 and g.is_clique_mask(csub | isub)


class SplitLike:
    def __init__(self, clique, independent):
        self.clique = clique
        self.independent = independent


def test_phi_against_exhaustive(rng):
    from monopos.families import random_split_graph

    for _ in range(30):
        g = random_split_graph(rng.randint(2, 10), rng)
        sp = split_partition(g)
        # the maximization side: divided vertex counted with the clique
        cm, im = sp.clique, sp.independent
        if sp.divided is not None:
            cm |= bit(sp.divided)
            im &= ~bit(sp.divided)
        val, wit = phi_separated(g, sp)
        assert val == _phi_oracle(g, cm, im)
        assert wit.bit_count() == val
        assert is_separated_subgraph(g, SplitLike(cm, im), wit & cm, wit & im)
        omega, _ = clique_number(g)
        alpha, _ = independence_number(g)
        assert val >= max(omega, alpha)


def test_complete_split_phi():
    # every clique-to-independent edge present
    for c in range(1, 5):
        for i in range(1, 5):
            edges = [(a, b) for a in range(c) for b in range(a + 1, c)]
            edges += [(a, c + b) for a in range(c) for b in range(i)]
            g = Graph.from_edges(c + i, edges)
            sp = split_partition(g)
            val, _ = phi_separated(g, sp)
            assert val == max(i, c + 1)


# -- distance-hereditary -------------------------------------------------------


def test_dh_examples():
    assert is_distance_hereditary(cycle_graph(4))
    assert not is_distance_hereditary(cycle_graph(5))
    assert not is_distance_hereditary(cycle_graph(6))
    from monopos.families import random_tree

    import random as _r

    r = _r.Random(5)
    for _ in range(10):
        assert is_distance_hereditary(random_tree(r.randint(2, 10), r))


def preserves_distances_everywhere(g: Graph) -> bool:
    """Definitional check over all connected induced subgraphs (small n only)."""
    if g.n > 10:
        raise CapExceeded("definitional distance-hereditary check capped at n=10")
    base = distance_matrix(g)
    for mask in range(1, 1 << g.n):
        verts = to_tuple(mask)
        if len(verts) < 2 or g.component_of(verts[0], mask) != mask:
            continue
        for u in verts:  # BFS layers from u inside the induced subgraph
            seen = frontier = bit(u)
            d = 0
            while frontier:
                d += 1
                grow = 0
                for v in iter_bits(frontier):
                    grow |= g.adj[v]
                frontier = grow & mask & ~seen
                seen |= frontier
                if any(base[u][v] != d for v in iter_bits(frontier)):
                    return False
    return True


def test_dh_matches_definitional(rng):
    for _ in range(60):
        g = random_connected(rng, rng.randint(2, 8))
        assert is_distance_hereditary(g) == preserves_distances_everywhere(g)


def test_misc_predicates():
    assert has_triangle(complete_graph(3))
    assert not has_triangle(cycle_graph(6))
    assert to_tuple(leaves(path_graph(3))) == (0, 2)
