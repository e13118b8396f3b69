from itertools import combinations

import pytest
from hypothesis import given, settings

from conftest import connected_graphs, graphs, random_connected
from monopos.bitset import bit, iter_bits, mask_of, to_tuple
from monopos.errors import CapExceeded, InputError
from monopos.graph import (Graph, complete_graph, complete_multipartite,
                           cycle_graph, path_graph)
from monopos.invariants import (DIST_INF, SplitPartition, alpha_omega_number, bipartition,
                                blocks, clique_number, cut_vertices, deficiency_witness,
                                diameter, dissociation_number, distance_matrix, has_triangle,
                                independence_number, is_block_graph, is_distance_hereditary,
                                leaves, max_bipartite_matching, max_degree_le_one,
                                oracle_max_subset, phi_separated, psi_uniform,
                                simplicial_vertices, split_partition, unions_of_cliques)
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
@given(graphs(min_n=1, max_n=9))
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


# -- bipartite machinery ------------------------------------------------------


def test_bipartition_examples():
    bp, odd = bipartition(cycle_graph(6))
    assert odd is None
    assert {to_tuple(bp.side_a), to_tuple(bp.side_b)} == {(0, 2, 4), (1, 3, 5)}
    bp, odd = bipartition(cycle_graph(5))
    assert bp is None and len(odd) % 2 == 1
    for i in range(len(odd)):
        assert cycle_graph(5).has_edge(odd[i], odd[(i + 1) % len(odd)])


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
    m = max_bipartite_matching(g, left, right)
    assert m.size == 2
    c6 = cycle_graph(6)
    bp, _ = bipartition(c6)
    assert max_bipartite_matching(c6, bp.side_a, bp.side_b).size == 3


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
        m = max_bipartite_matching(g, bp.side_a, bp.side_b)
        assert m.size == _matching_oracle(g, bp.side_a, bp.side_b)
        for u, v in m.pairs:
            assert g.has_edge(u, v)
        flat = [x for p in m.pairs for x in p]
        assert len(flat) == len(set(flat))
        alpha, _ = independence_number(g)
        assert m.size == g.n - alpha  # Koenig duality on bipartite instances


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
        if mask.bit_count() < 2:
            continue
        sub = g.induced(mask)
        if not sub.is_connected():
            continue
        verts = to_tuple(mask)
        d = distance_matrix(sub)
        for i in range(sub.n):
            for j in range(i + 1, sub.n):
                if d[i][j] != base[verts[i]][verts[j]]:
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
