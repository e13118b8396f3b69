import pytest
from hypothesis import given, settings

from conftest import graphs
from monopos.errors import InputError
from monopos.graph import (Graph, add_pendant, cartesian_product, complement,
                           complete_graph, complete_multipartite, corona, cycle_graph,
                           emit_edgelist, empty_graph, join, parse_edgelist, path_graph)
from monopos.families import random_graph
from monopos.graph6 import emit_graph6
from monopos.invariants import clique_number


def test_validation():
    with pytest.raises(InputError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(InputError):
        Graph.from_edges(2, [(0, 5)])
    with pytest.raises(InputError):
        Graph(2, (1, 0))  # vertex 0 says "adjacent to 0": loop
    with pytest.raises(InputError):
        Graph(600, tuple(0 for _ in range(600)))


def _asymmetry_message(adj):
    """The per-edge symmetry check: the text of its error, or None."""
    for v, m in enumerate(adj):
        for u in range(len(adj)):
            if m >> u & 1 and not adj[u] >> v & 1:
                return f"asymmetric adjacency between {u} and {v}"
    return None


def test_asymmetric_adjacency_names_the_first_pair_in_edge_order(rng):
    """The row-against-column check accepts what the per-edge loop accepts
    and names the same first pair, at every order up to the 512 cap."""
    for n in (2, 3, 7, 16, 63, 64, 65, 200, 512):
        g = random_graph(n, rng, min(1.0, 4 / n))
        assert Graph(n, g.adj) == g
        for _ in range(4):
            adj = list(g.adj)
            for _ in range(rng.randint(1, 3)):  # flip one direction of a pair
                u, v = rng.sample(range(n), 2)
                adj[u] ^= 1 << v
            want = _asymmetry_message(adj)
            if want is None:
                assert Graph(n, tuple(adj)).adj == tuple(adj)
                continue
            with pytest.raises(InputError) as err:
                Graph(n, tuple(adj))
            assert str(err.value) == want


def test_complement_examples():
    assert complement(complete_graph(5)) == empty_graph(5)
    c4c = complement(cycle_graph(4))
    assert sorted(c4c.edges()) == [(0, 2), (1, 3)]


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=10))
def test_complement_involution(g):
    assert complement(complement(g)) == g


def test_join_star_and_cliques():
    star = join(complete_graph(1), empty_graph(4))
    assert star.n == 5 and star.degree(0) == 4
    assert all(star.degree(v) == 1 for v in range(1, 5))
    assert join(complete_graph(3), complete_graph(4)) == complete_graph(7)


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=5), graphs(max_n=5))
def test_join_clique_number_adds(g, h):
    og, _ = clique_number(g)
    oh, _ = clique_number(h)
    oj, _ = clique_number(join(g, h))
    assert oj == og + oh


def test_corona_layout():
    g = corona(cycle_graph(5), complete_graph(1))
    assert g.n == 10
    assert all(g.degree(5 + i) == 1 for i in range(5))
    assert all(g.degree(i) == 3 for i in range(5))
    # single-vertex base reduces to a join
    h = cycle_graph(4)
    assert corona(complete_graph(1), h) == join(complete_graph(1), h)


def test_corona_order_product():
    g = corona(path_graph(3), complete_graph(2))
    assert g.n == 3 * (1 + 2)


def test_corona_requires_connected_base():
    with pytest.raises(InputError):
        corona(empty_graph(2), complete_graph(1))


def test_cartesian_product():
    square = cartesian_product(path_graph(2), path_graph(2))
    assert square.n == 4 and square.edge_count() == 4
    assert sorted(square.degree(v) for v in range(4)) == [2, 2, 2, 2]  # C4
    g, h = cycle_graph(3), path_graph(4)
    prod = cartesian_product(g, h)
    assert prod.edge_count() == g.n * h.edge_count() + h.n * g.edge_count()


def test_hypercube_recursion():
    from monopos.families import hypercube

    q3 = hypercube(3)
    assert q3 == cartesian_product(hypercube(2), complete_graph(2))
    assert q3.n == 8 and all(q3.degree(v) == 3 for v in range(8))


def test_add_pendant():
    g = add_pendant(path_graph(3), 2)
    assert g.n == 4 and g.degree(3) == 1 and g.has_edge(2, 3)
    with pytest.raises(InputError):
        add_pendant(path_graph(3), 7)


def test_pendant_leaf_count_on_trees(rng):
    from monopos.families import random_tree
    from monopos.invariants import leaves

    for _ in range(50):
        t = random_tree(rng.randint(2, 10), rng)
        v = rng.randrange(t.n)
        before = leaves(t).bit_count()
        after = leaves(add_pendant(t, v)).bit_count()
        assert after - before in (0, 1)


def test_edgelist_roundtrip():
    g = cycle_graph(5)
    text = emit_edgelist(g)
    assert text.splitlines()[0] == "5 5"
    assert parse_edgelist(text) == g
    with pytest.raises(InputError):
        parse_edgelist("3\n0 1\n")
    with pytest.raises(InputError):
        parse_edgelist("3 2\n0 1\n")


def test_multipartite():
    g = complete_multipartite([2, 2])
    assert g == complement(Graph.from_edges(4, [(0, 1), (2, 3)]))
    assert complete_multipartite([1, 1, 1]) == complete_graph(3)


def test_components():
    g = Graph.from_edges(5, [(0, 1), (2, 3)])
    assert [g.component_of(v) for v in range(5)] == [0b00011, 0b00011, 0b01100, 0b01100, 0b10000]
    assert g.component_of(0, within=0b11110) == 0
    assert cycle_graph(5).component_of(0, within=0b11011) == 0b11011
    assert not g.is_connected()
    assert cycle_graph(4).is_connected()


def test_graph6_id_stability():
    # same construction, same token: relied on by every harness witness
    assert emit_graph6(corona(cycle_graph(5), complete_graph(1))) == \
        emit_graph6(corona(cycle_graph(5), complete_graph(1)))
