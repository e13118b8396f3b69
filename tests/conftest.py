import random
from functools import lru_cache

import pytest
from hypothesis import strategies as st

from monopos.graph import Graph


@st.composite
def graphs(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
    return Graph.from_edges(n, edges)


@pytest.fixture
def rng():
    return random.Random(20240811)


def random_connected(rng, n, p=None):
    from monopos.families import random_connected_graph

    return random_connected_graph(n, rng, p)


def _canonical(adj: tuple[int, ...]) -> tuple[int, ...]:
    """Smallest adjacency tuple over relabellings that keep vertices sorted by
    degree and neighbour degrees; equal exactly for isomorphic graphs."""
    from itertools import permutations, product

    n = len(adj)
    nbrs = [[u for u in range(n) if adj[v] >> u & 1] for v in range(n)]
    key = [(len(nb), tuple(sorted(len(nbrs[u]) for u in nb))) for nb in nbrs]
    groups = [[v for v in range(n) if key[v] == k] for k in sorted(set(key))]
    best = None
    for parts in product(*(permutations(grp) for grp in groups)):
        order = [v for part in parts for v in part]
        pos = [0] * n
        for i, v in enumerate(order):
            pos[v] = i
        form = tuple(sum(1 << pos[u] for u in nbrs[v]) for v in order)
        if best is None or form < best:
            best = form
    return best


@lru_cache(maxsize=None)
def _all_graphs(n: int) -> tuple[tuple[int, ...], ...]:
    """One adjacency tuple per isomorphism class of graphs on n vertices,
    grown a vertex at a time from every class one vertex smaller."""
    if n == 1:
        return ((0,),)
    grown = {}
    for adj in _all_graphs(n - 1):
        for nb in range(1 << (n - 1)):
            new = tuple(a | (nb >> v & 1) << (n - 1) for v, a in enumerate(adj)) + (nb,)
            grown.setdefault(_canonical(new), new)
    return tuple(grown.values())


def all_graphs(max_n: int):
    """One graph per isomorphism class of graphs on 1..max_n vertices.
    The classes are cached, so later calls in one session cost little."""
    for n in range(1, max_n + 1):
        for adj in _all_graphs(n):
            yield Graph(n, adj)


def connected_graphs(max_n: int):
    """One graph per isomorphism class of connected graphs on 1..max_n vertices."""
    return (g for g in all_graphs(max_n) if g.is_connected())
