"""Immutable simple undirected graphs with bitset adjacency.

A ``Graph`` stores one adjacency mask per vertex (see :mod:`monopos.bitset`).
Vertices are the integers ``0..n-1``.  Graphs are frozen after construction
and safe to share between threads; every operation in the package is a pure
function of its inputs.
"""

from __future__ import annotations

from .bitset import bit, full_mask, iter_bits, mask_of
from .errors import InputError

#: Hard upper bound on graph order accepted anywhere in the package.
MAX_VERTICES = 512

#: Default order cap for the exact solvers (see solver entry points).
SOLVER_CAP = 64


class Graph:
    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: tuple[int, ...]):
        if not 1 <= n <= MAX_VERTICES:
            raise InputError(f"graph order {n} outside supported range 1..{MAX_VERTICES}")
        if len(adj) != n:
            raise InputError("adjacency length does not match order")
        universe = full_mask(n)
        for v, m in enumerate(adj):
            if m & ~universe:
                raise InputError(f"adjacency of vertex {v} mentions vertices >= {n}")
            if m & bit(v):
                raise InputError(f"loop at vertex {v}")
        for v in range(n):
            for u in iter_bits(adj[v]):
                if not adj[u] & bit(v):
                    raise InputError(f"asymmetric adjacency between {u} and {v}")
        self.n = n
        self.adj = tuple(adj)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) out of range for order {n}")
            if u == v:
                raise InputError(f"loop at vertex {u}")
            adj[u] |= bit(v)
            adj[v] |= bit(u)
        return cls(n, tuple(adj))

    # -- elementary queries ---------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] & bit(v))

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            for v in iter_bits(self.adj[u]):
                if v > u:
                    out.append((u, v))
        return out

    def full(self) -> int:
        return full_mask(self.n)

    def closed_neighborhood(self, v: int) -> int:
        return self.adj[v] | bit(v)

    # -- connectivity ---------------------------------------------------------

    def layers(self, v: int, within: int | None = None) -> list[int]:
        """The package's one breadth-first search: masks of the vertices at
        distance 0, 1, 2, ... from v along paths inside ``within`` (default:
        every vertex); empty when v is outside ``within``."""
        allowed = self.full() if within is None else within
        layer = seen = bit(v) & allowed
        out = []
        while layer:
            out.append(layer)
            grow = 0
            for u in iter_bits(layer):
                grow |= self.adj[u]
            layer = grow & allowed & ~seen
            seen |= layer
        return out

    def component_of(self, v: int, within: int | None = None) -> int:
        """Mask of the connected component of v, optionally inside ``within``."""
        return sum(self.layers(v, within))  # disjoint layers: the sum is the union

    def is_connected(self) -> bool:
        return self.component_of(0) == self.full()

    def is_clique_mask(self, mask: int) -> bool:
        for v in iter_bits(mask):
            if mask & ~self.closed_neighborhood(v):
                return False
        return True

    def is_independent_mask(self, mask: int) -> bool:
        for v in iter_bits(mask):
            if mask & self.adj[v]:
                return False
        return True

    # -- dunder ---------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


# -- classical constructions ----------------------------------------------


def complement(g: Graph) -> Graph:
    universe = g.full()
    return Graph(g.n, tuple((universe & ~g.adj[v]) & ~bit(v) for v in range(g.n)))


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all cross edges; g keeps ids 0..g.n-1."""
    n = g.n + h.n
    gmask = full_mask(g.n)
    hmask = full_mask(n) & ~gmask
    adj = [0] * n
    for v in range(g.n):
        adj[v] = g.adj[v] | hmask
    for v in range(h.n):
        adj[g.n + v] = (h.adj[v] << g.n) | gmask
    return Graph(n, tuple(adj))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    n = g.n + h.n
    adj = list(g.adj) + [h.adj[v] << g.n for v in range(h.n)]
    return Graph(n, tuple(adj))


def corona(g: Graph, h: Graph) -> Graph:
    """One copy of h per vertex of g, each copy fully joined to its vertex.

    Ids: g's vertices first, then copy i occupies g.n + i*h.n .. g.n + (i+1)*h.n - 1.
    """
    if not g.is_connected():
        raise InputError("corona requires a connected first factor")
    n = g.n * (1 + h.n)
    adj = [0] * n
    for v in range(g.n):
        adj[v] = g.adj[v]
    for i in range(g.n):
        base = g.n + i * h.n
        copy_mask = full_mask(h.n) << base
        adj[i] |= copy_mask
        for v in range(h.n):
            adj[base + v] = (h.adj[v] << base) | bit(i)
    return Graph(n, tuple(adj))


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product; vertex (u, v) gets id u*h.n + v (row-major)."""
    n = g.n * h.n
    adj = [0] * n
    for u in range(g.n):
        for v in range(h.n):
            i = u * h.n + v
            for w in iter_bits(h.adj[v]):
                adj[i] |= bit(u * h.n + w)
            for w in iter_bits(g.adj[u]):
                adj[i] |= bit(w * h.n + v)
    return Graph(n, tuple(adj))


def add_pendant(g: Graph, v: int) -> Graph:
    """New graph with one extra degree-1 vertex attached at v."""
    if not 0 <= v < g.n:
        raise InputError(f"attachment vertex {v} out of range")
    adj = list(g.adj) + [bit(v)]
    adj[v] |= bit(g.n)
    return Graph(g.n + 1, tuple(adj))


# -- edge-list text format --------------------------------------------------


def parse_edgelist(text: str) -> Graph:
    """Read the plain text format: first line ``n m``, then m lines ``u v``."""
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise InputError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise InputError("edge-list header must be 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise InputError(f"bad edge-list header: {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise InputError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise InputError(f"bad edge line: {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise InputError(f"bad edge line: {ln!r}") from exc
    return Graph.from_edges(n, edges)


def emit_edgelist(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count()}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def path_graph(n: int) -> Graph:
    """Path on n vertices (n-1 edges), ids in chain order."""
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    universe = full_mask(n)
    return Graph(n, tuple((universe & ~bit(v)) for v in range(n)))


def empty_graph(n: int) -> Graph:
    return Graph(n, tuple(0 for _ in range(n)))


def complete_multipartite(parts: list[int]) -> Graph:
    if not parts or any(p < 1 for p in parts):
        raise InputError("multipartite parts must be positive")
    n = sum(parts)
    masks = []
    start = 0
    for p in parts:
        masks.append(mask_of(range(start, start + p)))
        start += p
    universe = full_mask(n)
    adj = []
    start = 0
    for k, p in enumerate(parts):
        for v in range(start, start + p):
            adj.append(universe & ~masks[k])
        start += p
    return Graph(n, tuple(adj))
