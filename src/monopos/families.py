"""Graph family generators and closed-form parameter predictors.

Generators are pure functions of (family, params, seed); identical specs
produce identical graph6 strings.  Vertex layouts are fixed and documented
per family so witnesses stay reproducible.

Predictors return lists of :class:`PredictedValue` records carrying the
predicted parameter, the rule it came from and the applicability condition
that was checked.  :data:`GRAPH_FORMS` holds the closed forms keyed by the
graph alone, each raising :class:`InputError` outside its class.
:data:`FAMILIES` maps every family name to its builder and its predictor,
the graph-keyed ones read from :data:`GRAPH_FORMS`.  A spec
``family[:p1,p2,...][:seed=k]`` (any other shape is refused) is read by
``build``, its graph, and ``predict_for_spec``, its closed forms or ``[]``;
``generate``, what ``monopos family`` prints, is the two with metadata.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .bitset import bit, iter_bits
from .errors import CapExceeded, InputError
from .graph import (Graph, add_pendant, cartesian_product, complete_graph,
                    complete_multipartite, corona, cycle_graph, join, path_graph)
from .invariants import (alpha_omega_number, bipartition, blocks, clique_number,
                         deficiency_witness, diameter, independence_number, is_block_graph,
                         leaves, phi_separated, psi_uniform, simplicial_vertices,
                         split_partition, SplitPartition)
from .solvers import GraphSolver


@dataclass(frozen=True)
class FamilySpec:
    family: str
    params: tuple[int, ...] = ()
    seed: int | None = None
    subspecs: tuple["FamilySpec", ...] = ()

    def text(self) -> str:
        parts = [self.family]
        items = [f"({s.text()})" for s in self.subspecs] + [str(p) for p in self.params]
        if items:
            parts.append(",".join(items))
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        return ":".join(parts)


@dataclass(frozen=True)
class PredictedValue:
    parameter: str
    value: int
    rule: str
    applies: str

    def to_dict(self) -> dict:
        return {"parameter": self.parameter, "value": self.value,
                "rule": self.rule, "applies": self.applies}


# ---------------------------------------------------------------------------
# spec text parsing
# ---------------------------------------------------------------------------


def _split_top(text: str, sep: str) -> list[str]:
    """``text`` split at each ``sep`` outside parentheses."""
    depth = 0
    chunks = [""]
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise InputError(f"unbalanced parentheses in spec {text!r}")
        if ch == sep and depth == 0:
            chunks.append("")
        else:
            chunks[-1] += ch
    if depth != 0:
        raise InputError(f"unbalanced parentheses in spec {text!r}")
    return chunks


def parse_family_spec(text: str) -> FamilySpec:
    """Parse ``family[:p1,p2,...][:seed=k]``, nested specs in parentheses."""
    text = text.strip()
    if not text:
        raise InputError("empty family spec")
    family, *chunks = _split_top(text, ":")
    seed = None
    if chunks and chunks[-1].startswith("seed="):
        try:
            seed = int(chunks.pop()[5:])
        except ValueError as exc:
            raise InputError(f"bad seed in spec {text!r}") from exc
    if len(chunks) > 1:
        raise InputError(f"spec {text!r} is not family:p1,p2,...[:seed=k]")
    params: list[int] = []
    subspecs: list[FamilySpec] = []
    for item in _split_top(chunks[0], ",") if chunks else ():
        item = item.strip()
        if not item:
            raise InputError(f"empty parameter in spec {text!r}")
        if item.startswith("(") and item.endswith(")"):
            subspecs.append(parse_family_spec(item[1:-1]))
        else:
            try:
                params.append(int(item))
            except ValueError as exc:
                raise InputError(f"bad parameter {item!r} in spec {text!r}") from exc
    return FamilySpec(family, tuple(params), seed, tuple(subspecs))


# ---------------------------------------------------------------------------
# deterministic constructions
# ---------------------------------------------------------------------------


def half_wheel(r: int) -> Graph:
    """Cycle of length 2r (ids 0..2r-1 carrying labels 1..2r) plus a hub
    (id 2r) joined to the even-labelled rim vertices (odd ids)."""
    if r < 2:
        raise InputError("half_wheel needs r >= 2")
    n = 2 * r + 1
    edges = [(i, (i + 1) % (2 * r)) for i in range(2 * r)]
    edges += [(2 * r, i) for i in range(1, 2 * r, 2)]
    return Graph.from_edges(n, edges)


def half_wheel_pendant(b: int, a: int) -> Graph:
    """Half-wheel on parameter b-a+2 with a-2 pendants on the hub."""
    if a < 3 or b < a + 2:
        raise InputError("half_wheel_pendant needs 3 <= a and b >= a+2")
    g = half_wheel(b - a + 2)
    hub = g.n - 1
    for _ in range(a - 2):
        g = add_pendant(g, hub)
    return g


def wheel_pendant(a: int) -> Graph:
    """Order-six wheel (5-cycle ids 0..4, hub id 5) with a-2 pendants on the hub."""
    if a < 3:
        raise InputError("wheel_pendant needs a >= 3")
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(5, i) for i in range(5)]
    g = Graph.from_edges(6, edges)
    for _ in range(a - 2):
        g = add_pendant(g, 5)
    return g


def r_graph(r: int, s: int) -> Graph:
    """Clique on s+1 vertices (ids 0..s) with r leaves attached to vertex 0."""
    if r < 0 or s < 1:
        raise InputError("r_graph needs r >= 0 and s >= 1")
    g = complete_graph(s + 1)
    for _ in range(r):
        g = add_pendant(g, 0)
    return g


def p_graph(r: int, s: int) -> Graph:
    """Balanced complete bipartite graph minus a perfect matching (sides
    ids 0..s-1 and s..2s-1, with i !~ s+i), an apex (id 2s) joined to the
    first side, and r leaves on the apex."""
    if r < 0 or s < 2:
        raise InputError("p_graph needs r >= 0 and s >= 2")
    edges = [(i, s + j) for i in range(s) for j in range(s) if i != j]
    edges += [(2 * s, i) for i in range(s)]
    g = Graph.from_edges(2 * s + 1, edges)
    for _ in range(r):
        g = add_pendant(g, 2 * s)
    return g


def g_abl(a: int, b: int, length: int) -> Graph:
    """Clique of order b (ids 0..b-1); a path of the given length with
    vertices b..b+length; the path start joined to the first b-a+1 clique
    vertices.  Order b + length + 1."""
    if not (2 <= a <= b) or length < 1:
        raise InputError("g_abl needs 2 <= a <= b and length >= 1")
    g = complete_graph(b)
    edges = list(g.edges())
    edges += [(b, i) for i in range(b - a + 1)]
    edges += [(b + i, b + i + 1) for i in range(length)]
    return Graph.from_edges(b + length + 1, edges)


def petersen_graph() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, edges)


def _lcf(n: int, pattern: list[int]) -> Graph:
    edges = [(i, (i + 1) % n) for i in range(n)]
    for i in range(n):
        edges.append((i, (i + pattern[i % len(pattern)]) % n))
    return Graph.from_edges(n, set(tuple(sorted(e)) for e in edges))


def heawood_graph() -> Graph:
    return _lcf(14, [5, -5])


def mcgee_graph() -> Graph:
    return _lcf(24, [12, 7, -7])


def star_graph(k: int) -> Graph:
    if k < 1:
        raise InputError("star needs at least one leaf")
    return Graph.from_edges(k + 1, [(0, i) for i in range(1, k + 1)])


def caterpillar_graph(spine: int) -> Graph:
    """Path of the given order with one extra leaf on every internal vertex."""
    if spine < 2:
        raise InputError("caterpillar needs spine order >= 2")
    g = path_graph(spine)
    for v in range(1, spine - 1):
        g = add_pendant(g, v)
    return g


def hypercube(k: int) -> Graph:
    if k < 0:
        raise InputError("hypercube dimension must be >= 0")
    g = complete_graph(1)
    for _ in range(k):
        g = cartesian_product(g, complete_graph(2))
    return g


def grid_graph(n: int, m: int) -> Graph:
    """Grid with n*m vertices (n columns of paths of order m, row-major ids)."""
    if n < 1 or m < 1:
        raise InputError("grid sides must be >= 1")
    return cartesian_product(path_graph(n), path_graph(m))


# ---------------------------------------------------------------------------
# randomized constructions
# ---------------------------------------------------------------------------


def random_graph(n: int, rng: random.Random, p: float | None = None) -> Graph:
    p = rng.uniform(0.2, 0.7) if p is None else p
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_connected_graph(n: int, rng: random.Random, p: float | None = None) -> Graph:
    if n < 1:
        raise InputError("order must be positive")
    while True:
        g = random_graph(n, rng, p)
        if g.is_connected():
            return g


def random_tree(n: int, rng: random.Random) -> Graph:
    if n < 1:
        raise InputError("order must be positive")
    if n <= 2:
        return path_graph(n)
    pruefer = [rng.randrange(n) for _ in range(n - 2)]
    deg = [1] * n
    for x in pruefer:
        deg[x] += 1
    edges = []
    import heapq

    heap = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(heap)
    for x in pruefer:
        leaf = heapq.heappop(heap)
        edges.append((leaf, x))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(heap, x)
    u = heapq.heappop(heap)
    v = heapq.heappop(heap)
    edges.append((u, v))
    return Graph.from_edges(n, edges)


def random_unicyclic(n: int, rng: random.Random) -> Graph:
    """Random tree plus one extra edge (creates exactly one cycle)."""
    if n < 3:
        raise InputError("unicyclic graphs need n >= 3")
    while True:
        t = random_tree(n, rng)
        non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if not t.has_edge(u, v)]
        if non_edges:
            u, v = rng.choice(non_edges)
            return Graph.from_edges(n, t.edges() + [(u, v)])


def random_block_graph(n: int, rng: random.Random) -> Graph:
    """Tree of cliques glued at single vertices."""
    if n < 1:
        raise InputError("order must be positive")
    adj = [0] * n
    built = 1
    while built < n:
        host = rng.randrange(built)
        size = min(rng.randint(1, 3), n - built)
        clique = [host] + list(range(built, built + size))
        built += size
        for i, u in enumerate(clique):
            for v in clique[i + 1:]:
                adj[u] |= bit(v)
                adj[v] |= bit(u)
    return Graph(n, tuple(adj))


def random_distance_hereditary(n: int, rng: random.Random) -> Graph:
    """Grow from one vertex by pendants, true twins and false twins."""
    if n < 1:
        raise InputError("order must be positive")
    adj = [0]
    for new in range(1, n):
        anchor = rng.randrange(new)
        kind = rng.choice(("pendant", "true_twin", "false_twin"))
        if kind == "false_twin" and adj[anchor] == 0:
            kind = "pendant"
        adj.append(0)
        if kind == "pendant":
            adj[new] = bit(anchor)
            adj[anchor] |= bit(new)
        else:
            adj[new] = adj[anchor]
            for u in list(iter_bits(adj[anchor])):
                adj[u] |= bit(new)
            if kind == "true_twin":
                adj[new] |= bit(anchor)
                adj[anchor] |= bit(new)
    return Graph(n, tuple(adj))


def random_split_graph(n: int, rng: random.Random) -> Graph:
    """Random connected split graph; sometimes plants a divided vertex."""
    if n < 2:
        raise InputError("order must be >= 2")
    while True:
        c = rng.randint(1, n - 1)
        cset = list(range(c))
        iset = list(range(c, n))
        edges = [(u, v) for u in cset for v in cset if u < v]
        for v in iset:
            hood = [u for u in cset if rng.random() < rng.uniform(0.2, 0.8)]
            if not hood:
                hood = [rng.choice(cset)]
            edges += [(u, v) for u in hood]
        if iset and rng.random() < 0.25:
            v = iset[0]
            edges = [e for e in edges if v not in e] + [(u, v) for u in cset]
        g = Graph.from_edges(n, sorted(set(edges)))
        if g.is_connected() and split_partition(g) is not None:
            return g


def random_bipartite_graph(na: int, nb: int, rng: random.Random) -> Graph:
    """Random connected bipartite graph with the given side sizes."""
    if na < 1 or nb < 1:
        raise InputError("side sizes must be positive")
    while True:
        p = rng.uniform(0.25, 0.8)
        edges = [(u, na + v) for u in range(na) for v in range(nb) if rng.random() < p]
        g = Graph.from_edges(na + nb, edges)
        if g.is_connected():
            return g


def random_cubic_graph(n: int, rng: random.Random) -> Graph:
    """Random connected 3-regular graph by pairing-model rejection."""
    if n < 4 or n % 2:
        raise InputError("cubic graphs need even n >= 4")
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or (min(u, v), max(u, v)) in edges:
                ok = False
                break
            edges.add((min(u, v), max(u, v)))
        if not ok:
            continue
        g = Graph.from_edges(n, sorted(edges))
        if g.is_connected():
            return g


# ---------------------------------------------------------------------------
# family registry
# ---------------------------------------------------------------------------


class Family(NamedTuple):
    """One entry of :data:`FAMILIES`.

    ``build(*factors, *params)`` makes the graph, with the spec's
    ``random.Random`` appended when ``seeded``; ``predict(g, *factors,
    *params)`` lists its closed forms and raises :class:`InputError` where
    no rule applies.
    """
    arity: int | None  # integer parameters; None for one or more
    build: Callable[..., Graph]
    predict: Callable[..., list[PredictedValue]] | None = None
    seeded: bool = False
    factors: int = 0  # nested specs, built before the graph


def _entry(spec: FamilySpec) -> Family:
    """The table entry of ``spec``, once the spec's parameter and nested
    spec counts fit it."""
    entry = FAMILIES.get(spec.family)
    if entry is None:
        raise InputError(f"unknown family {spec.family!r}")
    p = spec.params
    if len(spec.subspecs) != entry.factors or (not p if entry.arity is None
                                               else len(p) != entry.arity):
        count = "one or more" if entry.arity is None else entry.arity
        raise InputError(f"family {spec.family!r} expects {count} integer parameter(s)"
                         f" and {entry.factors} nested spec(s)")
    return entry


def build(spec: FamilySpec) -> Graph:
    """The graph of a spec; its nested specs are built first, as the factors."""
    entry = _entry(spec)
    factors = (build(s) for s in spec.subspecs)
    extra = (random.Random(spec.seed if spec.seed is not None else 0),) if entry.seeded else ()
    return entry.build(*factors, *spec.params, *extra)


def predict_for_spec(spec: FamilySpec, g: Graph) -> list[PredictedValue]:
    """The closed forms of the graph ``g`` built from ``spec``; empty for a
    family outside the table or without a predictor, and where no rule
    applies.  A spec whose counts do not fit its family is refused as
    :func:`build` refuses it."""
    if spec.family not in FAMILIES:
        return []
    entry = _entry(spec)
    if entry.predict is None:
        return []
    try:
        return entry.predict(g, *(build(s) for s in spec.subspecs), *spec.params)
    except (InputError, CapExceeded):
        return []


def generate(spec: FamilySpec) -> tuple[Graph, dict]:
    """Build the graph for a family spec and attach metadata with predictions."""
    g = build(spec)
    meta = {
        "spec": spec.text(),
        "family": spec.family,
        "params": list(spec.params),
        "seed": spec.seed,
        "order": g.n,
        "size": g.edge_count(),
        "predictions": [pv.to_dict() for pv in predict_for_spec(spec, g)],
    }
    return g, meta


# ---------------------------------------------------------------------------
# predictors
# ---------------------------------------------------------------------------


def predict_block_graph(g: Graph) -> list[PredictedValue]:
    """Block graphs: mp, gp and hm equal the simplicial count (hm: every other
    vertex is a cut vertex, on an induced path between simplicial ones)."""
    if not g.is_connected() or not is_block_graph(g):
        raise InputError("not a connected block graph")
    s = simplicial_vertices(g).bit_count()
    why = "connected block graph"
    return [PredictedValue(name, s, "block-graph-simplicial", why) for name in ("mp", "gp", "hm")]


def predict_multipartite(parts: list[int]) -> list[PredictedValue]:
    if not parts or any(q < 1 for q in parts):
        raise InputError("parts must be positive")
    value = max(max(parts), len(parts))
    why = f"complete multipartite with parts {sorted(parts, reverse=True)}"
    return [PredictedValue("mp", value, "multipartite-max", why),
            PredictedValue("gp", value, "multipartite-max", why)]


def predict_unicyclic(g: Graph) -> list[PredictedValue]:
    """Case formula for connected graphs with exactly one cycle."""
    if not g.is_connected() or g.edge_count() != g.n:
        raise InputError("not a connected unicyclic graph")

    def mp(value: int, why: str) -> list[PredictedValue]:
        return [PredictedValue("mp", value, "unicyclic-cases", why)]

    if g.n == 3:
        return mp(3, "triangle")
    cycle = next(b for b in blocks(g) if b.bit_count() >= 3)  # the only non-bridge block
    s = cycle.bit_count()
    leaf_mask = leaves(g)
    lv = leaf_mask.bit_count()
    branch = [v for v in iter_bits(cycle) if g.degree(v) >= 3]
    r = len(branch)
    if r == 0:
        return mp(2, f"pure cycle of length {s}")
    if r == 1:
        return mp(lv + 2, "one branch vertex")
    if r == 2:
        i, j = branch
        if g.has_edge(i, j):  # the cycle has no chord
            return mp(lv + 1, "two adjacent branch vertices")

        def hangs_one_leaf(v: int) -> bool:
            # the tree at v, cut off from v's two cycle neighbours, is a path
            # starting at v, i.e. it carries exactly one leaf of the whole graph
            comp = g.component_of(v, within=g.full() & ~(g.adj[v] & cycle))
            return (comp & leaf_mask).bit_count() == 1

        if hangs_one_leaf(i) or hangs_one_leaf(j):
            return mp(lv + 1, "two branch vertices, one hanging tree is a pendant path")
        return mp(lv, "two non-adjacent branch vertices, no pendant-path tree")
    return mp(lv, f"{r} branch vertices")


def predict_corona(g: Graph, h: Graph,
                   names: tuple[str, ...] = ("mp", "gp")) -> list[PredictedValue]:
    """Corona: mp scales the factor count; gp scales the clique-union number.
    Only the entries in ``names`` are computed."""
    if g.n < 2 or not g.is_connected():
        raise InputError("corona prediction needs a connected first factor of order >= 2")
    why = f"corona with base order {g.n}"
    out = []
    if "mp" in names:
        out.append(PredictedValue("mp", g.n * GraphSolver(h).value("mp"), "corona-product", why))
    if "gp" in names:
        aw, _ = alpha_omega_number(h)
        out.append(PredictedValue("gp", g.n * aw, "corona-product-gp", why))
    return out


def predict_join(g: Graph, h: Graph,
                 names: tuple[str, ...] = ("mp", "gp")) -> list[PredictedValue]:
    """Join: mp and gp are each the larger of the clique sum and the factor
    values.  Only the entries in ``names`` are computed."""
    og, _ = clique_number(g)
    oh, _ = clique_number(h)
    out = []
    if "mp" in names:
        mp_val = max(og + oh, GraphSolver(g).value("mp"), GraphSolver(h).value("mp"))
        out.append(PredictedValue("mp", mp_val, "join-max", "join of the two factors"))
    if "gp" in names:
        ag, _ = alpha_omega_number(g)
        ah, _ = alpha_omega_number(h)
        out.append(PredictedValue("gp", max(og + oh, ag, ah), "join-max-gp",
                                  "join of the two factors"))
    return out


def predict_bipartite_complement(g: Graph) -> list[PredictedValue]:
    """mp of the complement of a connected bipartite graph."""
    bp, odd = bipartition(g)
    if bp is None:
        raise InputError(f"graph is not bipartite (odd cycle {odd})")
    alpha, _ = independence_number(g)
    psi, _ = psi_uniform(g, bp)
    return [PredictedValue("mp_complement", max(alpha, psi), "bipartite-complement-max",
                           "connected bipartite base graph")]


def predict_tree_complement(t: Graph) -> list[PredictedValue]:
    if not t.is_connected() or t.edge_count() != t.n - 1:
        raise InputError("not a tree")
    if t.n < 3:
        raise InputError("tree complement rule needs order >= 3")
    if diameter(t) <= 2:
        return [PredictedValue("mp_complement", t.n, "tree-complement", "diameter <= 2")]
    alpha, _ = independence_number(t)
    return [PredictedValue("mp_complement", alpha, "tree-complement", "diameter >= 3")]


def predict_grid_complement(n: int, m: int) -> list[PredictedValue]:
    """mp of the complement of the n*m-vertex grid (vertex-count convention)."""
    if n < 2 or m < 2:
        raise InputError("grid complement rule needs both sides >= 2")
    if n == 2 and m == 2:
        return [PredictedValue("mp_complement", 4, "grid-complement",
                               "2x2 grid (disconnected complement)")]
    value = -(-n // 2) * -(-m // 2) + (n // 2) * (m // 2)
    return [PredictedValue("mp_complement", value, "grid-complement", f"{n}x{m} vertex grid")]


def predict_hypercube_complement(k: int) -> list[PredictedValue]:
    if k < 3:
        raise InputError("hypercube complement rule needs k >= 3")
    return [PredictedValue("mp_complement", 2 ** (k - 1), "hypercube-complement",
                           f"dimension {k}")]


def hall_equality_condition(g: Graph, sp: SplitPartition) -> bool:
    """Saturating-matching test deciding when mp equals max(omega, alpha).

    Without a divided vertex: some matching between the sides saturates one
    of them.  With a divided vertex v: the same, after dropping v from the
    independent side.
    """
    cmask, imask = sp.clique, sp.independent
    if sp.divided is not None:
        imask &= ~bit(sp.divided)
    _, _, msize = deficiency_witness(g, cmask, imask)
    return msize == cmask.bit_count() or msize == imask.bit_count()


def predict_split(g: Graph) -> list[PredictedValue]:
    """mp of a connected split graph: the separated-subgraph maximum."""
    if not g.is_connected():
        raise InputError("split prediction needs a connected graph")
    sp = split_partition(g)
    if sp is None:
        raise InputError("not a split graph")
    value, _ = phi_separated(g, sp)
    return [PredictedValue("mp", value, "split-separated", "connected split graph")]


# ---------------------------------------------------------------------------
# the family table
# ---------------------------------------------------------------------------


#: Every closed form keyed by the graph alone, by row name: a row lists its
#: values on ``g`` and raises :class:`InputError` where ``g`` is outside its
#: class.  A ``<p>_complement`` value is ``p`` of the complement of ``g``.
GRAPH_FORMS: dict[str, Callable[[Graph], list[PredictedValue]]] = {
    "block": predict_block_graph,
    "unicyclic": predict_unicyclic,
    "split": predict_split,
    "bipartite_complement": predict_bipartite_complement,
    "tree_complement": predict_tree_complement,
}


def _by_graph(row: str):
    """A family predictor that reads the graph alone, through its GRAPH_FORMS row."""
    form = GRAPH_FORMS[row]
    return lambda g, *_: form(g)


_block = _by_graph("block")


def _small_product(predict):
    """A product's predictor solves both factors exactly, so it stops at 24 vertices."""
    def values(g: Graph, first: Graph, second: Graph) -> list[PredictedValue]:
        if g.n > 24:
            raise InputError("no product prediction above 24 vertices")
        return predict(first, second)
    return values


# The purpose-built families' closed forms read the parameters alone; their
# builders have already rejected parameters outside the domain.


def _half_wheel_values(_g: Graph, r: int) -> list[PredictedValue]:
    if r < 4:
        raise InputError("half_wheel values predicted for r >= 4 only")
    return [PredictedValue("mp", 2, "half-wheel", f"r={r} >= 4"),
            PredictedValue("gp", r, "half-wheel", f"r={r} >= 4")]


def _half_wheel_pendant_values(_g: Graph, b: int, a: int) -> list[PredictedValue]:
    return [PredictedValue("mp", a, "half-wheel-pendant", f"a={a}, b={b}"),
            PredictedValue("gp", b, "half-wheel-pendant", f"a={a}, b={b}")]


def _wheel_pendant_values(_g: Graph, a: int) -> list[PredictedValue]:
    return [PredictedValue("mp", a, "wheel-pendant", f"a={a}"),
            PredictedValue("gp", a + 1, "wheel-pendant", f"a={a}")]


def _r_graph_values(_g: Graph, r: int, s: int) -> list[PredictedValue]:
    # R(0, s) is the clique K_{s+1}: every vertex set is in position and
    # the independent sets are single vertices
    top = r + s if r else s + 1
    why = f"r={r} >= 1, s={s} >= 1" if r else f"r=0, s={s}: the clique K{s + 1}"
    out = [PredictedValue("mp", top, "leafed-clique", why),
           PredictedValue("igp", r + 1, "leafed-clique", why)]
    if s >= 2:
        why = f"r={r} >= 0, s={s} >= 2"
        out.append(PredictedValue("diss", r + 2, "leafed-clique", why))
    if s >= 2 or r == 0:
        out.append(PredictedValue("gp2", top, "leafed-clique", why))
    return out


def _p_graph_values(_g: Graph, r: int, s: int) -> list[PredictedValue]:
    out = [PredictedValue("mp", r + 2, "apexed-cocktail", f"r={r} >= 0, s={s} >= 2")]
    if r >= 1:
        out.append(PredictedValue("igp", r + s, "apexed-cocktail", f"r={r} >= 1, s={s} >= 2"))
    elif s >= 3:
        # with no leaves the apex is itself available to the
        # independent side, giving one more than the leafed formula
        out.append(PredictedValue("igp", s + 1, "apexed-cocktail", "r=0, apex joins the set"))
    else:
        # P(0,2) degenerates to a 5-vertex path
        out.append(PredictedValue("igp", 2, "apexed-cocktail", "r=0, s=2 (a path)"))
    return out


def _g_abl_values(_g: Graph, a: int, b: int, length: int) -> list[PredictedValue]:
    why = f"a={a}, b={b}, path length {length}"
    return [PredictedValue("hm", a, "clique-with-tail", why),
            PredictedValue("mp", b, "clique-with-tail", why)]


def _cage_values(girth: int, **values: int):
    why = f"girth-{girth} cubic cage"
    return lambda _g: [PredictedValue(name, v, "cage-value", why) for name, v in values.items()]


#: Every family a spec can name: parameter count, builder, predictor.
FAMILIES: dict[str, Family] = {
    "path": Family(1, path_graph, _block),
    "cycle": Family(1, cycle_graph, _by_graph("unicyclic")),
    "complete": Family(1, complete_graph, _block),
    "complete_multipartite": Family(None, lambda *parts: complete_multipartite(list(parts)),
                                    lambda _g, *parts: predict_multipartite(list(parts))),
    "star": Family(1, star_graph, _block),
    "caterpillar": Family(1, caterpillar_graph, _block),
    "grid": Family(2, grid_graph),
    "hypercube": Family(1, hypercube),
    "half_wheel": Family(1, half_wheel, _half_wheel_values),
    "half_wheel_pendant": Family(2, half_wheel_pendant, _half_wheel_pendant_values),
    "wheel_pendant_W": Family(1, wheel_pendant, _wheel_pendant_values),
    "R_graph": Family(2, r_graph, _r_graph_values),
    "P_graph": Family(2, p_graph, _p_graph_values),
    "G_abl": Family(3, g_abl, _g_abl_values),
    "petersen": Family(0, petersen_graph, _cage_values(5, mp=3, gp=6)),
    "heawood": Family(0, heawood_graph, _cage_values(6, mp=3)),
    "mcgee": Family(0, mcgee_graph, _cage_values(7, mp=2)),
    "random_tree": Family(1, random_tree, _block, seeded=True),
    "random_block": Family(1, random_block_graph, _block, seeded=True),
    "random_unicyclic": Family(1, random_unicyclic, _by_graph("unicyclic"), seeded=True),
    "random_split": Family(1, random_split_graph, _by_graph("split"), seeded=True),
    "random_bipartite": Family(2, random_bipartite_graph, _by_graph("bipartite_complement"),
                               seeded=True),
    "corona_of": Family(0, corona, _small_product(predict_corona), factors=2),
    "join_of": Family(0, join, _small_product(predict_join), factors=2),
}
