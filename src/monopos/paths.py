"""Induced (chordless) path machinery.

The workhorse is a depth-first enumeration of induced paths from a source
vertex.  A partial path p0..pk is extended only to neighbors of pk outside
the union of closed neighborhoods of p0..p(k-1); this keeps every partial
path chordless, endpoints included.  The endpoint rule matters: an induced
u,v-path longer than one edge must have non-adjacent endpoints, so when u
and v are adjacent the edge uv is the only induced u,v-path.  The forbidden
set enforces that for free, because v is masked out as soon as any earlier
path vertex is its neighbor.

Every node of the search tree is itself an induced path from the source to
its last vertex, so one traversal from u yields, for every endpoint w, the
union of all induced u,w-paths.  Intervals are therefore computed one
source row at a time and cached.

``walk_induced_paths`` is the one enumeration that the longest induced path
and the induced path partition read.  ``interval_row`` runs the same search
with its own inline loop, because interval rows dominate the mp cost and a
generator in between slows them down (see its docstring).

Hulls have two routines.  ``convex_hull`` runs Duchet's component test in
polynomial time and reads no interval row; the hull number uses it.
``monophonic_hull`` iterates interval closures, reports the round count
and is the oracle that ``convex_hull`` is checked against.
"""

from __future__ import annotations

from .bitset import bit, full_mask, iter_bits, mask_of, to_tuple
from .errors import BudgetExceeded, CapExceeded, InputError
from .graph import Graph

#: Node-expansion budget for one enumeration: one interval row, the paths of
#: one pair, or one longest-induced-path search.
DEFAULT_BUDGET = 10_000_000

LONGEST_PATH_CAP = 30
PARTITION_CAP = 16


# ---------------------------------------------------------------------------
# core enumeration
# ---------------------------------------------------------------------------


def interval_row(g: Graph, u: int, budget: int = DEFAULT_BUDGET) -> tuple[list[int], int]:
    """For every w, the union of vertices over induced u,w-paths.

    Returns ``(row, expansions)``; ``row[w] == 0`` when w is unreachable
    from u (and ``row[u] == bit(u)``).  Iterative so that the 512-vertex
    fallback regime cannot hit the interpreter recursion limit.

    This is the search of ``walk_induced_paths`` written out inline: read
    through the generator, rows took 1.2-1.5x as long on the benchmark's
    ``mono-rows`` graphs, where rows are over 95% of the time.  A test keeps
    the two in step (same rows, one walk node per expansion).
    """
    adj = g.adj
    n = g.n
    row = [0] * n
    row[u] = bit(u)
    expansions = 0
    lasts = [0] * (n + 1)
    pmasks = [0] * (n + 1)
    forbs = [0] * (n + 1)
    exts = [0] * (n + 1)
    top = 0
    lasts[0], pmasks[0], forbs[0], exts[0] = u, bit(u), bit(u), adj[u]
    while top >= 0:
        ext = exts[top]
        if not ext:
            top -= 1
            continue
        b = ext & -ext
        exts[top] = ext ^ b
        w = b.bit_length() - 1
        npm = pmasks[top] | b
        row[w] |= npm
        expansions += 1
        if expansions > budget:
            raise BudgetExceeded(f"induced-path budget {budget} exhausted at source {u}")
        nforb = forbs[top] | adj[lasts[top]] | b
        nxt = adj[w] & ~nforb
        if nxt:
            top += 1
            lasts[top], pmasks[top], forbs[top], exts[top] = w, npm, nforb, nxt
    return row, expansions


def walk_induced_paths(g: Graph, u: int):
    """Yield ``(last, mask, length)`` for every induced path of at least one
    edge that starts at u, in ``interval_row``'s order: neighbors ascending,
    depth first, each path before its extensions."""
    adj = g.adj
    stack = [[u, bit(u), bit(u), adj[u]]]
    while stack:
        top = stack[-1]
        ext = top[3]
        if not ext:
            stack.pop()
            continue
        b = ext & -ext
        top[3] = ext ^ b
        w = b.bit_length() - 1
        mask = top[1] | b
        yield w, mask, len(stack)
        forb = top[2] | adj[top[0]] | b
        nxt = adj[w] & ~forb
        if nxt:
            stack.append([w, mask, forb, nxt])


# ---------------------------------------------------------------------------
# intervals, closures, hulls
# ---------------------------------------------------------------------------


class IntervalCache:
    """Memoized interval rows for one fixed graph.

    Rows are computed per source and published whole; readers may share a
    cache after a row is in place, but concurrent writers need external
    exclusion (the toolkit itself uses one cache per worker).
    """

    def __init__(self, g: Graph):
        self.fingerprint = (g.n, g.adj)
        self._g = g
        self._rows: dict[int, list[int]] = {}
        self.expansions = 0

    def row(self, u: int) -> list[int]:
        if u not in self._rows:
            row, exp = interval_row(self._g, u)
            self.expansions += exp
            self._rows[u] = row
        return self._rows[u]

    def interval(self, u: int, v: int) -> int:
        """K[u,v]; equals {u,v} when u and v sit in different components."""
        if u == v:
            raise InputError("interval endpoints must differ")
        got = self.row(u)[v]
        if got == 0:
            return bit(u) | bit(v)
        return got


def cache_for(g: Graph, cache: IntervalCache | None) -> IntervalCache:
    """``cache`` after checking that it was built for ``g``, or a new cache."""
    if cache is None:
        return IntervalCache(g)
    if (g.n, g.adj) != cache.fingerprint:
        raise InputError("interval cache used with a different graph")
    return cache


def monophonic_interval(g: Graph, u: int, v: int, cache: IntervalCache | None = None) -> int:
    return cache_for(g, cache).interval(u, v)


def monophonic_closure(g: Graph, m: int, cache: IntervalCache | None = None) -> int:
    """Union of pairwise intervals over m; always contains m."""
    if m == 0:
        raise InputError("closure of the empty set is undefined")
    cache = cache_for(g, cache)
    out = m
    verts = to_tuple(m)
    for i, u in enumerate(verts):
        row = cache.row(u)
        for v in verts[i + 1:]:
            out |= row[v] if row[v] else bit(u) | bit(v)
    return out


def monophonic_hull(g: Graph, m: int, cache: IntervalCache | None = None) -> tuple[int, int]:
    """Iterate closure to its fixpoint; returns (hull, iterations).

    The iteration count is the smallest r with closure^r(m) == closure^(r+1)(m).
    """
    cache = cache_for(g, cache)
    current = m
    r = 0
    while True:
        nxt = monophonic_closure(g, current, cache)
        if nxt == current:
            return current, r
        current = nxt
        r += 1


def convex_hull(g: Graph, m: int, convex: int = 0) -> int:
    """Monophonic hull of ``m | convex``, reading no interval row.

    ``convex`` must itself be m-convex (the empty set is).  Duchet's
    characterisation (1988) drives the search: S is m-convex iff, for every
    component C of G - S, the vertices of S adjacent to C form a clique.  A
    component whose border holds non-adjacent a and b gets the interior of a
    shortest a,b-path through C added; such a path is induced, so every
    added vertex lies in the hull.  Only the rest of C can break convexity
    anew, so it alone goes back on the worklist.  Components of
    G - ``convex`` that miss m already pass, so they are never examined:
    hull(H + v) for a convex H looks at v's component of G - H only.
    """
    if not m | convex:
        raise InputError("hull of the empty set is undefined")
    adj = g.adj
    s = m | convex
    new = m & ~convex
    reach = new
    while new:  # the components of G - convex that meet m
        nb = 0
        for v in iter_bits(new):
            nb |= adj[v]
        new = nb & ~convex & ~reach
        reach |= new
    # Each region is a union of components of G - s.
    work = [reach & ~s]
    while work:
        region = work.pop()
        if not region:
            continue
        comp = frontier = region & -region
        border = 0
        while frontier:
            nb = 0
            for v in iter_bits(frontier):
                nb |= adj[v]
            border |= nb
            frontier = nb & region & ~comp
            comp |= frontier
        work.append(region & ~comp)
        border &= ~comp
        for a in iter_bits(border):
            far = border & ~adj[a] & ~bit(a)
            if far:
                path = _shortest_interior(adj, a, (far & -far).bit_length() - 1, comp)
                s |= path
                work.append(comp & ~path)
                break
    return s


def _shortest_interior(adj, a: int, b: int, comp: int) -> int:
    """Interior of a shortest a,b-path with every inner vertex in the
    connected set ``comp``, which both a and b border (BFS layers from a)."""
    layer = seen = adj[a] & comp
    layers = [layer]
    while not layer & adj[b]:
        nb = 0
        for v in iter_bits(layer):
            nb |= adj[v]
        layer = nb & comp & ~seen
        seen |= layer
        layers.append(layer)
    path = 0
    want = adj[b]
    for layer in reversed(layers):
        hit = layer & want
        step = hit & -hit
        path |= step
        want = adj[step.bit_length() - 1]
    return path


def interior_vertices(g: Graph, m: int, cache: IntervalCache | None = None) -> int:
    """Members of m lying in the closure of the rest of m."""
    if m.bit_count() < 2:
        raise InputError("interior vertices need a set of size at least 2")
    cache = cache_for(g, cache)
    out = 0
    for u in iter_bits(m):
        rest = m & ~bit(u)
        if rest.bit_count() >= 2 and monophonic_closure(g, rest, cache) & bit(u):
            out |= bit(u)
    return out


# ---------------------------------------------------------------------------
# longest induced path, induced path partition
# ---------------------------------------------------------------------------


def longest_induced_path_length(g: Graph, cap: int = LONGEST_PATH_CAP) -> int:
    """Exact maximum length (edges) over all induced paths."""
    if g.n > cap:
        raise CapExceeded(f"longest induced path cap {cap} exceeded by order {g.n}")
    best = 0
    expansions = 0
    for u in range(g.n):
        for _, _, length in walk_induced_paths(g, u):
            expansions += 1
            if expansions > DEFAULT_BUDGET:
                raise BudgetExceeded(f"longest-path budget {DEFAULT_BUDGET} exhausted")
            if length > best:
                best = length
    return best


def induced_path_partition(g: Graph, cap: int = PARTITION_CAP) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Minimum number of vertex-disjoint induced paths covering all vertices.

    Collects every subset inducing a path (each path once, walked from its
    smaller end, plus the singletons), then solves a set-partition DP top
    down: a step removes one path through the lowest remaining vertex, so
    only the masks reachable from V are ever solved.  Of two paths that tie,
    the first in sorted mask order is taken.  Exact, so explicitly capped.
    """
    if g.n > cap:
        raise CapExceeded(f"induced path partition cap {cap} exceeded by order {g.n}")
    n = g.n
    masks = [bit(u) for u in range(n)]
    for u in range(n):
        masks.extend(mask for last, mask, _ in walk_induced_paths(g, u) if u < last)
    paths_by_low: list[list[int]] = [[] for _ in range(n)]
    for mask in sorted(masks):
        paths_by_low[(mask & -mask).bit_length() - 1].append(mask)

    memo = {0: 0}
    mask = full_mask(n)
    _fewest_paths(mask, paths_by_low, memo)
    parts = []
    while mask:
        want = memo[mask] - 1
        for p in paths_by_low[(mask & -mask).bit_length() - 1]:
            if not p & ~mask and memo[mask & ~p] == want:
                break
        parts.append(to_tuple(p))
        mask &= ~p
    return len(parts), tuple(parts)


def _fewest_paths(mask: int, paths_by_low: list[list[int]], memo: dict[int, int]) -> int:
    """The partition DP's value at ``mask``, memoized in ``memo``.  A plain
    function, not a closure calling itself: that would form a reference
    cycle and keep the memo alive until the cyclic collector runs."""
    best = mask.bit_count()  # the singletons bound every mask
    for p in paths_by_low[(mask & -mask).bit_length() - 1]:
        if p & ~mask:
            continue
        rest = mask & ~p
        c = memo.get(rest)
        if c is None:
            c = _fewest_paths(rest, paths_by_low, memo)
        if c + 1 < best:
            best = c + 1
    memo[mask] = best
    return best


# ---------------------------------------------------------------------------
# independent oracle: simple-path filter
# ---------------------------------------------------------------------------

ORACLE_PATH_CAP = 9


def _chordless_simple_paths(g: Graph, u: int, v: int) -> list[int]:
    """Vertex masks of the u,v-paths found by listing every simple path and
    keeping the chordless ones, with no use of the pruned enumeration."""
    adj = g.adj
    found: list[int] = []
    path = [u]

    def chordless(p: list[int]) -> bool:
        for i in range(len(p)):
            for j in range(i + 2, len(p)):
                if adj[p[i]] & bit(p[j]):
                    return False
        return True

    def dfs(last: int, seen: int):
        for w in iter_bits(adj[last] & ~seen):
            path.append(w)
            if w == v:
                if chordless(path):
                    found.append(mask_of(path))
            else:
                dfs(w, seen | bit(w))
            path.pop()

    dfs(u, bit(u))
    return found


def simple_path_interval(g: Graph, u: int, v: int, cap: int = ORACLE_PATH_CAP) -> int:
    """K[u,v] recomputed the slow way, through the simple-path filter.
    Exists purely to cross-check the pruned enumeration."""
    if g.n > cap:
        raise CapExceeded(f"simple-path oracle cap {cap} exceeded by order {g.n}")
    acc = 0
    for m in _chordless_simple_paths(g, u, v):
        acc |= m
    return acc or bit(u) | bit(v)


def count_induced_paths_oracle(g: Graph, u: int, v: int, cap: int = ORACLE_PATH_CAP + 1) -> int:
    """Number of induced u,v-paths via the simple-path filter."""
    if g.n > cap:
        raise CapExceeded(f"simple-path oracle cap {cap} exceeded by order {g.n}")
    return len(_chordless_simple_paths(g, u, v))
