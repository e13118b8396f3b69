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

``monophonic_witnesses`` builds the witness system that mp and imp search,
from narrowed rows: only over the 2-core, each row exact only for the later
vertices of its core component, and the pendant trees composed on
afterwards.  Once a row proves costly, random chordless walks seed the
rows after it with the sub-paths they pass, so most targets are settled
before any walk of the row; the row's walk stays the exact fallback, and
the walks are this module's one random walk.  Full rows, from
``interval_row`` with its defaults, stay its twin in the tests.

Hulls have two routines.  ``convex_hull`` runs Duchet's component test in
polynomial time and reads no interval row; the hull number uses it.
``monophonic_hull`` iterates interval closures, reports the round count
and is the oracle that ``convex_hull`` is checked against.
"""

from __future__ import annotations

import random

from .bitset import bit, full_mask, iter_bits, to_tuple
from .errors import BudgetExceeded, InputError, require_cap
from .graph import SOLVER_CAP, Graph

#: Node-expansion budget for one enumeration: one interval row or one
#: longest-induced-path search, read at call time.
DEFAULT_BUDGET = 10_000_000

#: A core row of :func:`monophonic_witnesses` that takes more expansions
#: than this seeds the rows after it from random induced walks.
SEED_AFTER = 10_000
#: The seed walks: at most this many from each core vertex, a source
#: stopping after ``SEED_IDLE`` walks in a row that add nothing, drawn
#: from ``random.Random(WALK_SEED)``.  The seed moves only the cost.
SEED_WALKS = 40
SEED_IDLE = 3
WALK_SEED = 0

#: rho's search has no budget and its memo grows with the vertex sets it visits.
PARTITION_CAP = 16


# ---------------------------------------------------------------------------
# core enumeration
# ---------------------------------------------------------------------------


def interval_row(g: Graph, u: int, region: int = -1, targets: int | None = None, inner: int = 0,
                 known: list[list[int]] | None = None) -> tuple[list[int], int]:
    """For every w, the union of vertices over induced u,w-paths.

    Returns ``(row, expansions)``; ``row[w] == 0`` when w is unreachable
    from u (and ``row[u] == bit(u)``).  Iterative so that the 512-vertex
    fallback regime cannot hit the interpreter recursion limit.

    This is the search of ``walk_induced_paths`` written out inline: read
    through the generator, rows took 1.2-1.5x as long on the benchmark's
    ``mono-rows`` graphs, where rows are over 95% of the time.  A test keeps
    the two in step (same rows, one walk node per expansion).  The walk
    raises :class:`BudgetExceeded` past ``DEFAULT_BUDGET`` expansions.

    With its defaults the walk visits every induced path from u.
    :func:`monophonic_witnesses` narrows it: paths never leave ``region``,
    and only ``row[z]`` for z in ``targets`` has to be exact.  ``inner``
    must hold every vertex that can be interior to an induced path in
    ``region``.  A target adjacent to u is exact at once (the edge is its
    only induced path); any other target z is settled once ``row[z]``
    reaches its bound ``inner | u | z``.  A path is extended only while
    some unsettled target lies outside its forbidden set, and the walk
    stops when none is left.

    ``known``, read only with ``targets``, holds vertices already known to
    lie on induced paths: ``known[a][b]`` is a union of induced a,b-paths
    in ``region``, endpoints included.  Each later, non-adjacent target z
    starts at ``known[u][z] | known[z][u]`` and is settled before the walk
    if that reaches its bound.  The walk still visits every induced path
    to a target left short, so the row is the same; only its cost falls.
    """
    adj = g.adj
    n = g.n
    budget = DEFAULT_BUDGET
    row = [0] * n
    ub = bit(u)
    row[u] = ub
    if targets is None:
        live = bit(n)  # a target no path reaches: nothing settles or is pruned
    else:
        near = targets & adj[u]
        while near:
            b = near & -near
            near ^= b
            row[b.bit_length() - 1] = ub | b
        live = targets & ~adj[u] & ~ub
        if known is not None:
            ku = known[u]
            rest = live
            while rest:
                b = rest & -rest
                rest ^= b
                z = b.bit_length() - 1
                got = row[z] = ku[z] | known[z][u]
                if got == inner | ub | b:
                    live ^= b
        if not live:
            return row, 0
    cap = inner | ub
    expansions = 0
    # Level k holds the path p0..pk as a mask, the neighbours of pk still
    # to try, and ``free``: the vertices outside N[p0..pk], where every
    # extension of a child of pk must stay.
    pmasks = [0] * (n + 1)
    frees = [0] * (n + 1)
    exts = [0] * (n + 1)
    top = 0
    pmasks[0], frees[0], exts[0] = ub, (region | live) & ~ub & ~adj[u], adj[u] & region
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
        if live & b and row[w] == cap | b:
            live ^= b
            if not live:
                break
        free = frees[top]
        nxt = adj[w] & free
        if nxt and live & free:
            top += 1
            pmasks[top], frees[top], exts[top] = npm, free & ~adj[w], nxt
    return row, expansions


def monophonic_witnesses(g: Graph) -> list[list[int]]:
    """``witness[x][z]``: the interior vertices of induced x,z-paths, for
    every pair; 0 for adjacent pairs and pairs in different components.

    Equals ``interval_row(g, x)[0][z]`` less x and z, from fewer rows.
    Vertices of degree at most one are peeled off down to the 2-core, each
    with the neighbour p it hangs from.  A pendant vertex is interior to no
    path between two others, so an induced path between core vertices stays
    in the core: core rows are read in label order, each walk kept inside
    its component of the core with only the later vertices of that
    component as targets.  A core vertex whose core neighbourhood is a
    clique is interior to no induced path, which bounds every target.
    Then, in reverse peel order, every induced t,z-path of a peeled t is t
    followed by an induced p,z-path, so ``witness[t][z] = witness[p][z] | p``
    for each z already done in t's component.  ``DEFAULT_BUDGET`` bounds
    each row, as in :func:`interval_row`, and a refusal names the rows done
    and the expansions spent.

    The first core row that takes more than ``SEED_AFTER`` expansions
    builds :func:`_seed_walks` once, and every later row reads it as
    ``known``: a target whose seeds already reach its bound costs no
    expansion.  The seeds only add vertices that lie on induced paths, and
    each row still walks every induced path to the targets they leave
    short, so the witnesses are the same with or without them, for any
    ``WALK_SEED``.  The seed is fixed anyway, so expansion counts repeat.
    Below the threshold nothing is seeded: on the cheapest sparse graphs
    the walks cost more than they save.
    """
    adj = g.adj
    n = g.n
    witness = [[0] * n for _ in range(n)]
    core = full_mask(n)
    deg = [a.bit_count() for a in adj]
    leaves = [v for v in range(n) if deg[v] <= 1]
    peeled = []
    while leaves:
        t = leaves.pop()
        core ^= 1 << t
        hang = adj[t] & core
        p = hang.bit_length() - 1
        if hang:
            deg[p] -= 1
            if deg[p] == 1:
                leaves.append(p)
        peeled.append((t, p))
    verts = to_tuple(core)
    # Inline clique test: ``Graph.is_clique_mask`` made the indexes that
    # ``verify`` builds on 1-16 vertices about 15% slower.
    inner = 0
    for v in verts:
        rest = adj[v] & core
        while rest:
            a = rest & -rest
            rest ^= a
            if rest & ~adj[a.bit_length() - 1]:
                inner |= 1 << v
                break
    spent = 0
    comp = 0
    known = None
    for i, x in enumerate(verts[:-1]):
        if not comp >> x & 1:
            comp = g.component_of(x, within=core)
        try:
            row, exp = interval_row(g, x, comp, comp & ~full_mask(x + 1), inner & comp, known)
        except BudgetExceeded as exc:
            # the row that ran out made DEFAULT_BUDGET + 1 expansions
            raise BudgetExceeded(f"monophonic witness index: {exc} after {i} of "
                                 f"{len(verts) - 1} rows, {spent + DEFAULT_BUDGET + 1} "
                                 f"expansions so far") from exc
        spent += exp
        if known is None and exp > SEED_AFTER:
            known = _seed_walks(adj, core)
        wx = witness[x]
        xb = 1 << x
        for z in verts[i + 1:]:
            if row[z]:
                wx[z] = witness[z][x] = row[z] ^ xb ^ 1 << z
    done = list(verts)
    for t, p in reversed(peeled):
        if p >= 0:
            wp = witness[p]
            wt = witness[t]
            pb = 1 << p
            near = adj[p]
            for z in done:
                w = wp[z]
                if w or near >> z & 1 and z != p:  # z is in t's component
                    wt[z] = witness[z][t] = w | pb
        done.append(t)
    return witness


def _seed_walks(adj: tuple[int, ...], core: int) -> list[list[int]]:
    """``known[a][b]``: the union of the a,b sub-paths of random chordless
    walks inside ``core``, endpoints included; 0 where no walk met a
    before b.  Each walk extends its last vertex to a random neighbour
    outside the closed neighbourhoods of the vertices before it, as
    :func:`interval_row` does, until none is left.  A sub-path of an
    induced path is induced, so every entry lies inside the interval.

    From each core vertex up to ``SEED_WALKS`` walks start; a source stops
    after ``SEED_IDLE`` walks in a row that add nothing.  The generator is
    ``random.Random(WALK_SEED)`` and a step takes the k-th set bit of its
    candidate mask, so no tuple is built per step.
    """
    rng = random.Random(WALK_SEED)
    randrange = rng.randrange
    known = [[0] * len(adj) for _ in adj]
    for s in iter_bits(core):
        idle = 0
        for _ in range(SEED_WALKS):
            path = [s]
            free = core & ~adj[s] & ~(1 << s)
            cand = adj[s] & core
            while cand:
                for _ in range(randrange(cand.bit_count())):
                    cand &= cand - 1
                w = (cand & -cand).bit_length() - 1
                path.append(w)
                cand = adj[w] & free
                free &= ~adj[w]
            added = False
            for i, a in enumerate(path[:-1]):
                ka = known[a]
                m = 1 << a
                for b in path[i + 1:]:
                    m |= 1 << b
                    old = ka[b]
                    if old | m != old:
                        ka[b] = old | m
                        added = True
            idle = 0 if added else idle + 1
            if idle == SEED_IDLE:
                break
    return known


def walk_induced_paths(g: Graph, u: int):
    """Yield ``(last, mask, length)`` for every induced path of at least one
    edge that starts at u, in ``interval_row``'s order: neighbors ascending,
    depth first, each path before its extensions."""
    adj = g.adj
    stack = [[bit(u), ~(bit(u) | adj[u]), adj[u]]]
    while stack:
        top = stack[-1]
        ext = top[2]
        if not ext:
            stack.pop()
            continue
        b = ext & -ext
        top[2] = ext ^ b
        w = b.bit_length() - 1
        mask = top[0] | b
        yield w, mask, len(stack)
        free = top[1]
        nxt = adj[w] & free
        if nxt:
            stack.append([mask, free & ~adj[w], nxt])


# ---------------------------------------------------------------------------
# intervals, closures, hulls
# ---------------------------------------------------------------------------


class IntervalCache:
    """Memoized interval rows for one fixed graph.

    Rows are computed per source and published whole; readers may share a
    cache after a row is in place, but concurrent writers need external
    exclusion.
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
        self._g.require_vertices("interval endpoint pair", bit(u) | bit(v))
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
    g.require_vertices("vertex set", m)
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


def convex_hull(g: Graph, m: int) -> int:
    """Monophonic hull of ``m``, reading no interval row.

    Duchet's characterisation (1988) drives the search: S is m-convex iff,
    for every component C of G - S, the vertices of S adjacent to C form a
    clique.  A component whose border holds non-adjacent a and b gets the
    interior of a shortest a,b-path through C added; such a path is
    induced, so every added vertex lies in the hull.  Only the rest of C
    can break convexity anew, so it alone goes back on the worklist.
    """
    if not m:
        raise InputError("hull of the empty set is undefined")
    g.require_vertices("vertex set", m)
    adj = g.adj
    # Each region is a union of components of G - m.
    work = [g.full() & ~m]
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
                m |= path
                work.append(comp & ~path)
                break
    return m


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
    g.require_vertices("vertex set", m)
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


def longest_induced_path_length(g: Graph, cap: int = SOLVER_CAP) -> int:
    """Exact maximum length (edges) over all induced paths, within ``DEFAULT_BUDGET``."""
    require_cap("longest induced path", cap, g.n)
    best = 0
    expansions = 0
    for u in range(g.n):
        for _, _, length in walk_induced_paths(g, u):
            expansions += 1
            if expansions > DEFAULT_BUDGET:
                raise BudgetExceeded(f"longest-path budget {DEFAULT_BUDGET} exhausted after "
                                     f"{u} of {g.n} sources, longest induced path so far {best}")
            if length > best:
                best = length
    return best


def induced_path_partition(g: Graph, cap: int = PARTITION_CAP) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Minimum number of vertex-disjoint induced paths covering all vertices.

    Collects every subset inducing a path (each path once, walked from its
    smaller end, plus the singletons), sorted and bucketed by lowest vertex.
    Then asks ``_cover(V, k)`` for at most k of them covering V, for
    k = ceil(n / longest), k + 1, ...; the first cover found is the
    partition.  A step of that search takes the first path in sorted mask
    order through the lowest remaining vertex whose remainder is covered by
    one path fewer, and a vertex set whose counting floors (``_floors``)
    exceed the paths left fails at once.  At the least k no remainder needs
    fewer, so this is the path a value DP over the vertex sets takes.
    The search has no budget, so it refuses any order above the smaller of
    ``cap`` and ``PARTITION_CAP``: ``cap`` can only lower the ceiling.
    """
    require_cap("induced path partition", min(cap, PARTITION_CAP), g.n)
    n = g.n
    masks = [bit(u) for u in range(n)]
    for u in range(n):
        masks.extend(mask for last, mask, _ in walk_induced_paths(g, u) if u < last)
    paths_by_low: list[list[int]] = [[] for _ in range(n)]
    for mask in sorted(masks):
        paths_by_low[(mask & -mask).bit_length() - 1].append(mask)
    longest = max(map(int.bit_count, masks), default=1)
    search = (g.adj, paths_by_low, set(masks), longest, {})
    k = -(-n // longest)
    while (cover := _cover(full_mask(n), k, search)) is None:
        k += 1
    return len(cover), tuple(map(to_tuple, cover))


def _cover(mask: int, k: int, search: tuple) -> tuple[int, ...] | None:
    """At most k disjoint induced path masks covering ``mask``, or None.
    A mask that is itself a path is its own cover; any other cover starts
    with the first path, in sorted order through the lowest vertex, whose
    rest is covered by k - 1.  ``search`` holds the adjacency, the paths by lowest vertex, the set of
    path masks, the longest path's order and, per mask, the largest k known
    to fail.  A plain function, not a closure calling itself: that would form
    a reference cycle and keep the memo alive until the cyclic collector
    runs."""
    if not mask:
        return ()
    adj, paths_by_low, path_set, longest, failed = search
    if mask in path_set:
        return (mask,) if k >= 1 else None
    if k <= 1 or failed.get(mask, 1) >= k:
        return None
    if all(f <= k for f in _floors(adj, mask, longest)):
        for p in paths_by_low[(mask & -mask).bit_length() - 1]:
            if not p & ~mask and (rest := _cover(mask & ~p, k - 1, search)) is not None:
                return (p,) + rest
    failed[mask] = k
    return None


def _floors(adj: tuple[int, ...], mask: int, longest: int):
    """Yield four lower bounds on the paths needed to cover ``mask``,
    cheapest first: by order (no induced path has more than ``longest``
    vertices); by the vertices that cannot be interior, those whose
    neighbourhood in ``mask`` is a clique (a path has two ends, and an
    isolated vertex is a path alone); by a greedy independent set I, taking
    a vertex of least remaining degree (a path of m vertices holds at most
    (m + 1) / 2 of I); and by a greedy clique grown from a vertex of largest
    degree, each step taking the candidate with most neighbours among the
    candidates (a path holds at most two of it)."""
    size = mask.bit_count()
    yield -(-size // longest)
    ends = 0
    most = -1
    hub = 0  # the neighbourhood of a vertex of largest degree
    m = mask
    while m:
        b = m & -m
        m ^= b
        nb = adj[b.bit_length() - 1] & mask
        if not nb:
            ends += 2
            continue
        d = nb.bit_count()
        if d > most:
            most, hub = d, nb
        rest = nb
        while rest:
            c = rest & -rest
            rest ^= c
            if nb & ~c & ~adj[c.bit_length() - 1]:
                break
        else:
            ends += 1
    yield (ends + 1) // 2
    independent = 0
    left = mask
    while left:
        least = size
        c = left
        while c:
            b = c & -c
            c ^= b
            d = (adj[b.bit_length() - 1] & left).bit_count()
            if d < least:
                least, pick = d, b
                if not d:
                    break
        independent += 1
        left &= ~(pick | adj[pick.bit_length() - 1])
    yield 2 * independent - size
    clique = 1
    cand = hub
    while cand:
        best = -1
        c = cand
        while c:
            b = c & -c
            c ^= b
            d = (adj[b.bit_length() - 1] & cand).bit_count()
            if d > best:
                best, pick = d, b
        clique += 1
        cand &= adj[pick.bit_length() - 1]
    yield (clique + 1) // 2


# ---------------------------------------------------------------------------
# independent oracle: simple-path filter
# ---------------------------------------------------------------------------

ORACLE_PATH_CAP = 10


def _chordless_simple_paths(g: Graph, u: int) -> list[list[int]]:
    """Entry v holds the vertex masks of the chordless u,v-paths, found by
    listing every simple path from u and keeping the chordless ones, with no
    use of the pruned enumeration.  Nothing is pruned: a path stays
    chordless while each vertex it appends has exactly one neighbour, its
    predecessor, among the vertices already on it.  Each entry lists its
    paths depth first, neighbours ascending.  Refused above
    ``ORACLE_PATH_CAP`` vertices, for both oracles that read it."""
    require_cap("simple-path oracle", ORACLE_PATH_CAP, g.n)
    listed: list[list[int]] = [[] for _ in range(g.n)]
    _list_simple_paths(g.adj, u, bit(u), True, listed)
    return listed


def _list_simple_paths(adj, last: int, seen: int, chordless: bool,
                       listed: list[list[int]]) -> None:
    ext = adj[last] & ~seen
    while ext:
        b = ext & -ext
        ext ^= b
        w = b.bit_length() - 1
        keep = chordless and (adj[w] & seen).bit_count() == 1
        if keep:
            listed[w].append(seen | b)
        _list_simple_paths(adj, w, seen | b, keep, listed)


def simple_path_interval(g: Graph, u: int, v: int) -> int:
    """K[u,v] recomputed the slow way, through the simple-path filter.
    Exists purely to cross-check the pruned enumeration."""
    acc = 0
    for m in _chordless_simple_paths(g, u)[v]:
        acc |= m
    return acc or bit(u) | bit(v)


def count_induced_paths_oracle(g: Graph, u: int, v: int) -> int:
    """Number of induced u,v-paths via the simple-path filter."""
    return len(_chordless_simple_paths(g, u)[v])
