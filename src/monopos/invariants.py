"""Classical invariants: distances, connectivity structure, exact solvers
for clique-like parameters, bipartite machinery and split graph analysis.

Solver conventions
------------------
Witness sets are deterministic.  Whenever a routine reports a witness for an
optimal value, it returns the optimum set whose bitset encoding is the
smallest integer among all optima ("lexmin").  This is achieved by a second
pass of per-vertex feasibility queries, so it is exact, not heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitset import bit, full_mask, iter_bits
from .errors import CapExceeded, InputError, InternalCheckError
from .graph import Graph, complement

#: Sentinel distance between vertices in different components.  Finite so
#: that sums and comparisons behave, but far above any real distance.
DIST_INF = 1 << 20

ORACLE_CAP = 20


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def distance_matrix(g: Graph) -> list[list[int]]:
    """All-pairs BFS hop distances, ``DIST_INF`` across components."""
    n = g.n
    dist = [[DIST_INF] * n for _ in range(n)]
    for s in range(n):
        row = dist[s]
        seen = bit(s)
        frontier = seen
        d = 0
        row[s] = 0
        while frontier:
            grow = 0
            for v in iter_bits(frontier):
                grow |= g.adj[v]
            frontier = grow & ~seen
            seen |= frontier
            d += 1
            for v in iter_bits(frontier):
                row[v] = d
    return dist


def diameter(g: Graph) -> int:
    m = max(map(max, distance_matrix(g)))
    if m >= DIST_INF:
        raise InputError("diameter undefined for disconnected graph")
    return m


# ---------------------------------------------------------------------------
# articulation structure
# ---------------------------------------------------------------------------


def _dfs_blocks(g: Graph) -> tuple[int, list[int]]:
    """Iterative lowpoint DFS.  Returns (cut vertex mask, block vertex masks)."""
    n = g.n
    disc = [0] * n
    low = [0] * n
    parent = [-1] * n
    nbrs = [list(iter_bits(g.adj[v])) for v in range(n)]
    ptr = [0] * n
    cut = 0
    blocks: list[int] = []
    estack: list[tuple[int, int]] = []
    counter = 0
    for root in range(n):
        if disc[root]:
            continue
        root_children = 0
        counter += 1
        disc[root] = low[root] = counter
        stack = [root]
        while stack:
            v = stack[-1]
            if ptr[v] < len(nbrs[v]):
                w = nbrs[v][ptr[v]]
                ptr[v] += 1
                if not disc[w]:
                    parent[w] = v
                    estack.append((v, w))
                    counter += 1
                    disc[w] = low[w] = counter
                    stack.append(w)
                    if v == root:
                        root_children += 1
                elif w != parent[v] and disc[w] < disc[v]:
                    estack.append((v, w))
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            else:
                stack.pop()
                if not stack:
                    continue
                u = stack[-1]
                if low[v] < low[u]:
                    low[u] = low[v]
                if low[v] >= disc[u]:
                    block = 0
                    while True:
                        a, b = estack.pop()
                        block |= bit(a) | bit(b)
                        if (a, b) == (u, v):
                            break
                    blocks.append(block)
                    if u != root or root_children > 1:
                        cut |= bit(u)
    return cut, blocks


def cut_vertices(g: Graph) -> int:
    """Mask of articulation vertices.  Requires a connected graph."""
    if not g.is_connected():
        raise InputError("cut_vertices requires a connected graph")
    cut, _ = _dfs_blocks(g)
    return cut


def blocks(g: Graph) -> list[int]:
    """Vertex masks of the maximal 2-connected blocks (bridges count)."""
    _, bl = _dfs_blocks(g)
    return bl


def is_block_graph(g: Graph) -> bool:
    return all(g.is_clique_mask(b) for b in blocks(g))


def simplicial_vertices(g: Graph) -> int:
    """Mask of vertices whose neighborhood induces a clique."""
    out = 0
    for v in range(g.n):
        if g.is_clique_mask(g.adj[v]):
            out |= bit(v)
    return out


def leaves(g: Graph) -> int:
    out = 0
    for v in range(g.n):
        if g.degree(v) == 1:
            out |= bit(v)
    return out


def has_triangle(g: Graph) -> bool:
    for u, v in g.edges():
        if g.adj[u] & g.adj[v]:
            return True
    return False


# ---------------------------------------------------------------------------
# exact clique machinery
# ---------------------------------------------------------------------------


class _Found(Exception):
    pass


def _clique_search(adj: tuple[int, ...], cand: int, target: int | None = None) -> tuple[int, int]:
    """Maximum clique inside ``cand`` by branch and bound.

    The bound is a greedy coloring of the candidate set.  With ``target``
    set, the search stops as soon as a clique of that size is found.
    """
    best = 0
    best_mask = 0

    def expand(rmask: int, rsize: int, pmask: int):
        nonlocal best, best_mask
        if not pmask:
            if rsize > best:
                best, best_mask = rsize, rmask
                if target is not None and best >= target:
                    raise _Found
            return
        order: list[tuple[int, int]] = []
        rest = pmask
        color = 0
        while rest:
            color += 1
            avail = rest
            while avail:
                b = avail & -avail
                v = b.bit_length() - 1
                order.append((v, color))
                rest ^= b
                avail = (avail ^ b) & ~adj[v]
        live = pmask
        for v, c in reversed(order):
            if rsize + c <= best:
                return
            expand(rmask | bit(v), rsize + 1, live & adj[v])
            live &= ~bit(v)

    try:
        expand(0, 0, cand)
    except _Found:
        pass
    return best, best_mask


def _lexmin(n: int, k: int, feasible, universe: int | None = None) -> int:
    """Smallest k-subset, as a bitset integer, accepted by ``feasible``.

    ``feasible(forced, allowed)`` must report whether some accepted set S
    with forced <= S <= allowed and |S| = k exists, and must hold initially
    for (0, universe).  Bits are settled from high to low, excluding
    wherever feasibility survives.
    """
    forced = 0
    allowed = full_mask(n) if universe is None else universe
    for v in range(n - 1, -1, -1):
        if not allowed & bit(v):
            continue
        if feasible(forced, allowed & ~bit(v)):
            allowed &= ~bit(v)
        else:
            forced |= bit(v)
    if forced.bit_count() != k:
        raise InternalCheckError("lexmin pass lost feasibility")
    return forced


def clique_number(g: Graph, allowed: int | None = None) -> tuple[int, int]:
    """Exact clique number with a lexmin witness mask."""
    cand = g.full() if allowed is None else allowed
    size, _ = _clique_search(g.adj, cand)
    if size == 0:
        return 0, 0

    def feasible(forced: int, box: int) -> bool:
        if not g.is_clique_mask(forced):
            return False
        room = box & ~forced
        for v in iter_bits(forced):
            room &= g.adj[v]
        need = size - forced.bit_count()
        if need <= 0:
            return need == 0
        got, _ = _clique_search(g.adj, room, target=need)
        return got >= need

    return size, _lexmin(g.n, size, feasible, universe=cand)


def independence_number(g: Graph) -> tuple[int, int]:
    """alpha(G), computed as the clique number of the complement."""
    return clique_number(complement(g))


def _hereditary_max(g: Graph, addable) -> tuple[int, int]:
    """Largest vertex set of a hereditary class, with lexmin witness.

    ``addable(smask, v)`` reports whether v may join a member S of the
    class (all of whose vertices are below v) and leave it in the class.
    Vertices are decided in ascending order; the bound is the number of
    undecided vertices.
    """
    n = g.n

    def search(forced: int, allowed: int, target: int | None) -> tuple[int, int]:
        best = 0
        best_mask = 0

        def rec(v: int, smask: int, size: int):
            nonlocal best, best_mask
            if size + (n - v) <= best:
                return
            if v == n:
                if size > best:
                    best, best_mask = size, smask
                    if target is not None and best >= target:
                        raise _Found
                return
            vb = bit(v)
            if allowed & vb and addable(smask, v):
                rec(v + 1, smask | vb, size + 1)
            if not forced & vb:
                rec(v + 1, smask, size)

        try:
            rec(0, 0, 0)
        except _Found:
            pass
        return best, best_mask

    size, _ = search(0, g.full(), None)

    def feasible(forced: int, box: int) -> bool:
        got, _ = search(forced, box, size)
        return got >= size

    return size, _lexmin(n, size, feasible)


def alpha_omega_number(g: Graph, cap: int = ORACLE_CAP) -> tuple[int, int]:
    """Largest set inducing a disjoint union of cliques, with lexmin witness."""
    if g.n > cap:
        raise CapExceeded(f"alpha_omega cap {cap} exceeded by order {g.n}")
    adj = g.adj

    def addable(smask: int, v: int) -> bool:
        # v must join no clique or all of exactly one: the closed
        # S-neighbourhood of any of its members
        x = adj[v] & smask
        if not x:
            return True
        low = x & -x
        return x == (adj[low.bit_length() - 1] & smask) | low

    return _hereditary_max(g, addable)


def dissociation_number(g: Graph, cap: int = ORACLE_CAP) -> tuple[int, int]:
    """Largest set inducing maximum degree at most one, with lexmin witness."""
    if g.n > cap:
        raise CapExceeded(f"dissociation cap {cap} exceeded by order {g.n}")
    adj = g.adj

    def addable(smask: int, v: int) -> bool:
        # at most one S-neighbour, and that one still isolated in S
        x = adj[v] & smask
        return not x or (x & (x - 1) == 0 and not adj[x.bit_length() - 1] & smask)

    return _hereditary_max(g, addable)


# ---------------------------------------------------------------------------
# bipartite machinery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Bipartition:
    side_a: int
    side_b: int


def bipartition(g: Graph) -> tuple[Bipartition | None, tuple[int, ...] | None]:
    """2-color a connected graph.

    Returns ``(Bipartition, None)`` when bipartite, else ``(None, odd_cycle)``
    where the certificate is a closed odd walk listed as a vertex tuple.
    """
    if not g.is_connected():
        raise InputError("bipartition requires a connected graph")
    n = g.n
    color = [-1] * n
    parent = [-1] * n
    depth = [0] * n
    color[0] = 0
    queue = [0]
    while queue:
        v = queue.pop(0)
        for u in iter_bits(g.adj[v]):
            if color[u] == -1:
                color[u] = 1 - color[v]
                parent[u] = v
                depth[u] = depth[v] + 1
                queue.append(u)
            elif color[u] == color[v]:
                a, b = v, u
                pa, pb = [a], [b]
                while depth[a] > depth[b]:
                    a = parent[a]
                    pa.append(a)
                while depth[b] > depth[a]:
                    b = parent[b]
                    pb.append(b)
                while a != b:
                    a = parent[a]
                    b = parent[b]
                    pa.append(a)
                    pb.append(b)
                cycle = tuple(pa + pb[-2::-1])
                return None, cycle
    side_a = 0
    side_b = 0
    for v in range(n):
        if color[v] == 0:
            side_a |= bit(v)
        else:
            side_b |= bit(v)
    return Bipartition(side_a, side_b), None


def psi_uniform(g: Graph, bp: Bipartition) -> tuple[int, int]:
    """Largest uniform set: one common-neighborhood class from each side.

    Vertices on one side are equivalent when their neighborhoods coincide;
    the value is the sum of the largest class sizes of the two sides.
    """

    def best_class(side: int) -> int:
        classes: dict[int, int] = {}
        for v in iter_bits(side):
            classes[g.adj[v]] = classes.get(g.adj[v], 0) | bit(v)
        if not classes:
            return 0
        return min(classes.values(), key=lambda m: (-m.bit_count(), m))

    ca = best_class(bp.side_a)
    cb = best_class(bp.side_b)
    return ca.bit_count() + cb.bit_count(), ca | cb


@dataclass(frozen=True)
class Matching:
    pairs: tuple[tuple[int, int], ...]
    size: int


def _hopcroft_karp(g: Graph, left: int, right: int) -> tuple[list[int], int]:
    """Match array (by vertex id, -1 if free) and matching size."""
    INF = 1 << 30
    match = [-1] * g.n
    left_list = list(iter_bits(left))
    size = 0
    while True:
        dist = {}
        queue = []
        for u in left_list:
            if match[u] == -1:
                dist[u] = 0
                queue.append(u)
        reachable_free = False
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            for v in iter_bits(g.adj[u] & right):
                w = match[v]
                if w == -1:
                    reachable_free = True
                elif w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if not reachable_free:
            return match, size

        def try_augment(u: int) -> bool:
            for v in iter_bits(g.adj[u] & right):
                w = match[v]
                if w == -1 or (dist.get(w) == dist[u] + 1 and try_augment(w)):
                    match[u] = v
                    match[v] = u
                    return True
            dist[u] = INF
            return False

        for u in left_list:
            if match[u] == -1 and try_augment(u):
                size += 1


def max_bipartite_matching(g: Graph, left: int, right: int) -> Matching:
    """Maximum matching using only left-right edges (Hopcroft-Karp)."""
    if left & right:
        raise InputError("matching sides must be disjoint")
    match, size = _hopcroft_karp(g, left, right)
    pairs = tuple(sorted((u, match[u]) for u in iter_bits(left) if match[u] != -1))
    return Matching(pairs, size)


def deficiency_witness(g: Graph, left: int, right: int) -> tuple[int, int, int]:
    """Maximizer of |J| - |N(J)| over J inside ``right``.

    Returns ``(J, N(J) within left, matching size)``.  J is the set of
    right-vertices reachable by alternating paths from the free ones; its
    deficiency equals |right| - (maximum matching size).
    """
    match, size = _hopcroft_karp(g, left, right)
    frontier = 0
    for v in iter_bits(right):
        if match[v] == -1:
            frontier |= bit(v)
    j_mask = frontier
    n_mask = 0
    while frontier:
        grow_left = 0
        for v in iter_bits(frontier):
            grow_left |= g.adj[v] & left
        grow_left &= ~n_mask
        n_mask |= grow_left
        frontier = 0
        for u in iter_bits(grow_left):
            if match[u] != -1 and not j_mask & bit(match[u]):
                frontier |= bit(match[u])
        j_mask |= frontier
    if j_mask.bit_count() - n_mask.bit_count() != right.bit_count() - size:
        raise InternalCheckError("deficiency witness does not match matching size")
    return j_mask, n_mask, size


# ---------------------------------------------------------------------------
# split graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitPartition:
    clique: int
    independent: int
    divided: int | None


def split_partition(g: Graph) -> SplitPartition | None:
    """Recognize a split graph by the degree-sequence characterization.

    The partition is normalized so that a divided vertex (adjacent to all of
    the clique side, independent of the rest of the independent side), when
    one exists, lies on the independent side.  Then omega = |C| + 1 exactly
    when a divided vertex is present, else omega = |C| and alpha = |I|.
    """
    n = g.n
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    degs = [g.degree(v) for v in order]
    m = 0
    for i in range(1, n + 1):
        if degs[i - 1] >= i - 1:
            m = i
    if sum(degs[:m]) != m * (m - 1) + sum(degs[m:]):
        return None
    cmask = 0
    for v in order[:m]:
        cmask |= bit(v)
    imask = g.full() & ~cmask
    if not g.is_clique_mask(cmask) or not g.is_independent_mask(imask):
        raise InternalCheckError("degree characterization produced an invalid partition")
    hidden = [v for v in iter_bits(cmask) if not g.adj[v] & imask]
    if hidden:
        v = hidden[0]
        cmask &= ~bit(v)
        imask |= bit(v)
    divided = None
    for v in iter_bits(imask):
        # adjacent to all of the clique side; vacuously true when that side
        # is empty (edgeless graphs), where the moved vertex still counts
        if g.adj[v] & cmask == cmask:
            divided = v
            break
    return SplitPartition(cmask, imask, divided)


def phi_separated(g: Graph, sp: SplitPartition) -> tuple[int, int]:
    """Largest separated subgraph of a split graph.

    The maximization is taken with the clique side as large as possible: a
    divided vertex, though recorded on the independent side, is counted
    with the clique here.  Shrinking the clique side can strictly lower
    the separated maximum and break its equality with the monophonic
    position number (a 5-vertex triangle with two pendants on one vertex
    already shows this), so the enlarged side is the right one.

    Two shapes compete: (C minus N(J)) + J for the J maximizing the Hall
    deficiency on the independent side, found through a maximum matching;
    and a single independent vertex together with its clique neighborhood.
    The pure independent side is dominated by the deficiency shape, which
    is asserted rather than assumed.
    """
    cmask, imask = sp.clique, sp.independent
    if sp.divided is not None:
        cmask |= bit(sp.divided)
        imask &= ~bit(sp.divided)
    csize, isize = cmask.bit_count(), imask.bit_count()
    j_mask, n_mask, msize = deficiency_witness(g, cmask, imask)
    a_val = csize + isize - msize
    a_wit = (cmask & ~n_mask) | j_mask
    if isize > a_val:
        raise InternalCheckError("independent side beats the deficiency shape")
    b_val = -1
    b_wit = 0
    for v in iter_bits(imask):
        got = (g.adj[v] & cmask).bit_count() + 1
        if got > b_val:
            b_val = got
            b_wit = bit(v) | (g.adj[v] & cmask)
    if b_val >= a_val and b_val > 0:
        return b_val, b_wit
    return a_val, a_wit


# ---------------------------------------------------------------------------
# distance-hereditary recognition
# ---------------------------------------------------------------------------


def is_distance_hereditary(g: Graph) -> bool:
    """One-vertex-extension test: prune pendants and twins down to a point."""
    if not g.is_connected():
        raise InputError("is_distance_hereditary requires a connected graph")
    adj = g.adj
    alive = g.full()
    while alive.bit_count() > 1:
        found = -1
        for v in iter_bits(alive):
            if (adj[v] & alive).bit_count() <= 1:
                found = v
                break
        if found == -1:
            verts = list(iter_bits(alive))
            for i, v in enumerate(verts):
                av = adj[v] & alive
                for u in verts[i + 1:]:
                    au = adj[u] & alive
                    if av == au or av | bit(v) == au | bit(u):
                        found = u
                        break
                if found != -1:
                    break
        if found == -1:
            return False
        alive &= ~bit(found)
    return True


# ---------------------------------------------------------------------------
# small exhaustive oracles (test and harness support)
# ---------------------------------------------------------------------------


def oracle_max_subset(g: Graph, predicate, cap: int = 12) -> tuple[int, int]:
    """Largest subset satisfying ``predicate(mask)`` by full enumeration.

    Scans masks in increasing integer order, so the witness is lexmin.
    """
    if g.n > cap:
        raise CapExceeded(f"subset oracle cap {cap} exceeded by order {g.n}")
    best, best_mask = 0, 0
    for mask in range(1 << g.n):
        if mask.bit_count() > best and predicate(mask):
            best, best_mask = mask.bit_count(), mask
    return best, best_mask


def unions_of_cliques(g: Graph, mask: int) -> bool:
    for v in iter_bits(mask):
        x = g.adj[v] & mask
        comp = g.component_of(v, within=mask)
        if x != comp & ~bit(v) or not g.is_clique_mask(comp):
            return False
    return True


def max_degree_le_one(g: Graph, mask: int) -> bool:
    return all((g.adj[v] & mask).bit_count() <= 1 for v in iter_bits(mask))
