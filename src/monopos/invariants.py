"""Classical invariants: distances, the separator decomposition, exact
solvers for clique-like parameters, bipartite machinery and split graph
analysis.

One MCS-M pass (``_mcs_m``) is the graph decomposition: its clique minimal
separators give the atoms that the hull number reads, and its separators of
one vertex give the blocks and cut vertices.

It also holds the one forbidden-triple branch and bound, ``_PositionSearch``,
the one search of all nine maxima: the largest vertex set holding no triple
(x, y, z) with y a witness of the pair {x,z}.  It runs in order space over
one table per triple system: for each pair of vertices, the mask of the
third members of their triples.  :func:`pair_table` builds it by
bit-matrix transposes, ordered by witness participation, from interval or
geodesic witnesses for the position solvers and from common-neighbour
witnesses for alphaomega and dissociation.  alpha searches the empty
system for independent sets, in clique-cover order (``_independent_max``);
omega is alpha of the complement.

Solver conventions
------------------
Witness sets are deterministic.  Every exact maximum (clique, alpha,
alphaomega, diss here; mp, gp, gp2, imp, igp in ``solvers``) ends in one
driver, ``_lexmin``.  It takes the optimum from a search
``run(forced, box, target)``, then settles bits from high to low with
further runs, one per vertex of the optimum it holds and each pruned to
the optimum's size, so the witness is the optimum set whose bitset
encoding is the smallest integer ("lexmin"): exact, not heuristic.  Runs
take and return order-space masks; ``_lexmin`` maps ``allowed`` in and the
witness out once per maximum.  A node limit counts the optimum search and
the lexmin pass together.  The hull number is a minimum and is not lexmin:
``solvers.hull_number`` reports the first hull set in combination order.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import reduce
from itertools import chain, islice, repeat
from operator import itemgetter, or_

from .bitset import bit, full_mask, iter_bits, mask_of
from .errors import (InputError, InternalCheckError, NodeLimitExceeded, require_cap,
                     require_positive)
from .graph import MAX_VERTICES, SOLVER_CAP, Graph

#: Sentinel distance between vertices in different components.  Finite so
#: that sums and comparisons behave, but far above any real distance.
DIST_INF = 1 << 20

#: Default node limit of one exact maximum (a position number, clique,
#: alpha, alphaomega or diss, optimum and lexmin pass together), for every
#: entry point (library, ``parameter_suite``, the reduction and the CLI).
NODE_LIMIT = 20_000_000

#: A lexmin run of gp2 or diss that may leave out at most this many free
#: vertices of its box searches with no forcing (see ``_forcing_run``).
BARE_SLACK = 2


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def distance_matrix(g: Graph) -> list[list[int]]:
    """All-pairs hop distances from ``Graph.layers``, ``DIST_INF`` across components."""
    n = g.n
    dist = [[DIST_INF] * n for _ in range(n)]
    for s, row in enumerate(dist):
        for d, layer in enumerate(g.layers(s)):
            for v in iter_bits(layer):
                row[v] = d
    return dist


def diameter(g: Graph) -> int:
    if not g.is_connected():
        raise InputError("diameter undefined for disconnected graph")
    return max(len(g.layers(v)) for v in range(g.n)) - 1


# ---------------------------------------------------------------------------
# separator decomposition
# ---------------------------------------------------------------------------


def _mcs_m(g: Graph) -> tuple[list[int], int, list[int]]:
    """MCS-M (Berry, Blair, Heggernes & Peyton 2004, *Algorithmica* 39):
    ``(order, generators, madj)``, the one decomposition pass of the graph.

    It numbers the vertices from n down to 1 (``order`` lists them as
    taken), each time taking the heaviest unnumbered x.  Each unnumbered y
    that x reaches through lighter unnumbered vertices gains weight and
    records x in ``madj[y]``; one sweep over rising weights k finds those
    of weight k next to x or to what x reaches below k.  A vertex taken
    with no more weight than the one before is a generator (a bit of
    ``generators``): ``madj[x]`` is a minimal separator, and every clique
    minimal separator, a cut vertex included, is generated so.
    """
    adj = g.adj
    buckets = [g.full()] + [0] * g.n  # unnumbered vertices by weight
    madj = [0] * g.n
    order = []
    generators = 0
    top = prev = -1
    for _ in range(g.n):
        top += 1  # a step raises the top weight by at most one
        while not buckets[top]:
            top -= 1
        x = (buckets[top] & -buckets[top]).bit_length() - 1
        buckets[top] ^= bit(x)
        if top <= prev:
            generators |= bit(x)
        prev = top
        order.append(x)
        near = adj[x]  # neighbours of x and of what it reaches
        reach = light = 0
        raised = []
        for k in range(top + 1):
            if buckets[k] & near:
                raised.append((k, buckets[k] & near))
            light |= buckets[k]
            frontier = near & light & ~reach
            while frontier:
                reach |= frontier
                for v in iter_bits(frontier):
                    near |= adj[v]
                frontier = near & light & ~reach
        for k, hit in raised:
            buckets[k] ^= hit
            buckets[k + 1] |= hit
            for y in iter_bits(hit):
                madj[y] |= bit(x)
    return order, generators, madj


def _pieces(g: Graph, splits) -> list[int]:
    """The atom step of Berry, Pogorelcnik & Simonet (2010, *Algorithms* 3)
    over the separators that ``splits`` accepts: from number 1 up, each
    generator x with ``splits(madj[x])`` splits off the separator plus the
    component of the rest that holds x; the last rest is a piece too."""
    order, generators, madj = _mcs_m(g)
    pieces = []
    rest = g.full()
    for x in reversed(order):
        if generators >> x & 1 and splits(madj[x]):
            comp = g.component_of(x, rest & ~madj[x])
            pieces.append(madj[x] | comp)
            rest &= ~comp
    pieces.append(rest)
    return pieces


def clique_separator_atoms(g: Graph) -> list[int]:
    """Vertex masks of the atoms of the clique minimal separator
    decomposition: the maximal vertex sets that induce a connected subgraph
    with no clique separator; a disconnected graph gets those of each
    component.  The pieces of the clique separators of ``_mcs_m``."""
    return _pieces(g, g.is_clique_mask)


def blocks(g: Graph) -> list[int]:
    """Vertex masks of the maximal 2-connected blocks (bridges count;
    isolated vertices do not): the pieces of more than one vertex split off
    at the separators of at most one vertex, cut vertices and the empty
    separator between components."""
    return [p for p in _pieces(g, lambda sep: sep.bit_count() <= 1) if p.bit_count() > 1]


def cut_vertices(g: Graph) -> int:
    """Mask of articulation vertices, the minimal separators of one vertex
    that ``_mcs_m`` generates.  Requires a connected graph."""
    if not g.is_connected():
        raise InputError("cut_vertices requires a connected graph")
    _, generators, madj = _mcs_m(g)
    cut = 0
    for x in iter_bits(generators):
        if madj[x].bit_count() == 1:
            cut |= madj[x]
    return cut


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
# the lexmin driver
# ---------------------------------------------------------------------------


class _Found(Exception):
    pass


def _to_order(pos: list[int], mask: int) -> int:
    """``mask`` with bit v moved to ``pos[v]``; a dense one maps through its complement."""
    flip = (1 << len(pos)) - 1 if 2 * mask.bit_count() > len(pos) else 0
    out = 0
    for v in iter_bits(mask ^ flip):
        out |= 1 << pos[v]
    return out ^ flip


def _lexmin(pos: list[int], run, allowed: int, lexmin: bool = True) -> tuple[int, int]:
    """The one lexmin driver of the exact maxima: (optimum, witness mask).

    ``run(forced, box, target)`` searches the accepted sets S with forced <=
    S <= box, in order space (bit ``pos[v]`` is vertex v): ``allowed`` is
    mapped in and the witness out once.  With ``target`` None it returns the
    best (size, mask).  With a target it returns a set of size at least
    ``target``, or else any size below ``target``; it may stop at the first
    set that reaches ``target`` and prune every branch that cannot.

    The optimum is ``run(0, allowed, None)``; with ``lexmin`` off its first
    optimum found is the witness.  Otherwise vertices are settled from high
    to low, excluding one wherever an optimum survives without it, so the
    witness is the optimum with the smallest bitset.  ``found`` is an
    optimum with forced <= found <= allowed throughout (every forced vertex
    lies in every optimum inside ``allowed``).  A vertex outside ``found``
    is excluded with no search; for one inside, a run with target
    ``value`` either returns the next ``found`` or shows the vertex forced.
    """
    allowed = _to_order(pos, allowed)
    value, found = run(0, allowed, None)
    if lexmin:
        forced = 0
        for p in reversed(pos):
            b = 1 << p
            if found & b:
                size, mask = run(forced, allowed & ~b, value)
                if size < value:
                    forced |= b
                    continue
                found = mask
            allowed &= ~b
        if forced.bit_count() != value:
            raise InternalCheckError("lexmin pass lost feasibility")
        found = forced
    return value, sum(1 << v for v, p in enumerate(pos) if found >> p & 1)


# ---------------------------------------------------------------------------
# forbidden-triple search
# ---------------------------------------------------------------------------

def common_neighbour_witnesses(g: Graph, include_adjacent: bool) -> list[list[int]]:
    """Triple system ``witness[x][z] = N(x) & N(z)`` over the pairs x != z,
    all of them with ``include_adjacent``, else the non-adjacent ones only.

    Over every pair, a set meeting no triple has no member with two
    neighbours in it: it is a dissociation set.  Over non-adjacent pairs
    the triples are the induced P3s x-y-z, which are exactly the geodesics
    of length two, since d(x,z) = 2 iff x, z are non-adjacent with a common
    neighbour.  So a set is in 2-position iff it spans no induced P3 iff it
    induces a disjoint union of cliques (a graph without induced P3 has
    transitive adjacency within each component), and gp2 = alphaomega with
    the same lexmin witness.
    """
    adj = g.adj
    witness = [[0] * g.n for _ in range(g.n)]
    for x in range(g.n):
        row = witness[x]
        for z in range(g.n):
            if z != x and (include_adjacent or not adj[x] >> z & 1):
                row[z] = adj[x] & adj[z]
    return witness


#: ``(order, pos, pair)``, see :func:`pair_table`.
PairTable = tuple[list[int], list[int], list[list[int]]]

#: ``struct`` code of an element of each width that ``pair_table`` packs as
#: one cube; wider systems go a slab of planes at a time (``_wide_table``).
_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}
#: Bits of the slab of planes that ``_wide_table`` transposes at a time.
_SLAB_BITS = 1 << 16
#: width -> the steps that transpose each plane of a cube of that width,
#: and those that transpose its planes with its rows (``_swaps``); built on
#: first use, for widths up to 64 only.
_CUBE_SWAPS: dict[int, tuple[list[tuple[int, int]], list[tuple[int, int]]]] = {}


def _swaps(width: int, unit: int, planes: int) -> list[tuple[int, int]]:
    """The ``(delta, mask)`` steps that transpose each of ``planes``
    consecutive width x width matrices of ``unit``-bit elements, stored row
    major (element (r, c) at bit (r*width + c)*unit of its plane).  Step
    s = width/2, ..., 1 trades the elements whose row lacks bit s and whose
    column has it with their mirror images, s*(width - 1) elements up.  The
    masks are built by repeating bytes."""
    steps = []
    s = width >> 1
    while s:
        row = sum(((1 << unit) - 1) << c * unit for c in range(width) if c & s)
        row = row.to_bytes(width * unit // 8, "little")
        plane = (row * s + bytes(len(row)) * s) * (width // (2 * s))
        steps.append((s * (width - 1) * unit, int.from_bytes(plane * planes, "little")))
        s >>= 1
    return steps


def _transpose(x: int, steps: list[tuple[int, int]]) -> int:
    """``x`` after the delta swaps of ``steps`` (see ``_swaps``)."""
    for delta, mask in steps:
        t = (x ^ x >> delta) & mask
        x ^= t ^ t << delta
    return x


def _by_participation(count: list[int]) -> tuple[list[int], list[int]]:
    """``(order, pos)``: the vertices by descending ``count``, ties by label
    (the sort is stable), and the inverse."""
    order = sorted(range(len(count)), key=[-c for c in count].__getitem__)
    pos = [0] * len(order)
    for i, v in enumerate(order):
        pos[v] = i
    return order, pos


def pair_table(witness: list[list[int]]) -> PairTable:
    """``(order, pos, pair)`` of a symmetric triple system with an empty
    diagonal, for ``_PositionSearch``.

    ``order`` lists the vertices by descending witness participation (an
    end of a pair counts its witnesses, a witness counts its pairs), ties
    by label, and ``pos`` inverts it.  In order space bit i stands for
    ``order[i]``, and ``pair[i][j]`` is the mask of every w such that
    {order[i], order[j], w} holds a triple.  Each row is a list of its own,
    which ``_PositionSearch.add_triple`` may grow.

    Built by bit-matrix transposes with delta swaps (Warren, *Hacker's
    Delight*, 2nd ed., section 7-3; Knuth, TAOCP 4A, section 7.1.3), a few
    big-integer steps in place of one step per witness bit.  With N the
    power of two at least max(n, 8), the system is a cube of bits, bit
    (a*N + b)*N + c set when c is in W[a][b].  Transposing every plane gives
    D[a][b] = {c : b in W[a][c]}, and transposing the planes with the rows
    gives E[v][a] = D[a][v].  Then P = W | D | E is the table in label space,
    and vertex v takes part |W[v][.]| + |E[v][.]|/2 times.  P is symmetric in
    all three vertices, so once each plane's elements are reordered by
    ``order``, one more plane transpose leaves at row c of plane a the mask
    P[a][c] in order space, and ``pair[i]`` is rows ``order`` of plane
    ``order[i]``.  Widths up to 64 pack the cube whole with
    ``struct``; wider ones go through ``_wide_table``.
    """
    n = len(witness)
    if n < 2:
        return list(range(n)), list(range(n)), [[0] * n for _ in range(n)]
    width = max(8, 1 << (n - 1).bit_length())
    if width > 64:
        return _wide_table(witness, width)
    if width not in _CUBE_SWAPS:
        _CUBE_SWAPS[width] = _swaps(width, 1, width), _swaps(width, width, 1)
    within, across = _CUBE_SWAPS[width]
    row = f"{n}{_CODES[width]}{(width - n) * width // 8}x"  # an element row, zero padded
    cube, plane = "<" + row * n, "<" + row
    step = width * width // 8
    size = n * step
    data = struct.pack(cube, *chain.from_iterable(witness))
    w = int.from_bytes(data, "little")
    d = _transpose(w, within)
    e = _transpose(d, across)
    ebytes = e.to_bytes(size, "little")
    order, pos = _by_participation(
        [2 * int.from_bytes(data[o:o + step], "little").bit_count()
         + int.from_bytes(ebytes[o:o + step], "little").bit_count() for o in range(0, size, step)])
    get = itemgetter(*order)
    p = struct.iter_unpack(plane, (w | d | e).to_bytes(size, "little"))
    m = int.from_bytes(struct.pack(cube, *chain.from_iterable(map(get, p))), "little")
    t = list(struct.iter_unpack(plane, _transpose(m, within).to_bytes(size, "little")))
    return order, pos, [list(get(t[a])) for a in order]


def _wide_table(witness: list[list[int]], width: int) -> PairTable:
    """``pair_table`` above width 64, where ``struct`` has no element: the
    same plane transposes a slab at a time, each element coded as bytes.
    E is an element reorder instead, done in place so that
    P[a][b] and P[b][a] share one int, and each row of P goes once its
    plane is out.  No cube is held, and no mask outlives the call."""
    n = len(witness)
    nbytes = width // 8
    pad = bytes(nbytes * (width - n))
    slab = max(1, _SLAB_BITS // (width * width))
    planes = _swaps(width, 1, slab)
    split = struct.Struct(f"{nbytes}s" * width).iter_unpack
    little, lengths = repeat("little"), repeat(nbytes)

    def transposed(rows):
        """The plane of each row of elements, transposed, as element bytes."""
        rows = iter(rows)
        while part := list(islice(rows, slab)):
            data = b"".join(b"".join(map(int.to_bytes, row, lengths, little)) + pad for row in part)
            yield from split(_transpose(int.from_bytes(data, "little"), planes)
                             .to_bytes(len(data), "little"))

    p = [list(map(int.from_bytes, t[:n], little)) for t in transposed(witness)]  # D, then P
    order, pos = _by_participation([2 * sum(map(int.bit_count, row)) + sum(map(int.bit_count, col))
                                    for row, col in zip(witness, zip(*p))])
    for a in range(n):
        wa, pa = witness[a], p[a]
        for b in range(a + 1, n):
            pa[b] = p[b][a] = wa[b] | pa[b] | p[b][a]
    get = itemgetter(*order)

    def reordered():
        for a in order:
            row, p[a] = p[a], None
            yield get(row)
    return order, pos, [list(map(int.from_bytes, get(t), little)) for t in transposed(reordered())]


def _cover(rows: list[int], cand: int, classes: list[int] | None = None,
           parent: list[int] | None = None, took: list[int] | None = None) -> int:
    """The mask of the top bits of the classes of a greedy cover of ``cand``
    by cliques of the graph whose neighbour masks are ``rows``: from the
    lowest bit left, keep adding the lowest common neighbour.  The classes
    go to ``classes`` when it is given.  With ``parent`` and ``took``, the
    walk first sets ``rows[k] = parent[k] | took[k]`` for each k of
    ``cand`` it meets, so each candidate is touched once."""
    tops = 0
    while cand:
        cls = 0
        common = cand
        while common:
            b = common & -common
            cls |= b
            k = b.bit_length() - 1
            if parent is not None:
                rows[k] = parent[k] | took[k]
            common &= rows[k]
        cand ^= cls
        tops |= b
        if classes is not None:
            classes.append(cls)
    return tops


class _PositionSearch:
    """Largest vertex set meeting no triple, by branch and bound over an
    ``(order, pos, pair)`` table, as :func:`pair_table` builds it.

    The search runs in order space: bit i is ``order[i]``, so the next
    candidate is the lowest bit of ``cand`` and the candidates go in table
    order.  Taking i kills ``pair[i][j]`` for every chosen j; with
    ``independent`` it also kills the neighbours of ``order[i]``.  The
    bound is chosen + surviving candidates, all of which lie past i.

    With ``independent`` two candidates u and v also exclude each other
    when they are adjacent or when {j, u, v} holds a triple for a chosen j:
    they are adjacent in the *conflict graph*, whose row of candidate k is
    ``nbr[k] | pair[k][j]`` over the chosen j, the mask that taking k
    kills.  An independent position set meets a clique of it at most once,
    so a node that the count does not prune covers its candidates by
    conflict cliques (``_cover``) and counts instead the classes that
    still meet them: as candidates leave lowest first, those are the
    classes whose top bit is left (MCQ's colour bound, Tomita & Kameda
    2007, on the graph the search branches on).  A node keeps the rows of
    its candidates in ``levels[size]``: its parent's rows with the pair
    row of the vertex it just took ORed in, in the same walk that grows
    its cover.  Over the empty triple system (alpha and omega) the rows
    are ``nbr`` itself and are never copied.

    ``run`` takes and returns order-space masks (see ``_lexmin``);
    ``nodes`` counts every node of every run so far, also after a limit or
    a target stops one, and ``largest`` is the size of the largest set a
    run has returned.  A node-limit refusal names both.  ``add_triple``
    grows the table between runs, and the next run reads it.
    """

    def __init__(self, adj: tuple[int, ...], table: PairTable, independent: bool = False,
                 node_limit: int = NODE_LIMIT):
        require_positive(node_limit=node_limit)
        self.order, self.pos, self.pair = table
        self.independent = independent
        self.nbr = [_to_order(self.pos, adj[v]) if independent else 0 for v in self.order]
        n = len(self.order)
        # whether taking a vertex adds to the conflict rows: a pair row is not all zero
        self.grows = independent and self.pair.count([0] * n) < n
        self.levels = [[0] * n for _ in range(n + 1)] if self.grows else []
        self.node_limit = node_limit
        self.nodes = 0
        self.largest = 0

    def add_triple(self, i: int, j: int, k: int) -> None:
        """Add the triple {order[i], order[j], order[k]}: all six ``pair``
        entries, in the table that every search over it shares.  An
        independent search over an all-zero table starts reading conflict
        rows here."""
        pair = self.pair
        pair[i][j] |= 1 << k
        pair[j][i] |= 1 << k
        pair[i][k] |= 1 << j
        pair[k][i] |= 1 << j
        pair[j][k] |= 1 << i
        pair[k][j] |= 1 << i
        if self.independent and not self.grows:
            self.grows = True
            self.levels = [[0] * len(pair) for _ in range(len(pair) + 1)]

    def run(self, forced: int, box: int, target: int | None) -> tuple[int, int]:
        """Best (size, mask) with forced <= mask <= box; with a target, the
        first set that reaches it, or a size below it (see ``_lexmin``)."""
        pair, nbr = self.pair, self.nbr
        chosen: list[int] = []
        kill = 0
        for i in iter_bits(forced):
            row = pair[i]
            kill |= nbr[i]
            for j in chosen:
                kill |= row[j]
            chosen.append(i)
        if kill & forced:
            return 0, 0
        size = len(chosen)
        self.best = size if target is None else max(size, target - 1)
        self.best_mask = forced
        self.target = target
        cand = box & ~forced & ~kill
        rows = nbr
        if self.grows and size and size + cand.bit_count() > self.best:
            rows = self.levels[size]  # the root's rows, once its count does not prune it
            for k in iter_bits(cand):
                row = pair[k]
                conf = nbr[k]
                for j in chosen:
                    conf |= row[j]
                rows[k] = conf
        try:
            self._rec(chosen, forced, cand, rows, None)
        except _Found:
            pass
        self.largest = max(self.largest, self.best_mask.bit_count())
        return self.best, self.best_mask

    def _rec(self, chosen: list[int], smask: int, cand: int, rows: list[int],
             took: list[int] | None):
        """One node.  With ``independent``, ``rows`` are the conflict rows
        of the parent's candidates and ``took`` the pair row of the vertex
        just taken; they are already this node's rows at the root (``took``
        None) and when taking a vertex adds no conflict."""
        self.nodes += 1
        if self.nodes > self.node_limit:
            best = max(self.largest, self.best_mask.bit_count())
            raise NodeLimitExceeded(f"position solver node limit {self.node_limit} exceeded "
                                    f"after {self.nodes} nodes, largest set so far {best}")
        size = len(chosen)
        if size > self.best:
            self.best = size
            self.best_mask = smask
            if self.target is not None and self.best >= self.target:
                raise _Found
        pair, independent = self.pair, self.independent
        live = cand
        if independent and size + cand.bit_count() > self.best:
            if took is None or not self.grows:
                live = _cover(rows, cand)
            else:
                parent, rows = rows, self.levels[size]
                live = _cover(rows, cand, None, parent, took)
        while cand:
            if size + (live & cand).bit_count() <= self.best:
                return
            b = cand & -cand
            i = b.bit_length() - 1
            cand ^= b
            row = pair[i]
            if independent:
                kill = rows[i]
            else:
                kill = 0
                for j in chosen:
                    kill |= row[j]
            chosen.append(i)
            self._rec(chosen, smask | b, cand & ~kill, rows, row)
            chosen.pop()


def _forcing_run(search: _PositionSearch):
    """``search.run`` behind a forcing rule, as the ``run`` of ``_lexmin``;
    for a search without ``independent``.

    With X the box and F the forced set, a vertex v of X - F is forced
    when every live triple through v (one inside X) holds one vertex
    p outside F, and outright when no live triple holds v.  Some optimum
    holds v: an optimum S without v gives S - p + v if p is in S, else
    S + v.  So the optimum inside (F, X) keeps its size, and ``_lexmin``,
    exact whatever set of that size a run returns, keeps its witness.  A
    pendant vertex always passes in the systems of gp2 and diss, so on
    trees most of the set is forced before the search (the pendant rules
    for maximum independent set, Fomin, Grandoni & Kratsch 2009, *J. ACM*
    56; for dissociation, Xiao & Kou 2017, *Theor. Comput. Sci.* 657).

    The rule runs in the order space of the masks it gets, as the search
    does, and maps none.  ``tri[i]`` is the mask of every vertex sharing a
    triple with i, and a vertex killed by two forced ones leaves X.  The
    optimum run (target None) runs a worklist to a fixpoint over X - F;
    each vertex that leaves X queues its ``tri`` again.  The lexmin runs
    test, the same way, only the vertices the optimum run forced, each on
    its own box.  A lexmin run whose slack (the free vertices of its box
    beyond those its target needs) is at most ``BARE_SLACK`` searches
    bare: the count bound lets a branch leave out at most that many free
    vertices, so with k of them it visits at most 1 + k + k(k - 1)/2
    nodes, fewer than the tests cost on small graphs.  Forcing less never
    breaks the exchange.  Each ``_lexmin`` run is one ``search.run``.
    """
    pair = search.pair
    tri = [reduce(or_, row, 0) for row in pair]
    forcible = -1

    def passes(v: int, f: int, x: int) -> bool:
        """Whether one vertex outside ``f`` lies in every triple through v
        inside ``x`` (true when there is none)."""
        row = pair[v]
        hit = ~f & ~(1 << v)
        link = tri[v] & x
        while link and hit:
            a = link & -link
            link ^= a
            live = row[a.bit_length() - 1] & x
            if live:
                hit &= a | (live if live & (live - 1) == 0 else 0)
        return hit != 0

    def force(f: int, x: int, queue: int) -> int:
        """The mask of the vertices forced from ``queue`` on (f, x)."""
        forced = 0
        while queue:
            b = queue & -queue
            queue ^= b
            v = b.bit_length() - 1
            if not passes(v, f, x):
                continue
            row = pair[v]
            kill = 0
            near = tri[v] & f
            while near:
                u = near & -near
                near ^= u
                kill |= row[u.bit_length() - 1]
            kill &= x
            f |= b
            forced |= b
            x ^= kill
            while kill:
                u = kill & -kill
                kill ^= u
                queue |= tri[u.bit_length() - 1]
            queue &= x & ~f & forcible
        return forced

    def run(forced: int, box: int, target: int | None) -> tuple[int, int]:
        nonlocal forcible
        if target is None:
            forcible = -1
        elif (box & ~forced).bit_count() - target + forced.bit_count() <= BARE_SLACK:
            return search.run(forced, box, target)
        done = force(forced, box, box & ~forced & forcible)
        if target is None:
            forcible = done
        return search.run(forced | done, box, target)
    return run


def _independent_max(g: Graph, complement: bool, cap: int, node_limit: int,
                     lexmin: bool) -> tuple[int, int, int]:
    """alpha, with a witness (lexmin with ``lexmin``) and the search nodes,
    of ``g`` or of its complement (omega of ``g``): ``_PositionSearch`` over
    the empty triple system, branching class by class of a greedy clique
    cover, last class first (as MCQ)."""
    n = g.n
    require_cap("clique", cap, n)
    adj = g.adj
    if complement:
        full = g.full()
        adj = tuple(full ^ a ^ bit(v) for v, a in enumerate(adj))
    classes: list[int] = []
    _cover(adj, full_mask(n), classes)
    order = [v for cls in reversed(classes) for v in iter_bits(cls)]
    pos = sorted(range(n), key=order.__getitem__)
    no_pairs = [0] * n  # the empty triple system: one zero row for every i
    search = _PositionSearch(adj, (order, pos, [no_pairs] * n), True, node_limit)
    return _lexmin(search.pos, search.run, full_mask(n), lexmin) + (search.nodes,)


def clique_number(g: Graph, cap: int = MAX_VERTICES,
                  node_limit: int = NODE_LIMIT) -> tuple[int, int]:
    """Exact clique number with a lexmin witness mask: alpha of the
    complement, by the one search of all nine maxima."""
    return _independent_max(g, True, cap, node_limit, True)[:2]


def independence_number(g: Graph, cap: int = MAX_VERTICES,
                        node_limit: int = NODE_LIMIT) -> tuple[int, int]:
    """alpha(G) with a lexmin witness mask, by the one search of all nine maxima."""
    return _independent_max(g, False, cap, node_limit, True)[:2]


def _common_neighbour_max(g: Graph, include_adjacent: bool, cap: int, node_limit: int,
                          lexmin: bool) -> tuple[int, int, int]:
    """Diss (``include_adjacent``) or alphaomega, with a witness (lexmin with
    ``lexmin``) and the search nodes, by the position search behind
    :func:`_forcing_run`."""
    require_cap("dissociation" if include_adjacent else "alpha_omega", cap, g.n)
    table = pair_table(common_neighbour_witnesses(g, include_adjacent))
    search = _PositionSearch(g.adj, table, node_limit=node_limit)
    return _lexmin(search.pos, _forcing_run(search), g.full(), lexmin) + (search.nodes,)


def alpha_omega_number(g: Graph, cap: int = SOLVER_CAP,
                       node_limit: int = NODE_LIMIT) -> tuple[int, int]:
    """Largest set inducing a disjoint union of cliques, with lexmin witness.

    It equals gp2 (see :func:`common_neighbour_witnesses`).  Vertices that
    :func:`_forcing_run` allows, every pendant among them, are forced
    before each search, so trees, unicyclic and block graphs of 64-70
    vertices take under a thousand nodes."""
    return _common_neighbour_max(g, False, cap, node_limit, True)[:2]


def dissociation_number(g: Graph, cap: int = SOLVER_CAP,
                        node_limit: int = NODE_LIMIT) -> tuple[int, int]:
    """Largest set inducing maximum degree at most one, with lexmin witness.

    Vertices that :func:`_forcing_run` allows, every pendant among them,
    are forced before each search, so trees, unicyclic and block graphs
    of 64-70 vertices take a few hundredths of a second."""
    return _common_neighbour_max(g, True, cap, node_limit, True)[:2]


# ---------------------------------------------------------------------------
# bipartite machinery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Bipartition:
    side_a: int
    side_b: int


def bipartition(g: Graph) -> tuple[Bipartition | None, tuple[int, ...] | None]:
    """2-color a connected graph by the parity of its layers from vertex 0.

    Returns ``(Bipartition, None)`` when bipartite, else ``(None, odd_cycle)``
    where the certificate is a closed odd walk listed as a vertex tuple: the
    first edge ab inside a layer, with a and b each stepped back one layer at
    a time to their lowest neighbour in the layer before, until they meet.
    """
    layers = g.layers(0)
    if sum(layers) != g.full():
        raise InputError("bipartition requires a connected graph")
    for k, layer in enumerate(layers):
        for a in iter_bits(layer):
            if g.adj[a] & layer:
                b = next(iter_bits(g.adj[a] & layer))
                pa, pb = [a], [b]
                while a != b:
                    k -= 1
                    a = next(iter_bits(g.adj[a] & layers[k]))
                    b = next(iter_bits(g.adj[b] & layers[k]))
                    pa.append(a)
                    pb.append(b)
                return None, tuple(pa + pb[-2::-1])
    return Bipartition(sum(layers[0::2]), sum(layers[1::2])), None


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


def _augment(adj, left: int, match: list[int], v: int, seen: set[int]) -> bool:
    """Kuhn's step: match right vertex ``v`` along an augmenting path whose
    left vertices are outside ``seen``, adding every left vertex it tries to
    ``seen``.  ``match`` maps each vertex to its partner (-1 if free) and
    changes only when a path is found."""
    for u in iter_bits(adj[v] & left):
        if u not in seen:
            seen.add(u)
            if match[u] == -1 or _augment(adj, left, match, match[u], seen):
                match[u] = v
                match[v] = u
                return True
    return False


def deficiency_witness(g: Graph, left: int, right: int) -> tuple[int, int, int]:
    """Maximizer of |J| - |N(J)| over J inside ``right``.

    Returns ``(J, N(J) within left, matching size)``.  Kuhn's search runs
    in rounds: a round tries every free right vertex once, with one
    ``seen`` for the whole round, and the rounds stop at one that matches
    none.  Then no augmenting path is left, so the matching is maximum
    (Berge), and that round's runs have tried exactly N(J), for J the free
    right vertices and the partners of N(J): the right vertices that
    alternating paths reach from the free ones.  J is the same for every
    maximum matching (Dulmage-Mendelsohn), and its deficiency equals
    |right| - (maximum matching size).
    """
    match = [-1] * g.n
    while True:
        free = mask_of(v for v in iter_bits(right) if match[v] == -1)
        seen: set[int] = set()
        if not sum(_augment(g.adj, left, match, v, seen) for v in iter_bits(free)):
            break
    size = right.bit_count() - free.bit_count()
    n_mask = mask_of(seen)
    j_mask = free | mask_of(match[u] for u in seen)
    if n_mask != reduce(or_, (g.adj[v] & left for v in iter_bits(j_mask)), 0):
        raise InternalCheckError("deficiency witness's N(J) is not J's neighbourhood")
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
    cmask = mask_of(order[:m])
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
    The pure independent side never beats the deficiency shape: a matching
    has at most |C| edges, so |C| + |I| - (matching size) >= |I|.
    """
    cmask, imask = sp.clique, sp.independent
    if sp.divided is not None:
        cmask |= bit(sp.divided)
        imask &= ~bit(sp.divided)
    j_mask, n_mask, msize = deficiency_witness(g, cmask, imask)
    a_val = cmask.bit_count() + imask.bit_count() - msize
    a_wit = (cmask & ~n_mask) | j_mask
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
    require_cap("subset oracle", cap, g.n)
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
