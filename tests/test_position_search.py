"""The position search against its slow twin, a label-space search that
scans every order position with a suffix-mask bound and ORs the kill mask
from the witness rows and their inversion at every child.  With
``independent`` the twin covers the candidates of a node by cliques of the
conflict graph, where u and v conflict when taking u kills v (they are
adjacent or complete a triple with a chosen vertex); each class is grown
from the first candidate left in its order by scanning for common
conflicts, and the twin counts the classes that meet the candidates past
each position.  Both must give the same value, witness and node count.

omega and alpha, the position search over the empty triple system, have a
second twin: the greedy-colouring clique search that computed them before,
on the graph and on its complement, with the same value and witness.

``pair_table`` has a twin too, ``_pair_table_twin``: two passes over every
witness bit, which must give the same ``(order, pos, pair)`` at every
width the transposes take."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import connected_graphs, random_connected
from monopos.bitset import bit, iter_bits
from monopos.errors import NodeLimitExceeded
from monopos.families import grid_graph, random_graph, random_split_graph, random_tree
from monopos.graph import complement, complete_graph, cycle_graph, path_graph
from monopos.invariants import (NODE_LIMIT, _cover, _Found, _independent_max, _lexmin,
                                _PositionSearch, clique_number, common_neighbour_witnesses,
                                independence_number, pair_table)
from monopos.solvers import POSITION_PARAMS, PathMode, brute_force_position, build_triple_index


def _pair_table_twin(witness):
    """``pair_table`` one witness bit at a time: the participation counts,
    then the table in order space, then one symmetrising sweep."""
    n = len(witness)
    count = [sum(w.bit_count() for w in row) for row in witness]
    for x in range(n):
        for w in witness[x][x + 1:]:
            while w:
                b = w & -w
                count[b.bit_length() - 1] += 1
                w ^= b
    order = sorted(range(n), key=lambda v: (-count[v], v))
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    pair = [[0] * n for _ in range(n)]
    for x in range(n):
        wx = witness[x]
        px = pos[x]
        bx = 1 << px
        for z in range(x + 1, n):
            w = wx[z]
            if not w:
                continue
            pz = pos[z]
            bz = 1 << pz
            m = 0
            while w:
                b = w & -w
                py = pos[b.bit_length() - 1]
                m |= 1 << py
                row = pair[py]
                row[px] |= bz
                row[pz] |= bx
                w ^= b
            pair[px][pz] |= m
    for i in range(n):
        row = pair[i]
        for j in range(i + 1, n):
            row[j] = pair[j][i] = row[j] | pair[j][i]
    return order, pos, pair


def _invert_witnesses(witness):
    """wit_of[u][y] = mask of w such that y witnesses the pair {u,w}."""
    n = len(witness)
    wit_of = [[0] * n for _ in range(n)]
    for x in range(n):
        for z in range(n):
            if z != x:
                for y in iter_bits(witness[x][z]):
                    wit_of[x][y] |= bit(z)
    return wit_of


class _LabelSpaceSearch:
    """The twin: the same branch and bound in label space."""

    def __init__(self, adj, witness, wit_of, independent=False, node_limit=NODE_LIMIT):
        self.adj = adj
        self.witness = witness
        self.wit_of = wit_of
        self.independent = independent
        self.node_limit = node_limit
        self.nodes = 0
        n = len(adj)
        deg = [sum(w.bit_count() for w in witness[v])
               + sum(wit_of[u][v].bit_count() for u in range(n)) // 2 for v in range(n)]
        self.order = sorted(range(n), key=lambda v: (-deg[v], v))
        self.suffix = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            self.suffix[i] = self.suffix[i + 1] | bit(self.order[i])

    def _kill_mask(self, chosen, v):
        kill = 0
        for u in chosen:
            kill |= self.witness[v][u] | self.wit_of[u][v] | self.wit_of[v][u]
        if self.independent:
            kill |= self.adj[v]
        return kill

    def run(self, forced, allowed, target):
        chosen = []
        kill = 0
        for v in iter_bits(forced):
            kill |= self._kill_mask(chosen, v)
            chosen.append(v)
        if kill & forced:
            return 0, 0
        self.best = len(chosen) if target is None else max(len(chosen), target - 1)
        self.best_mask = forced
        self.target = target
        try:
            self._rec(chosen, forced, allowed & ~forced & ~kill, 0)
        except _Found:
            pass
        return self.best, self.best_mask

    def _classes(self, chosen, cand):
        """A cover of cand by cliques of the conflict graph: u and v
        conflict when taking u kills v (by singletons without
        ``independent``)."""
        left = [v for v in self.order if cand & bit(v)]
        classes = []
        while left:
            cls = [left[0]]
            for v in left[1:]:
                if self.independent and all(self._kill_mask(chosen, u) & bit(v) for u in cls):
                    cls.append(v)
            left = [v for v in left if v not in cls]
            classes.append(sum(bit(v) for v in cls))
        return classes

    def _rec(self, chosen, smask, cand, oi):
        self.nodes += 1
        if self.nodes > self.node_limit:
            raise NodeLimitExceeded(f"position solver node limit {self.node_limit} exceeded")
        size = len(chosen)
        if size > self.best:
            self.best = size
            self.best_mask = smask
            if self.target is not None and self.best >= self.target:
                raise _Found
        classes = self._classes(chosen, cand)
        for i in range(oi, len(self.order)):
            if size + sum(1 for c in classes if c & cand & self.suffix[i]) <= self.best:
                return
            v = self.order[i]
            if cand & bit(v):
                kill = self._kill_mask(chosen, v)
                chosen.append(v)
                self._rec(chosen, smask | bit(v), cand & ~kill & ~bit(v), i + 1)
                chosen.pop()
                cand &= ~bit(v)


def _empty(n):
    """The empty triple system: with ``independent`` the search computes alpha."""
    return [[0] * n for _ in range(n)]


def _systems(g):
    """(name, witness system, independent) for all seven maxima the search
    serves, and alpha over the empty system."""
    out = []
    for mode in PathMode:
        witness = build_triple_index(g, mode).witness
        out += [(name, witness, ind) for name, (m, ind) in POSITION_PARAMS.items() if m is mode]
    out.append(("alphaomega", common_neighbour_witnesses(g, False), False))
    out.append(("diss", common_neighbour_witnesses(g, True), False))
    out.append(("alpha", _empty(g.n), True))
    return out


def _answers(g, search, pos):
    """(value, witness, nodes) with lexmin off, then on, for a search whose
    runs take masks in the order space of ``pos``.  With lexmin off
    ``_lexmin`` returns its first run, so one driver call gives both; the
    first run's mask is mapped back to labels here."""
    first = []

    def run(forced, box, target):
        size, mask = search.run(forced, box, target)
        if not first:
            labels = sum(bit(v) for v, p in enumerate(pos) if mask >> p & 1)
            first.append((size, labels, search.nodes))
        return size, mask
    return first + [_lexmin(pos, run, g.full()) + (search.nodes,)]


def _diff_against_twin(g):
    """The twin runs in label space, so ``_lexmin`` drives it with the
    identity order.  Each table (mono, geo, geo2, the diss system and the
    empty one) also equals the loop twin's."""
    for name, witness, ind in _systems(g):
        table = pair_table(witness)
        assert table == _pair_table_twin(witness), (g.adj, name)
        fast = _PositionSearch(g.adj, table, ind)
        slow = _LabelSpaceSearch(g.adj, witness, _invert_witnesses(witness), ind)
        assert _answers(g, fast, fast.pos) == _answers(g, slow, list(range(g.n))), (g.adj, name)


def test_search_equals_its_twin_on_small_connected_graphs():
    checked = 0
    for g in connected_graphs(7):
        _diff_against_twin(g)
        checked += 1
    assert checked == 996


@settings(max_examples=100, deadline=None)
@given(st.integers(8, 14), st.integers(0, 2**32 - 1), st.floats(0.15, 0.6))
def test_search_equals_its_twin_on_random_connected_graphs(n, seed, p):
    _diff_against_twin(random_connected(random.Random(seed), n, p))


def test_root_clique_cover_is_sound_on_small_connected_graphs():
    """The classes that bound the root of imp, igp and alpha partition the
    vertices into cliques, at least as many as the value, and the cover
    marks the top bit of each."""
    checked = 0
    for g in connected_graphs(7):
        for name, witness, value in (
                ("imp", build_triple_index(g, PathMode.MONOPHONIC).witness,
                 brute_force_position(g, PathMode.MONOPHONIC, True).value),
                ("igp", build_triple_index(g, PathMode.GEODESIC).witness,
                 brute_force_position(g, PathMode.GEODESIC, True).value),
                ("alpha", _empty(g.n), independence_number(g)[0])):
            search = _PositionSearch(g.adj, pair_table(witness), True)
            classes = []
            tops = _cover(search.nbr, g.full(), classes)
            assert len(classes) >= value, (g.adj, name)
            covered = 0
            for cls in classes:
                assert not covered & cls, (g.adj, name)
                covered |= cls
                assert tops & cls == 1 << cls.bit_length() - 1, (g.adj, name)
                members = [search.order[i] for i in iter_bits(cls)]
                assert all(g.adj[u] >> v & 1 for u in members for v in members if u != v), \
                    (g.adj, name, members)
            assert covered == g.full() and tops.bit_count() == len(classes), (g.adj, name)
            checked += 1
    assert checked == 3 * 996


def _triple_rows(witness):
    """rows[a][b] = mask of every w such that {a, b, w} holds a triple."""
    n = len(witness)
    rows = [[0] * n for _ in range(n)]
    for x in range(n):
        for z in range(x + 1, n):
            for y in iter_bits(witness[x][z]):
                for a, b, w in ((x, z, y), (x, y, z), (z, y, x)):
                    rows[a][b] |= bit(w)
                    rows[b][a] |= bit(w)
    return rows


def _best_through(g, witness):
    """best[v] = the size of the largest independent position set holding
    v, by enumeration of the hereditary family from its lowest bits up."""
    rows = _triple_rows(witness)
    ok = [True] + [False] * (g.full())
    best = [0] * g.n
    for mask in range(1, g.full() + 1):
        x = mask.bit_length() - 1
        rest = mask ^ bit(x)
        ok[mask] = ok[rest] and not g.adj[x] & rest and not any(
            rows[x][a] & rest for a in iter_bits(rest))
        if ok[mask]:
            for v in iter_bits(mask):
                best[v] = max(best[v], mask.bit_count())
    return best


def test_conflict_cover_one_level_down_is_sound_on_small_connected_graphs():
    """With one vertex v chosen, the classes that ``_cover`` grows over the
    candidates left after v (the non-neighbours of v), while it ORs v's
    pair rows into their rows, partition them into conflict cliques: every
    two members are adjacent or complete a triple with v.  There are at
    least as many as the best independent position set through v, less
    one, for imp and igp."""
    checked = 0
    for g in connected_graphs(7):
        for mode in (PathMode.MONOPHONIC, PathMode.GEODESIC):
            witness = build_triple_index(g, mode).witness
            triples = _triple_rows(witness)
            best = _best_through(g, witness)
            search = _PositionSearch(g.adj, pair_table(witness), True)
            order, nbr = search.order, search.nbr
            for pv, v in enumerate(order):
                cand = g.full() & ~bit(pv) & ~nbr[pv]
                rows = [0] * g.n
                classes = []
                tops = _cover(rows, cand, classes, nbr, search.pair[pv])
                assert len(classes) >= best[v] - 1, (g.adj, mode, v)
                covered = 0
                for cls in classes:
                    assert not covered & cls, (g.adj, mode, v)
                    covered |= cls
                    assert tops & cls == 1 << cls.bit_length() - 1, (g.adj, mode, v)
                    members = [order[i] for i in iter_bits(cls)]
                    assert all(g.adj[u] >> w & 1 or triples[u][w] >> v & 1
                               for u in members for w in members if u != w), \
                        (g.adj, mode, v, members)
                assert covered == cand and tops.bit_count() == len(classes), (g.adj, mode, v)
                checked += 1
    assert checked == 2 * sum(g.n for g in connected_graphs(7))


def test_omega_and_alpha_node_counts_are_pinned():
    """Over the empty triple system the conflict rows are the rows of G,
    so the conflict cover leaves the searches of omega and alpha as they
    were: node counts with the lexmin pass."""
    assert _independent_max(random_graph(64, random.Random(1), 0.1), False, 64,
                            NODE_LIMIT, True)[2] == 1_811
    assert _independent_max(random_graph(64, random.Random(1), 0.9), True, 64,
                            NODE_LIMIT, True)[2] == 16_342


def _clique_twin(g):
    """omega(g) with its lexmin witness by a second branch and bound: grow
    the clique ``forced`` inside its common neighbourhood, bounded by a
    greedy colouring of the candidates (as MCQ, Tomita & Kameda 2007),
    driven by ``_lexmin`` in label space (the identity order).  alpha(g) is
    this twin on the complement."""
    adj = g.adj

    def run(forced, allowed, target):
        if not g.is_clique_mask(forced):
            return 0, 0
        room = allowed & ~forced
        for v in iter_bits(forced):
            room &= adj[v]
        best = [forced.bit_count(), forced]
        if target is not None:
            best[0] = max(best[0], target - 1)  # only sets of size target count

        def expand(rmask, rsize, pmask):
            if not pmask:
                if rsize > best[0]:
                    best[:] = rsize, rmask
                    if target is not None and rsize >= target:
                        raise _Found
                return
            order = []
            rest, color = pmask, 0
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
                if rsize + c <= best[0]:
                    return
                expand(rmask | bit(v), rsize + 1, live & adj[v])
                live &= ~bit(v)

        try:
            expand(forced, forced.bit_count(), room)
        except _Found:
            pass
        return tuple(best)

    return _lexmin(list(range(g.n)), run, g.full())


def test_independent_search_over_the_empty_system_is_alpha_at_64_vertices():
    """Alpha through the position search over the empty system, in the
    label order that ``pair_table`` gives it (11,180 nodes), equals the
    clique search twin on the complement, value and lexmin witness, on
    G(64, 0.1)."""
    g = random_graph(64, random.Random(1), 0.1)
    search = _PositionSearch(g.adj, pair_table(_empty(g.n)), True, node_limit=50_000)
    assert _lexmin(search.pos, search.run, g.full()) == _clique_twin(complement(g))


@pytest.mark.parametrize("g", [
    *(pytest.param(random_graph(64, random.Random(1), p), id=f"gnp64-{p}")
      for p in (0.1, 0.3, 0.5, 0.9)),
    pytest.param(random_split_graph(64, random.Random(1)), id="split64"),
    pytest.param(grid_graph(8, 8), id="grid8x8"),
])
def test_omega_and_alpha_equal_the_clique_search_twin_at_64_vertices(g):
    assert clique_number(g) == _clique_twin(g)
    assert independence_number(g) == _clique_twin(complement(g))


def test_omega_equals_the_clique_search_twin_on_a_tree_of_512_vertices():
    g = random_tree(512, random.Random(1))
    assert clique_number(g) == _clique_twin(g)


def test_alpha_search_order_by_clique_cover_classes_bounds_early():
    """Branching class by class of a greedy clique cover, alpha of G(64, 0.1)
    stays under 3,000 nodes (1,811); label order takes 11,180."""
    g = random_graph(64, random.Random(1), 0.1)
    assert independence_number(g, node_limit=3_000)[0] == 25


def test_pair_table_equals_its_definition():
    """order by descending participation (ties by label), pos its inverse,
    and pair[i][j] the order-space mask of the third members of the
    triples through order[i] and order[j], from an explicit triple list;
    at n = 9, 17 and 33 too, the first orders of widths 16, 32 and 64."""
    cases = list(connected_graphs(5)) + [cycle_graph(7), path_graph(6), complete_graph(4),
                                         grid_graph(3, 3), random_tree(17, random.Random(1)),
                                         cycle_graph(33)]
    checked = 0
    for g in cases:
        for _, witness, _ in _systems(g):
            n = g.n
            triples = {frozenset((x, y, z)) for x in range(n) for z in range(x + 1, n)
                       for y in iter_bits(witness[x][z])}
            part = [sum(witness[v][z].bit_count() for z in range(n))
                    + sum(witness[x][z] >> v & 1 for x in range(n) for z in range(x + 1, n))
                    for v in range(n)]
            order, pos, pair = pair_table(witness)
            assert order == sorted(range(n), key=lambda v: (-part[v], v))
            assert [order[p] for p in pos] == list(range(n))
            for i in range(n):
                for j in range(n):
                    want = sum(bit(pos[w]) for w in range(n)
                               if i != j and frozenset((order[i], order[j], w)) in triples)
                    assert pair[i][j] == want, (g.adj, i, j)
            checked += 1
    assert checked > 100


def _random_system(n, seed, density):
    """A symmetric system with an empty diagonal: each mask holds each
    vertex, the pair's own ends too, with probability 0, 1/8, 1/2 or 3/4
    (``density`` 0 to 3)."""
    rng = random.Random(seed)
    witness = [[0] * n for _ in range(n)]
    for x in range(n):
        for z in range(x + 1, n):
            m = rng.getrandbits(n) if density else 0
            if density == 1:
                m &= rng.getrandbits(n) & rng.getrandbits(n)
            elif density == 3:
                m |= rng.getrandbits(n)
            witness[x][z] = witness[z][x] = m
    return witness


#: The orders on both sides of every width the transposes take up to 64
#: and of 65, the first order past it, the smallest ones and a few between.
ORDERS = (0, 1, 2, 5, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 48, 63, 64, 65, 70)


@pytest.mark.parametrize("n", ORDERS)
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), density=st.integers(0, 3))
def test_pair_table_equals_its_twin_on_random_systems(n, seed, density):
    witness = _random_system(n, seed, density)
    assert pair_table(witness) == _pair_table_twin(witness)


@pytest.mark.parametrize("n", [128, 129])
def test_pair_table_equals_its_twin_past_width_128(n):
    for density in (1, 2):
        witness = _random_system(n, n, density)
        assert pair_table(witness) == _pair_table_twin(witness), density


def test_pair_table_pins_the_smallest_orders():
    assert pair_table([]) == ([], [], [])
    assert pair_table([[0]]) == ([0], [0], [[0]])
    assert pair_table([[0, 0], [0, 0]]) == ([0, 1], [0, 1], [[0, 0], [0, 0]])
    ends = [[0, 0b11], [0b11, 0]]  # each end witnesses the pair
    assert pair_table(ends) == _pair_table_twin(ends) == ([0, 1], [0, 1], [[2, 3], [3, 1]])
    for _, _, pair in (pair_table(_empty(n)) for n in (1, 2)):
        assert all(type(row) is list for row in pair)
        assert len({id(row) for row in pair}) == len(pair)


@pytest.mark.parametrize("n", [9, 70])
def test_add_triple_grows_exactly_its_six_entries_of_a_table(n):
    """``_PositionSearch.add_triple`` ORs into the rows of the table in
    place, so every row must be a list of its own."""
    table = pair_table(_random_system(n, n, 1))
    pair = table[2]
    assert all(type(row) is list for row in pair)
    assert len({id(row) for row in pair}) == n
    i, j, k = next((i, j, k) for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n)
                   if not pair[i][j] >> k & 1)
    before = [row[:] for row in pair]
    _PositionSearch((0,) * n, table).add_triple(i, j, k)
    grown = {(i, j): k, (j, i): k, (i, k): j, (k, i): j, (j, k): i, (k, j): i}
    for a in range(n):
        for b in range(n):
            want = before[a][b] | (1 << grown[a, b] if (a, b) in grown else 0)
            assert pair[a][b] == want, (a, b)


def _peak_bytes(f, *args):
    """The most memory that ``f(*args)`` holds at once, its answer included."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mode", [PathMode.GEODESIC, PathMode.GEODESIC_LEN2])
def test_pair_table_past_width_64_holds_at_most_three_times_the_twins_memory(mode):
    """Past width 64 the transposes go a slab of planes at a time, and
    the label-space table shrinks row by row as the answer grows: on
    G(130, 0.1), whose geo system is dense and geo2 system sparse."""
    witness = build_triple_index(random_graph(130, random.Random(1), 0.1), mode, cap=130).witness
    assert _peak_bytes(pair_table, witness) <= 3 * _peak_bytes(_pair_table_twin, witness)
