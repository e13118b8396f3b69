"""The position search against its slow twin, a label-space search that
scans every order position with a suffix-mask bound and ORs the kill mask
from the witness rows and their inversion at every child.  Both must give
the same value, witness and node count."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import connected_graphs, random_connected
from monopos.bitset import bit, iter_bits
from monopos.errors import NodeLimitExceeded
from monopos.graph import complete_graph, cycle_graph, path_graph
from monopos.invariants import (NODE_LIMIT, _Found, _lexmin, _PositionSearch,
                                common_neighbour_witnesses, pair_table)
from monopos.solvers import POSITION_PARAMS, PathMode, build_triple_index


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
        for i in range(oi, len(self.order)):
            if size + (cand & self.suffix[i]).bit_count() <= self.best:
                return
            v = self.order[i]
            if cand & bit(v):
                kill = self._kill_mask(chosen, v)
                chosen.append(v)
                self._rec(chosen, smask | bit(v), cand & ~kill & ~bit(v), i + 1)
                chosen.pop()
                cand &= ~bit(v)


def _systems(g):
    """(name, witness system, independent) for all seven maxima the search serves."""
    out = []
    for mode in PathMode:
        witness = build_triple_index(g, mode).witness
        out += [(name, witness, ind) for name, (m, ind) in POSITION_PARAMS.items() if m is mode]
    out.append(("alphaomega", common_neighbour_witnesses(g, False), False))
    out.append(("diss", common_neighbour_witnesses(g, True), False))
    return out


def _answers(g, search):
    """(value, witness, nodes) with lexmin off, then on.  With lexmin off
    ``_lexmin`` returns its first run, so one driver call gives both."""
    first = []

    def run(forced, box, target):
        got = search.run(forced, box, target)
        if not first:
            first.append(got + (search.nodes,))
        return got
    return first + [_lexmin(g.n, run, g.full()) + (search.nodes,)]


def _diff_against_twin(g):
    for name, witness, ind in _systems(g):
        fast = _PositionSearch(g.adj, pair_table(witness), ind)
        slow = _LabelSpaceSearch(g.adj, witness, _invert_witnesses(witness), ind)
        assert _answers(g, fast) == _answers(g, slow), (g.adj, name)


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


def test_pair_table_equals_its_definition():
    """order by descending participation (ties by label), pos its inverse,
    and pair[i][j] the order-space mask of the third members of the
    triples through order[i] and order[j], from an explicit triple list."""
    cases = list(connected_graphs(5)) + [cycle_graph(7), path_graph(6), complete_graph(4)]
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
