"""The lazy mono system that mp and imp share on a ``GraphSolver``.

Its twin is the full index: ``build_triple_index(g, MONOPHONIC)`` searched
by ``max_position_set``.  ``SEED_AFTER`` at 0 makes every pair but the
adjacent ones come from the geodesic and seed-walk floor, and a middle
value keeps an exact prefix of rows in front of a lazy rest, so that small
graphs take the check walks too.  ``CHECK_QUOTA`` at 1 ends a walk's first
turn at its first expansion, so the walks prune by reachability at once.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import connected_graphs
import monopos.paths as paths
import monopos.solvers as solvers
from monopos.errors import BudgetExceeded
from monopos.families import grid_graph, hypercube, random_connected_graph, random_graph
from monopos.graph import Graph
from monopos.invariants import _lexmin, _PositionSearch
from monopos.solvers import GraphSolver, PathMode, build_triple_index, max_position_set


def _full(g, name):
    rep = max_position_set(build_triple_index(g, PathMode.MONOPHONIC), name == "imp")
    return rep.value, rep.witness


def _lazy(g, names):
    """The reports of ``names``, in that order, from one lexmin solver, and
    its mono index."""
    s = GraphSolver(g, lexmin=True)
    return {name: (s.report(name).value, s.report(name).witness) for name in names}, s.mono_index()


def test_lazy_system_equals_the_full_index_on_small_connected_graphs(monkeypatch):
    lazy = prefix = walks = 0
    for threshold, quota in ((0, 1), (20, paths.CHECK_QUOTA)):
        monkeypatch.setattr(paths, "SEED_AFTER", threshold)
        monkeypatch.setattr(paths, "CHECK_QUOTA", quota)
        for k, g in enumerate(connected_graphs(7)):
            names = ("mp", "imp") if k % 2 else ("imp", "mp")
            got, idx = _lazy(g, names)
            assert got == {name: _full(g, name) for name in names}, (threshold, g.adj)
            if idx.lazy is not None:
                lazy += 1
                prefix += idx.lazy.rows_done > 0
                walks += idx.lazy.walks
    # both thresholds leave many indexes lazy, the middle one after a prefix
    assert lazy > 1000 and prefix > 100 and walks > 1000


@st.composite
def sparse_or_dense(draw):
    n = draw(st.integers(8, 16))
    p = draw(st.sampled_from([0.15, 0.25, 0.4, 0.6]))
    return random_graph(n, random.Random(draw(st.integers(0, 10**6))), p)


@settings(max_examples=60, deadline=None)
@given(sparse_or_dense(), st.sampled_from([0, 40]), st.sampled_from([1, 2000]), st.booleans())
def test_lazy_system_equals_the_full_index(g, threshold, quota, imp_first):
    names = ("imp", "mp") if imp_first else ("mp", "imp")
    with pytest.MonkeyPatch.context() as m:
        m.setattr(paths, "SEED_AFTER", threshold)
        m.setattr(paths, "CHECK_QUOTA", quota)
        got, _ = _lazy(g, names)
    assert got == {name: _full(g, name) for name in names}


@pytest.mark.parametrize("g, imp", [(hypercube(6), (1, 2)), (grid_graph(8, 8), (0, 2))],
                         ids=["Q6", "grid8x8"])
def test_q6_and_the_8x8_grid_finish_with_no_check_walk(g, imp):
    """The full index refuses both on its first row; the lazy one settles
    them with no walk.  A loose pair is a 2-set that holds no triple, so
    checking it takes no walk either."""
    got, idx = _lazy(g, ("mp", "imp"))
    assert got == {"mp": (2, (0, 1)), "imp": (2, imp)}
    lazy = idx.lazy
    assert lazy is not None and lazy.rows_done == 0
    assert lazy.walks == lazy.expansions == lazy.rounds == 0
    x = next(v for v in range(g.n) if lazy.loose[v])
    z = (lazy.loose[x] & -lazy.loose[x]).bit_length() - 1
    assert lazy.check(1 << x | 1 << z) == [] and lazy.walks == 0


def test_check_walk_budget_names_rows_done_expansions_rounds_and_nodes(monkeypatch):
    # Row 0 fits in SEED_AFTER and row 1 would cross it, so the rest is
    # lazy.  mp's check walks pass the budget of 60 after one round; imp,
    # on the same solver, refuses at its first check.
    monkeypatch.setattr(paths, "SEED_AFTER", 30)
    monkeypatch.setattr(paths, "DEFAULT_BUDGET", 60)
    s = GraphSolver(random_connected_graph(14, random.Random(1), 0.2), lexmin=True)
    with pytest.raises(BudgetExceeded, match=r"^monophonic check walks: budget 60 exhausted "
                       r"after 1 of 9 prefix rows, 61 check-walk expansions, 1 round\(s\), "
                       r"123 search nodes$"):
        s.report("mp")
    with pytest.raises(BudgetExceeded, match=r"61 check-walk expansions, 1 round\(s\), "
                                             r"39 search nodes$"):
        s.report("imp")


def test_report_counts_the_search_nodes_of_every_round(monkeypatch):
    monkeypatch.setattr(paths, "SEED_AFTER", 0)
    real = _PositionSearch.run
    runs = []

    def counted(self, *args):
        before = self.nodes
        out = real(self, *args)
        runs.append(self.nodes - before)
        return out

    monkeypatch.setattr(_PositionSearch, "run", counted)
    s = GraphSolver(random_connected_graph(16, random.Random(4), 0.25), lexmin=False)
    rep = s.report("mp")
    lazy = s.mono_index().lazy
    assert lazy.rounds > 0 and len(runs) == lazy.rounds + 1
    assert rep.expansions == sum(runs)


def test_an_exact_lazy_index_is_the_full_index_and_is_shared():
    g = grid_graph(3, 4)
    s = GraphSolver(g, lexmin=True)
    idx = s.mono_index()
    assert idx.lazy is None and idx is s.triple_index(PathMode.MONOPHONIC)
    assert idx.witness == build_triple_index(g, PathMode.MONOPHONIC).witness


def test_an_independent_search_reads_a_triple_added_to_an_empty_table():
    # Four isolated vertices: the empty system holds all four; the triple
    # {0, 1, 2} leaves the lexmin set {0, 1, 3}.
    g = Graph.from_edges(4, [])
    idx = build_triple_index(g, PathMode.MONOPHONIC)
    search = _PositionSearch(g.adj, idx.table(), independent=True)
    assert _lexmin(search.pos, search.run, g.full()) == (4, 0b1111)
    pos = search.pos
    search.add_triple(pos[0], pos[1], pos[2])
    assert search.grows
    assert _lexmin(search.pos, search.run, g.full()) == (3, 0b1011)
    assert [search.pair[pos[a]][pos[b]] for a, b in ((0, 1), (2, 0), (1, 2))] == [
        1 << pos[2], 1 << pos[1], 1 << pos[0]]


def test_the_lazy_index_reaches_the_search_through_build_triple_index(monkeypatch):
    """``GraphSolver`` builds the lazy index by ``build_triple_index``, so
    the benchmark's span of it keeps its name; the geo index is built only
    for a lazy one, and then once for gp as well."""
    real = solvers.build_triple_index
    built = []

    def counting(g, mode, *args, **kwargs):
        built.append((mode, "floor" in kwargs))
        return real(g, mode, *args, **kwargs)

    monkeypatch.setattr(solvers, "build_triple_index", counting)
    s = GraphSolver(hypercube(5))
    s.report("mp")
    s.report("gp")
    s.report("imp")
    assert built == [(PathMode.MONOPHONIC, True), (PathMode.GEODESIC, False)]
