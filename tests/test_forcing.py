"""The forcing rule of gp2 and diss (``invariants._forcing_run``) against the
bare position search: the same value and lexmin witness, and the same value
with lexmin off.  On the tree-like families, where the bare search runs
past millions of nodes, the rule brings gp2 and diss under a thousand
nodes (diss on the block graph to about fifteen thousand), and a tree DP
checks the values."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monopos.invariants as invariants
from conftest import connected_graphs, random_connected
from monopos.bitset import iter_bits, mask_of
from monopos.families import random_block_graph, random_graph, random_tree, random_unicyclic
from monopos.graph import SOLVER_CAP, path_graph
from monopos.invariants import (BARE_SLACK, NODE_LIMIT, _common_neighbour_max, _forcing_run,
                                _independent_max, _lexmin, _PositionSearch,
                                common_neighbour_witnesses, has_triangle, pair_table)
from monopos.solvers import GraphSolver


def _holds_no_triple(witness, s):
    verts = list(iter_bits(s))
    return not any(witness[x][z] & s for i, x in enumerate(verts) for z in verts[i + 1:])


def _diff_against_bare(g):
    """Also with ``BARE_SLACK`` below any slack, so that every lexmin run
    forces: at these orders most of them would search bare."""
    for include_adjacent in (False, True):
        witness = common_neighbour_witnesses(g, include_adjacent)
        table = pair_table(witness)
        pos = table[1]
        for lexmin in (True, False):
            bare = _lexmin(pos, _PositionSearch(g.adj, table).run, g.full(), lexmin)
            for slack in (BARE_SLACK, -1):
                invariants.BARE_SLACK = slack
                try:
                    got = _lexmin(pos, _forcing_run(_PositionSearch(g.adj, table)), g.full(),
                                  lexmin)
                finally:
                    invariants.BARE_SLACK = BARE_SLACK
                case = g.adj, include_adjacent, slack
                if lexmin:
                    assert got == bare, case
                else:
                    assert got[0] == bare[0] and got[1].bit_count() == got[0], case
                    assert _holds_no_triple(witness, got[1]), case


def test_forcing_equals_the_bare_search_on_small_connected_graphs():
    checked = 0
    for g in connected_graphs(7):
        _diff_against_bare(g)
        checked += 1
    assert checked == 996


@settings(max_examples=100, deadline=None)
@given(st.integers(8, 14), st.integers(0, 2**32 - 1), st.floats(0.1, 0.6))
def test_forcing_equals_the_bare_search_on_random_connected_graphs(n, seed, p):
    _diff_against_bare(random_connected(random.Random(seed), n, p))


def _tree_dissociation(g):
    """Dissociation number of a tree by DP from vertex 0: per vertex, the
    best of its subtree with it out, in alone, and in with one child."""
    parent = {0: -1}
    order = [0]
    for v in order:
        for u in iter_bits(g.adj[v]):
            if u not in parent:
                parent[u] = v
                order.append(u)
    out, alone, paired = {}, {}, {}
    for v in reversed(order):
        kids = [u for u in iter_bits(g.adj[v]) if u != parent[v]]
        out[v] = sum(max(out[u], alone[u], paired[u]) for u in kids)
        alone[v] = 1 + sum(out[u] for u in kids)
        paired[v] = alone[v] + max((alone[u] - out[u] for u in kids), default=-1)
    return max(out[0], alone[0], paired[0])


def _report(g, name, node_limit=5_000):
    """(value, lexmin witness mask, search nodes) of one report."""
    rep = GraphSolver(g, node_limit=node_limit, lexmin=True, cap=70).report(name)
    return rep.value, mask_of(rep.witness), rep.expansions


@pytest.mark.parametrize("g, nodes", [
    pytest.param(random_tree(70, random.Random(5)), 101, id="tree70-seed5"),
    pytest.param(random_tree(64, random.Random(1)), 104, id="tree64-seed1"),
    pytest.param(path_graph(40), 88, id="path40"),
])
def test_gp2_and_diss_on_trees_equal_the_tree_dp_within_5000_nodes(g, nodes):
    """On a triangle-free graph a set inducing disjoint cliques induces
    degree at most one, so gp2 = diss with the same lexmin witness.  The
    node counts are pinned, so a rule that forces less shows even when it
    stays exact."""
    assert not has_triangle(g)
    gp2 = _report(g, "gp2")
    assert gp2 == _report(g, "diss") == gp2[:2] + (nodes,)
    assert gp2[0] == _tree_dissociation(g)


def test_gp2_and_diss_on_unicyclic_and_block_graphs_finish_early():
    """With no forcing, each of these runs past 3M nodes.  diss on the block
    graph still takes 14,810 (3,165 for the optimum), so it gets 20,000.
    The node counts are pinned as on the trees."""
    uni = random_unicyclic(60, random.Random(1))
    gp2, diss = _report(uni, "gp2"), _report(uni, "diss")
    assert (gp2[0], gp2[2]) == (diss[0], diss[2]) == (44, 94)
    block = random_block_graph(64, random.Random(1))
    gp2, diss = _report(block, "gp2"), _report(block, "diss", 20_000)
    assert (gp2[0], gp2[2]) == (52, 745)
    assert (diss[0], diss[2]) == (45, 14_810)


def test_diss_omega_and_alpha_reports_count_their_search_nodes():
    g = random_tree(30, random.Random(1))
    s = GraphSolver(g, lexmin=True)
    limits = SOLVER_CAP, NODE_LIMIT
    assert s.report("diss").expansions == _common_neighbour_max(g, True, *limits, True)[2] > 0
    assert s.report("omega").expansions == _independent_max(g, True, *limits, True)[2] > 0
    assert s.report("alpha").expansions == _independent_max(g, False, *limits, True)[2] > 0


def test_solver_lexmin_flag_reaches_omega_alpha_and_diss():
    """With lexmin off the three reports skip the lexmin pass: the same
    values from fewer nodes.  With it on the node counts are as before."""
    g = random_graph(40, random.Random(1), 0.3)
    counts = {}
    for lexmin in (False, True):
        s = GraphSolver(g, lexmin=lexmin)
        counts[lexmin] = {p: (s.value(p), s.report(p).expansions)
                          for p in ("omega", "alpha", "diss")}
    assert counts[False] == {"omega": (5, 35), "alpha": (11, 109), "diss": (14, 21_087)}
    assert counts[True] == {"omega": (5, 75), "alpha": (11, 245), "diss": (14, 37_623)}
