"""The benchmark under ``perfbench/`` reaches into the package by name: its
tracer wraps the functions in ``spans.BOUNDARIES`` and ``_PositionSearch.run``,
its gate calls ``build_triple_index``, ``is_position_set`` and
``monophonic_hull`` on every answer, and its corpus is built by the family
builders and checked against the family predictors.
These tests fail when a refactor breaks one of those hooks."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from monopos.bitset import iter_bits, mask_of
from monopos.errors import NodeLimitExceeded
from monopos.families import grid_graph, hypercube, petersen_graph
from monopos.graph import complete_graph, corona, cycle_graph
from monopos.graph6 import emit_graph6, parse_graph6
from monopos.invariants import _lexmin, alpha_omega_number, common_neighbour_witnesses, pair_table
from monopos.paths import (IntervalCache, convex_hull, induced_path_partition,
                           longest_induced_path_length, monophonic_hull)
from monopos.solvers import (PARAMETERS, GraphSolver, PathMode, TripleIndex, _PositionSearch,
                             build_triple_index, max_position_set)
from test_position_search import _invert_witnesses, _LabelSpaceSearch, _pair_table_twin

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_boundaries_resolve():
    spans = _load("spans")
    for modname, attr, _ in spans.BOUNDARIES:
        assert callable(getattr(importlib.import_module(modname), attr)), (modname, attr)
    assert callable(_PositionSearch.run)


def _traced_nodes(work) -> int:
    """Search nodes that the tracer's ``_PositionSearch.run`` wrapper counts
    while ``work()`` runs, whether it returns or raises."""
    spans = _load("spans")
    tracer = spans.Tracer()
    remove = spans.instrument(tracer)
    try:
        work()
    finally:
        remove()
    counts = tracer.totals()[1]
    return counts.get("solvers.search.nodes", 0) + counts.get("solvers.lexmin.nodes", 0)


def test_traced_search_nodes_equal_the_search_counters():
    g = petersen_graph()
    for name in ("gp", "imp"):
        reports = []
        nodes = _traced_nodes(lambda: reports.append(GraphSolver(g, lexmin=True).report(name)))
        assert nodes == reports[0].expansions > 0, name
    witness = common_neighbour_witnesses(g, include_adjacent=False)
    table = pair_table(witness)
    untraced = _PositionSearch(g.adj, table)
    assert _lexmin(untraced.pos, untraced.run, g.full()) == alpha_omega_number(g)
    assert _traced_nodes(lambda: alpha_omega_number(g)) == untraced.nodes > 0
    # a run that stops at its target, by _Found, against the twin's count;
    # the run's mask is in order space and the twin's in label space
    twin = _LabelSpaceSearch(g.adj, witness, _invert_witnesses(witness))
    search = _PositionSearch(g.adj, table)
    hits = []
    assert _traced_nodes(lambda: hits.append(search.run(0, g.full(), 3))) == search.nodes
    size, mask = hits[0]
    assert (size, mask_of(search.order[i] for i in iter_bits(mask))) == twin.run(0, g.full(), 3)
    assert size >= 3
    assert search.nodes == twin.nodes > 0


def test_traced_search_nodes_count_a_run_stopped_by_the_node_limit():
    idx = build_triple_index(petersen_graph(), PathMode.GEODESIC)
    total = max_position_set(idx).expansions

    def limited():
        with pytest.raises(NodeLimitExceeded):
            max_position_set(idx, node_limit=total - 1)
    assert _traced_nodes(limited) == total


def test_gate_call_shapes():
    """The gate passes its cache to ``build_triple_index`` and then reads hm's
    hull through it, so the index may leave no partial row in it."""
    g = cycle_graph(5)
    cache = IntervalCache(g)
    for mode in ("mono", "geo", "geo2"):
        assert isinstance(build_triple_index(g, PathMode.from_string(mode), cache), TripleIndex)
    assert monophonic_hull(g, mask_of([0, 2]), cache)[0] == g.full()
    g = corona(cycle_graph(5), complete_graph(1))  # a leaf at every cycle vertex
    cache = IntervalCache(g)
    build_triple_index(g, PathMode.MONOPHONIC, cache)
    assert cache.expansions == 0
    for m in (mask_of([0, 2]), mask_of([5, 7]), mask_of([6, 9]), mask_of([1, 7, 9])):
        assert monophonic_hull(g, m, cache)[0] == convex_hull(g, m), m


def test_gate_accepts_lexmin_answers_for_every_parameter(monkeypatch):
    """Every parameter on three small graphs, and mp and imp, with lexmin on
    and off, on two graphs whose mono index is lazy: a lazy answer that the
    gate's full index rejects fails here before the benchmark sees it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    gate = _load("gate")
    corpus = _load("corpus")
    cases = [(g, PARAMETERS, True) for g in (cycle_graph(6), petersen_graph(), grid_graph(3, 5))]
    for g in (hypercube(5), corpus.build_graph("gnp:34,12:seed=712217")):
        cases += [(g, ("mp", "imp"), True), (g, ("mp", "imp"), False)]
    checked = 0
    for g, names, lexmin in cases:
        solver = GraphSolver(g, lexmin=lexmin)
        fresh = gate._Fresh(g)
        for name in names:
            rep = solver.report(name)
            assert gate.witness_ok(fresh, name, rep.value, rep.witness), (g.n, name, lexmin)
            checked += 1
        if g.n > 16:
            assert solver.mono_index().lazy is not None
    assert checked == 3 * len(PARAMETERS) + 8


def test_corpus_graphs_and_closed_forms_reproduce():
    corpus = _load("corpus")
    compared = 0
    for workload in ("mono-rows", "geo-search", "suite-small"):
        doc = json.loads((corpus.CORPUS / f"{workload}.json").read_text())
        lines = (corpus.CORPUS / f"{workload}.g6").read_text().splitlines()
        expected = json.loads((corpus.CORPUS / f"{workload}.expected.json").read_text())["values"]
        for req, line, values in zip(doc["requests"], lines, expected, strict=True):
            g = corpus.build_graph(req["spec"])
            assert emit_graph6(g) == line, req["spec"]
            for name, want in corpus.closed_forms(req["spec"], g).items():
                if name in values:
                    assert values[name] == want, (req["spec"], name)
                    compared += 1
    assert compared > 0


def test_pair_table_equals_its_twin_on_the_corpus_systems():
    """The tables that ``mono-rows`` and ``geo-search`` requests build: for
    every graph of the two workloads, the solver's mono index (lazy where
    its rows stop), its geo index and its geo2 index."""
    corpus = _load("corpus")
    checked = 0
    for workload in ("mono-rows", "geo-search"):
        for line in (corpus.CORPUS / f"{workload}.g6").read_text().splitlines():
            solver = GraphSolver(parse_graph6(line))
            for idx in (solver.mono_index(), solver.triple_index(PathMode.GEODESIC),
                        solver.triple_index(PathMode.GEODESIC_LEN2)):
                assert idx.table() == _pair_table_twin(idx.witness), (line, idx.mode)
                checked += 1
    assert checked == 3 * (14 + 15)


def test_suite_small_path_invariants_reproduce():
    """rho and L of every suite-small graph, up to the partition cap of 16
    vertices: a fast stand-in for the benchmark gate's comparison of the
    same values."""
    corpus = _load("corpus")
    lines = (corpus.CORPUS / "suite-small.g6").read_text().splitlines()
    expected = json.loads((corpus.CORPUS / "suite-small.expected.json").read_text())["values"]
    checked = 0
    for line, values in zip(lines, expected, strict=True):
        g = parse_graph6(line)
        assert induced_path_partition(g)[0] == values["rho"], line
        assert longest_induced_path_length(g) == values["L"], line
        checked += 1
    assert checked == 40
