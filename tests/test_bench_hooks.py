"""The benchmark under ``perfbench/`` reaches into the package by name: its
tracer wraps the functions in ``spans.BOUNDARIES`` and ``_PositionSearch.run``,
and its gate calls ``build_triple_index`` and ``monophonic_hull``.  These
tests fail when a refactor breaks one of those hooks."""

import importlib
import importlib.util
from pathlib import Path

from monopos.bitset import mask_of
from monopos.graph import cycle_graph
from monopos.paths import IntervalCache, monophonic_hull
from monopos.solvers import PathMode, TripleIndex, _PositionSearch, build_triple_index

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_boundaries_resolve():
    spans = _load_spans()
    for modname, attr, _ in spans.BOUNDARIES:
        assert callable(getattr(importlib.import_module(modname), attr)), (modname, attr)
    assert callable(_PositionSearch.run)


def test_gate_call_shapes():
    g = cycle_graph(5)
    cache = IntervalCache(g)
    for mode in ("mono", "geo", "geo2"):
        assert isinstance(build_triple_index(g, PathMode.from_string(mode), cache), TripleIndex)
    assert monophonic_hull(g, mask_of([0, 2]), cache)[0] == g.full()
