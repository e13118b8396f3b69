"""In-memory span tracer and the layer boundaries it instruments.

The traced run wraps public functions of ``monopos`` from the outside: each
wrapper opens a span (name, start, end, parent span, request id, counts)
around the original call.  Nothing inside the package changes.  A wrapper
is installed under every name a ``monopos`` module binds the function to,
because the harness and the families module import solver functions by
name.

A layer's self time is its span's duration minus the time its child spans
cover.  Counts come from values the package already returns: expansions
from ``interval_row``, nodes from the branch-and-bound search object, and
hull sets tested from the hull report.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

clock = time.perf_counter


class Tracer:
    """Spans kept in memory; ``write`` dumps them at the end of a run."""

    def __init__(self):
        # [name, start, end, parent, request, self_s, counts]
        self.spans: list[list] = []
        self._open: list[int] = []
        self._child_s: list[float] = []
        self.request = -1
        self.interval_expansions = 0

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, clock(), 0.0, parent, self.request, 0.0, None])
        self._open.append(sid)
        self._child_s.append(0.0)
        return sid

    def end(self, sid: int, counts: dict | None = None) -> None:
        t1 = clock()
        span = self.spans[sid]
        child = self._child_s.pop()
        self._open.pop()
        dur = t1 - span[1]
        span[2] = t1
        span[5] = dur - child
        span[6] = counts
        if self._child_s:
            self._child_s[-1] += dur

    def innermost(self, name: str) -> int:
        for sid in reversed(self._open):
            if self.spans[sid][0] == name:
                return sid
        return -1

    def totals(self, first: int = 0, last: int | None = None) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds per span name and summed counts, for spans[first:last]."""
        self_s: dict[str, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        for name, _, _, _, _, s, c in self.spans[first:last]:
            self_s[name] += s
            counts[f"{name}.calls"] += 1
            if c:
                for k, v in c.items():
                    counts[f"{name}.{k}"] += v
        return dict(self_s), dict(counts)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps({"columns": ["name", "start", "end", "parent", "request",
                                             "self_s", "counts"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# instrumentation
# ---------------------------------------------------------------------------


def _plain(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        sid = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(sid)
    return wrapper


def _interval_row(tracer: Tracer, fn):
    def wrapper(*args, **kwargs):
        sid = tracer.begin("paths.interval")
        exp = 0
        try:
            row, exp = fn(*args, **kwargs)
            return row, exp
        finally:
            tracer.interval_expansions += exp
            tracer.end(sid, {"rows": 1, "expansions": exp})
    return wrapper


def _triple_index(tracer: Tracer, fn):
    def wrapper(g, mode, *args, **kwargs):
        sid = tracer.begin(f"solvers.index.{mode.value}")
        try:
            return fn(g, mode, *args, **kwargs)
        finally:
            tracer.end(sid)
    return wrapper


def _search_run(tracer: Tracer, fn):
    # The first search inside a max_position_set call finds the optimum;
    # the searches after it are the lexmin witness pass.
    searched: set[int] = set()

    def wrapper(self, *args, **kwargs):
        owner = tracer.innermost("solvers.position")
        name = "solvers.lexmin" if owner >= 0 and owner in searched else "solvers.search"
        searched.add(owner)
        before = self.nodes
        sid = tracer.begin(name)
        try:
            return fn(self, *args, **kwargs)
        finally:
            tracer.end(sid, {"nodes": self.nodes - before})
    return wrapper


def _hull(tracer: Tracer, fn):
    # hull_number reports expansions = interval expansions it caused + sets
    # tested, so the sets come out as the difference.
    def wrapper(*args, **kwargs):
        before = tracer.interval_expansions
        sid = tracer.begin("solvers.hull")
        counts = None
        try:
            rep = fn(*args, **kwargs)
            counts = {"sets_tested": rep.expansions - (tracer.interval_expansions - before)}
            return rep
        finally:
            tracer.end(sid, counts)
    return wrapper


#: (module, attribute, span name or wrapper factory) for every layer boundary.
BOUNDARIES = [
    ("monopos.graph6", "parse_graph6", "graph6.decode"),
    ("monopos.paths", "interval_row", _interval_row),
    ("monopos.paths", "longest_induced_path_length", "paths.longest"),
    ("monopos.paths", "induced_path_partition", "paths.partition"),
    ("monopos.paths", "simple_path_interval", "oracle.simple_path"),
    ("monopos.paths", "count_induced_paths_oracle", "oracle.simple_path"),
    ("monopos.invariants", "distance_matrix", "invariants.distance"),
    ("monopos.invariants", "clique_number", "invariants.clique"),
    ("monopos.invariants", "alpha_omega_number", "invariants.alphaomega"),
    ("monopos.invariants", "dissociation_number", "invariants.diss"),
    ("monopos.solvers", "build_triple_index", _triple_index),
    ("monopos.solvers", "max_position_set", "solvers.position"),
    ("monopos.solvers", "hull_number", _hull),
    ("monopos.solvers", "brute_force_position", "oracle.brute_force"),
    ("monopos.solvers", "hull_number_oracle", "oracle.hull"),
    ("monopos.reduction", "verify_reduction", "reduction.verify"),
]


def instrument(tracer: Tracer):
    """Install the wrappers; returns a function that removes them."""
    undo: list[tuple[object, str, object]] = []
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "monopos" or name.startswith("monopos."))]
    for modname, attr, how in BOUNDARIES:
        fn = getattr(sys.modules[modname], attr)
        wrapped = _plain(tracer, how, fn) if isinstance(how, str) else how(tracer, fn)
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is fn:
                    undo.append((m, key, val))
                    setattr(m, key, wrapped)
    search_cls = sys.modules["monopos.solvers"]._PositionSearch
    undo.append((search_cls, "run", search_cls.run))
    search_cls.run = _search_run(tracer, search_cls.run)

    def remove():
        for obj, key, val in reversed(undo):
            setattr(obj, key, val)
    return remove
