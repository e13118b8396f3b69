"""Verification harness: one named check per exact result the toolkit
implements, each run over a generated corpus against the exact solvers and
brute-force oracles.

Checks are data: an id, a corpus recipe and an assertion.  Most checks are
samplers around one of two runners: ``formula`` compares a predictor's
closed forms with the exact solvers, and ``relation`` evaluates rows of
:data:`BOUNDS`, the paper's bounds and characterizations, one table of
``row(solver) -> bool``.  A failing check always carries reproducible
witnesses (graph6 string, parameters, expected and actual values).
Failures are data, not exceptions; a check only raises when the toolkit
itself is broken.

Determinism: every check derives its RNG from (check id, base seed), so a
run is reproducible given the seed list regardless of selection order or
worker count.
"""

from __future__ import annotations

import json
import random
import time
import zlib
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from typing import Callable

from . import __version__
from .bitset import bit, mask_of, to_tuple
from .errors import InputError, LimitError, require_positive
from .graph import (Graph, add_pendant, complement, complete_graph, complete_multipartite,
                    corona, cycle_graph, disjoint_union, join, path_graph)
from .graph6 import emit_graph6, parse_graph6
from .invariants import (has_triangle, is_distance_hereditary, leaves, simplicial_vertices,
                         split_partition, unions_of_cliques)
from .paths import _chordless_simple_paths, induced_path_partition, interval_row
from .reduction import reduce_clique_to_mp, verify_reduction
from .solvers import (POSITION_PARAMS, GraphSolver, PathMode, brute_force_position,
                      build_triple_index, hull_number_oracle, is_position_set,
                      max_position_set)
from . import families as fam


@dataclass
class CheckOutcome:
    check_id: str
    status: str
    instances: int
    failures: list[dict]
    notes: dict
    seconds: float

    def stable_dict(self) -> dict:
        return {
            "id": self.check_id,
            "status": self.status,
            "instances": self.instances,
            "failures": self.failures,
            "notes": self.notes,
        }


@dataclass
class RunReport:
    version: str
    seeds: tuple[int, ...]
    profile: str
    outcomes: list[CheckOutcome]
    wall_seconds: float

    @property
    def passed(self) -> bool:
        return all(o.status == "pass" for o in self.outcomes)

    def outcome(self, check_id: str) -> CheckOutcome:
        for o in self.outcomes:
            if o.check_id == check_id:
                return o
        raise InputError(f"no outcome for check {check_id!r}")

    def stable_dict(self) -> dict:
        return {
            "version": self.version,
            "seeds": list(self.seeds),
            "profile": self.profile,
            "totals": {
                "checks": len(self.outcomes),
                "pass": sum(o.status == "pass" for o in self.outcomes),
                "fail": sum(o.status == "fail" for o in self.outcomes),
                "skipped": sum(o.status == "skipped" for o in self.outcomes),
            },
            "checks": [o.stable_dict() for o in sorted(self.outcomes, key=lambda o: o.check_id)],
        }

    def to_json(self, stable: bool = True, indent: int | None = None) -> str:
        doc = self.stable_dict()
        if not stable:
            doc = dict(doc)
            doc["wall_seconds"] = round(self.wall_seconds, 3)
            doc["check_seconds"] = {o.check_id: round(o.seconds, 3) for o in self.outcomes}
        return json.dumps(doc, sort_keys=True, indent=indent)


_REGISTRY: dict[str, tuple[str, object]] = {}


def check(check_id: str, description: str):
    def wrap(fn):
        _REGISTRY[check_id] = (description, fn)
        return fn

    return wrap


def formula(check_id: str, description: str, predict, notes=lambda solved: {}):
    """Register a closed-form check around its sampler.

    ``sample(rng, scale)`` lists ``(g, args)`` cases.  Every value of
    ``predict(g, *args)`` is compared with the exact solver on ``g``, a
    ``<p>_complement`` value with ``p`` on the complement of ``g``.  A case
    fails where the predictor raises :class:`InputError` or lists no value.
    ``notes(solved)`` makes the check's notes from ``(args, got)`` per case,
    in case order, where ``got`` maps each predicted parameter to its solved
    value.
    """
    def wrap(sample):
        def run(rng: random.Random, scale: float):
            cases = sample(rng, scale)
            failures: list[dict] = []
            solved = []
            for g, args in cases:
                try:
                    predictions, reason = predict(g, *args), "no closed form applies"
                except InputError as exc:
                    predictions, reason = [], str(exc)
                if not predictions:
                    _fail(failures, g, args=_shown(args), reason=reason)
                solvers, got = {}, {}
                for pv in predictions:
                    name = pv.parameter.removesuffix("_complement")
                    co = name != pv.parameter
                    if co not in solvers:
                        solvers[co] = GraphSolver(complement(g) if co else g)
                    got[pv.parameter] = solvers[co].value(name)
                    if got[pv.parameter] != pv.value:
                        _fail(failures, g, args=_shown(args), parameter=pv.parameter,
                              got=got[pv.parameter], want=pv.value)
                solved.append((args, got))
            return len(cases), failures, notes(solved)

        check(check_id, description)(run)
        return sample

    return wrap


def relation(check_id: str, description: str, notes=None):
    """Register a check of :data:`BOUNDS` rows around its sampler.

    ``sample(rng, scale)`` lists ``(g, rows)`` cases, ``rows`` naming
    :data:`BOUNDS` labels.  Each case gets one :class:`GraphSolver`, and every
    row that reads false fails the case with the values the rows solved.
    ``notes(solved)``, if given, makes the check's notes from ``(g, rows,
    values)`` per case, in case order.  No solver outlives its case, and
    without ``notes`` no values do either.
    """
    def wrap(sample):
        def run(rng: random.Random, scale: float):
            cases = sample(rng, scale)
            failures: list[dict] = []
            solved = []
            for g, rows in cases:
                s = GraphSolver(g)
                false = [label for label in rows if not BOUNDS[label](s)]
                for label in false:
                    _fail(failures, g, relation=label, values=s.values())
                if notes:
                    solved.append((g, rows, s.values()))
            return len(cases), failures, notes(solved) if notes else {}

        check(check_id, description)(run)
        return sample

    return wrap


def available_checks() -> list[tuple[str, str]]:
    return [(cid, desc) for cid, (desc, _) in _REGISTRY.items()]


def _count(scale: float, base: int, floor: int = 3) -> int:
    return max(floor, int(round(base * scale)))


def _fail(failures: list[dict], g: Graph, **ctx):
    failures.append({**ctx, "graph6": emit_graph6(g)})


def _shown(args: tuple) -> list:
    """A case's predictor arguments as report data: graphs by graph6 string."""
    return [emit_graph6(a) if isinstance(a, Graph) else a for a in args]


def _case(text: str, *pair: int) -> tuple[Graph, tuple]:
    """A realization case: the graph of the spec ``text``, with arguments
    ``(*pair, text)`` for :func:`_realized`."""
    return fam.build(fam.parse_family_spec(text)), (*pair, text)


def _realized(first: str, second: str):
    """Predicts a realization case ``(a, b, text)``: ``first = a`` and
    ``second = b`` by the table, and both by the closed forms ``monopos
    family`` prints for ``text``.  A case ``(text,)`` has no table pair."""
    names = (first, second)

    def predict(g: Graph, *args) -> list[fam.PredictedValue]:
        *pair, text = args
        table = [fam.PredictedValue(p, v, "realization-table", text) for p, v in zip(names, pair)]
        return table + [pv for pv in fam.predict_for_spec(fam.parse_family_spec(text), g)
                        if pv.parameter in names]
    return predict


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------


def _random_connected(rng: random.Random, count: int, nmin: int, nmax: int) -> list[Graph]:
    return [fam.random_connected_graph(rng.randint(nmin, nmax), rng) for _ in range(count)]


def _family_instances_small(max_n: int) -> list[Graph]:
    """One instance of each deterministic family with order <= max_n."""
    specs = ["path:2", "path:5", f"path:{max_n}", "cycle:3", "cycle:4", "cycle:5", "cycle:6",
             "complete:2", "complete:4", f"complete:{max_n}", "star:3", "star:5",
             "complete_multipartite:3,2,2", "complete_multipartite:2,2", "caterpillar:5",
             "grid:2,3", "grid:3,3", "hypercube:3", "half_wheel:4", "wheel_pendant_W:3",
             "R_graph:2,2", "P_graph:1,2", "G_abl:2,3,2"]
    out = []
    for text in specs:
        g = fam.build(fam.parse_family_spec(text))
        if g.n <= max_n:
            out.append(g)
    return out


def _mixed_corpus(rng: random.Random, scale: float) -> list[Graph]:
    graphs = _family_instances_small(12)
    graphs += _random_connected(rng, _count(scale, 30), 2, 10)
    graphs += [fam.random_tree(rng.randint(2, 12), rng) for _ in range(_count(scale, 10))]
    graphs += [fam.random_unicyclic(rng.randint(4, 12), rng) for _ in range(_count(scale, 10))]
    graphs += [fam.random_block_graph(rng.randint(2, 12), rng) for _ in range(_count(scale, 10))]
    return graphs


# ---------------------------------------------------------------------------
# format and oracle agreement
# ---------------------------------------------------------------------------


@check("graph6-roundtrip", "graph6 encoding round-trips bit-exactly on a spanning corpus")
def _check_graph6(rng: random.Random, scale: float):
    failures: list[dict] = []
    graphs = _mixed_corpus(rng, scale)
    for text in ("petersen", "heawood", "mcgee", "half_wheel:8", "half_wheel_pendant:8,3",
                 "wheel_pendant_W:6", "R_graph:3,4", "P_graph:2,4", "G_abl:3,6,3",
                 "hypercube:4", "grid:4,4", "corona_of:(cycle:4),(complete:2)",
                 "join_of:(cycle:5),(path:3)"):
        graphs.append(fam.build(fam.parse_family_spec(text)))
    for _ in range(_count(scale, 10)):
        graphs.append(fam.random_split_graph(rng.randint(2, 14), rng))
        graphs.append(fam.random_bipartite_graph(rng.randint(1, 6), rng.randint(1, 6), rng))
        graphs.append(fam.random_distance_hereditary(rng.randint(1, 12), rng))
    graphs.append(fam.random_cubic_graph(10, rng))
    graphs.append(fam.random_tree(70, rng))
    graphs.append(fam.random_connected_graph(65, rng, p=0.1))
    for g in graphs:
        token = emit_graph6(g)
        back = parse_graph6(token)
        if back != g:
            _fail(failures, g, reason="round trip changed the graph", token=token)
    return len(graphs), failures, {}


@check("interval-oracle-agreement",
       "pruned induced-path intervals equal the simple-path filter oracle")
def _check_intervals(rng: random.Random, scale: float):
    """One listing per source of the chordless paths to every other vertex:
    for each pair, their union is the interval, its interior the mono
    witnesses that the position search reads, and the interiors of the
    shortest ones the geo (at distance 2, geo2) witnesses."""
    failures: list[dict] = []
    graphs = _random_connected(rng, _count(scale, 110), 2, 8)
    graphs += _random_connected(rng, _count(scale, 20), 9, 9)
    graphs += [cycle_graph(5), cycle_graph(6), path_graph(7), complete_graph(5)]
    for g in graphs:
        rows = [interval_row(g, u)[0] for u in range(g.n)]
        index = {mode: build_triple_index(g, mode).witness for mode in PathMode}
        for u in range(g.n):
            listed = _chordless_simple_paths(g, u)
            for v in range(u + 1, g.n):
                if rows[u][v] != rows[v][u]:
                    _fail(failures, g, reason="interval asymmetry", pair=[u, v])
                paths = listed[v]
                shortest = min(m.bit_count() for m in paths)
                want = inner = 0
                for m in paths:
                    want |= m
                    if m.bit_count() == shortest:
                        inner |= m & ~(bit(u) | bit(v))
                got = rows[u][v] or (bit(u) | bit(v))
                if got != want:
                    _fail(failures, g, reason="interval differs from oracle", pair=[u, v],
                          got=to_tuple(got), want=to_tuple(want))
                for mode, mode_want in ((PathMode.MONOPHONIC, want & ~(bit(u) | bit(v))),
                                        (PathMode.GEODESIC, inner),
                                        (PathMode.GEODESIC_LEN2, inner if shortest == 3 else 0)):
                    if index[mode][u][v] != mode_want:
                        _fail(failures, g, reason="witnesses differ from oracle",
                              mode=mode.value, pair=[u, v],
                              got=to_tuple(index[mode][u][v]), want=to_tuple(mode_want))
    return len(graphs), failures, {}


@check("solver-oracle-agreement",
       "branch and bound equals subset enumeration for mp, gp, gp2, imp, igp")
def _check_solver_oracle(rng: random.Random, scale: float):
    failures: list[dict] = []
    graphs = _random_connected(rng, _count(scale, 510), 2, 9)
    graphs += [g for g in _family_instances_small(9)]
    graphs += [fam.random_split_graph(rng.randint(3, 9), rng) for _ in range(_count(scale, 15))]
    graphs += [fam.random_unicyclic(rng.randint(4, 9), rng) for _ in range(_count(scale, 15))]
    for g in graphs:
        solver = GraphSolver(g, lexmin=True)
        for name, (mode, independent) in POSITION_PARAMS.items():
            want = brute_force_position(g, mode, independent)
            got = solver.report(name)
            if got.value != want.value or got.witness != want.witness:
                _fail(failures, g, parameter=name, got=got.value, want=want.value,
                      got_witness=list(got.witness), want_witness=list(want.witness))
    return len(graphs), failures, {}


@relation("position-chains", "parameter chains and the full-set characterization")
def _sample_chains(rng: random.Random, scale: float):
    graphs = _mixed_corpus(rng, scale)
    # disconnected inputs exercise the cross-component interval convention
    for _ in range(_count(scale, 12)):
        a = fam.random_graph(rng.randint(1, 5), rng)
        graphs.append(disjoint_union(a, fam.random_graph(rng.randint(1, 5), rng)))
    graphs.append(complement(complete_multipartite([3, 4])))
    rows = ("imp <= mp", "mp <= gp", "imp <= igp", "igp <= gp", "gp <= gp2", "diss <= gp2",
            "2 <= mp <= n", "mp == n iff complete")
    return [(g, rows) for g in graphs]


# ---------------------------------------------------------------------------
# distance-hereditary, block, multipartite
# ---------------------------------------------------------------------------


def _dh_converse(_solved) -> dict:
    """C5 with a leaf on every vertex: mp = gp, yet not distance-hereditary."""
    g = corona(cycle_graph(5), complete_graph(1))
    s = GraphSolver(g)
    return {"converse_counterexample": {"graph6": emit_graph6(g), "mp": s.value("mp"),
            "gp": s.value("gp"), "distance_hereditary": is_distance_hereditary(g)}}


@relation("dh-mp-equals-gp", "distance-hereditary graphs have equal mp and gp",
          notes=_dh_converse)
def _sample_dh(rng: random.Random, scale: float):
    return [(fam.random_distance_hereditary(rng.randint(2, 12), rng),
             ("mp = gp on distance-hereditary graphs",)) for _ in range(_count(scale, 200))]


@formula("block-graph-simplicial", "block graphs: mp, gp and hm equal the simplicial count",
         fam.GRAPH_FORMS["block"])
def _sample_block(rng: random.Random, scale: float):
    graphs = [fam.random_block_graph(rng.randint(2, 12), rng) for _ in range(_count(scale, 90))]
    graphs += [fam.random_tree(rng.randint(2, 12), rng) for _ in range(_count(scale, 40))]
    return [(g, ()) for g in graphs + [fam.star_graph(5), complete_graph(6), path_graph(8)]]


@formula("multipartite-formula", "complete multipartite: mp and gp equal max(part, parts)",
         fam.FAMILIES["complete_multipartite"].predict)
def _sample_multipartite(rng: random.Random, scale: float):
    cases = []
    for _ in range(_count(scale, 120)):
        parts: list[int] = []
        while not 2 <= sum(parts) <= 14:  # the part count is drawn before the parts
            parts = sorted((rng.randint(1, 5) for _ in range(rng.randint(1, 5))), reverse=True)
        cases.append((complete_multipartite(parts), tuple(parts)))
    return cases


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def _complete(g: Graph) -> bool:
    return g.edge_count() == g.n * (g.n - 1) // 2


def _is_order_minus_one_shape(g: Graph) -> bool:
    """Recognize the two shapes with mp = n - 1: a dominating vertex over a
    disjoint union of at least two cliques, or a clique missing 1..n-2
    edges at a single vertex."""
    n = g.n
    if _complete(g):
        return False
    for u in range(n):
        rest = g.full() & ~bit(u)
        if g.adj[u] == rest:
            if unions_of_cliques(g, rest):
                return True
        missing_at_u = (n - 1) - g.degree(u)
        if g.is_clique_mask(rest) and 1 <= missing_at_u <= n - 2 and g.degree(u) >= 1:
            return True
    return False


def _cubic(g: Graph) -> bool:
    """The class of the cubic bound: connected, 3-regular, order at least 7."""
    return g.n >= 7 and g.is_connected() and all(g.degree(v) == 3 for v in range(g.n))


def _triangle_free(g: Graph) -> bool:
    """The class of the alpha bound: connected, triangle-free, order at least 3."""
    return g.n >= 3 and g.is_connected() and not has_triangle(g)


def _in_position(s: GraphSolver, witness) -> bool:
    return is_position_set(s.triple_index(PathMode.MONOPHONIC), mask_of(witness))[0]


def _path_partition(s: GraphSolver) -> bool:
    rho, parts = induced_path_partition(s.g)
    covered = [v for part in parts for v in part]
    return (mask_of(covered) == s.g.full() and len(covered) == s.g.n and len(parts) == rho
            and s.value("mp") <= 2 * rho)


def _cut_free_optimum(s: GraphSolver) -> bool:
    allowed = s.g.full() & ~mask_of(s.report("cuts").witness)
    idx = s.triple_index(PathMode.MONOPHONIC)
    return max_position_set(idx, allowed=allowed, lexmin=False).value == s.value("mp")


def _optima_are_clique_unions(s: GraphSolver) -> bool:
    """Every maximum position set of a connected graph induces disjoint
    cliques, and when there are two or more, any two vertices of one clique
    share a neighbour outside the set.  Walks every vertex subset."""
    g, best = s.g, s.value("mp")
    if not g.is_connected():
        return True
    idx = s.triple_index(PathMode.MONOPHONIC)
    for m in range(1 << g.n):
        if m.bit_count() != best or not is_position_set(idx, m)[0]:
            continue
        if not unions_of_cliques(g, m):
            return False
        comps, rest = [], m
        while rest:
            comps.append(g.component_of((rest & -rest).bit_length() - 1, within=m))
            rest &= ~comps[-1]
        if len(comps) >= 2 and any(not g.adj[a] & g.adj[b] & ~m for comp in comps
                                   for a, b in combinations(to_tuple(comp), 2)):
            return False
    return True


def _hall(s: GraphSolver) -> bool:
    sp = split_partition(s.g)
    return sp is None or (s.value("mp") == max(s.value("omega"), s.value("alpha"))) == (
        fam.hall_equality_condition(s.g, sp))


#: The paper's bounds and characterizations, by label.  A row reads the graph
#: and its parameters through one :class:`GraphSolver` and is true outside
#: the class it is stated for, so every row runs on every graph.
BOUNDS: dict[str, Callable[[GraphSolver], bool]] = {
    "imp <= mp": lambda s: s.value("imp") <= s.value("mp"),
    "mp <= gp": lambda s: s.value("mp") <= s.value("gp"),
    "imp <= igp": lambda s: s.value("imp") <= s.value("igp"),
    "igp <= gp": lambda s: s.value("igp") <= s.value("gp"),
    "gp <= gp2": lambda s: s.value("gp") <= s.value("gp2"),
    "diss <= gp2": lambda s: s.value("diss") <= s.value("gp2"),
    "2 <= mp <= n": lambda s: s.g.n < 2 or 2 <= s.value("mp") <= s.g.n,
    "mp = gp on distance-hereditary graphs": lambda s: not s.g.is_connected() or (
        not is_distance_hereditary(s.g) or s.value("mp") == s.value("gp")),
    "mp == n iff complete": lambda s: not s.g.is_connected() or (
        s.value("mp") == s.g.n) == _complete(s.g),
    "mp <= n - L + 1": lambda s: s.value("mp") <= s.g.n - s.value("L") + 1,
    "mp = n - L + 1 on cliques and paths": lambda s: s.g.n < 2 or not (
        _complete(s.g) or s.value("L") == s.g.n - 1) or s.value("mp") == s.g.n - s.value("L") + 1,
    "mp = n - 1 iff one of the two shapes": lambda s: not s.g.is_connected() or (
        s.value("mp") == s.g.n - 1) == _is_order_minus_one_shape(s.g),
    "mp <= 2 rho over a partition into rho induced paths": _path_partition,
    "3 mp <= 2 (n - 1) on cubic graphs": lambda s: not _cubic(s.g) or (
        3 * s.value("mp") <= 2 * (s.g.n - 1)),
    "mp <= n - cuts": lambda s: s.value("mp") <= s.g.n - s.value("cuts"),
    "some maximum position set avoids the cut vertices": _cut_free_optimum,
    "mp >= simplicial": lambda s: s.value("mp") >= s.value("simplicial"),
    "maximum position sets are unions of cliques": _optima_are_clique_unions,
    "mp <= alpha on triangle-free graphs": lambda s: not _triangle_free(s.g) or (
        s.value("mp") <= s.value("alpha")),
    "mp = alpha on triangle-free graphs with L <= 3": lambda s: not _triangle_free(s.g) or (
        s.value("L") > 3 or s.value("mp") == s.value("alpha")),
    "mp = phi on split graphs": lambda s: split_partition(s.g) is None or (
        s.value("mp") == s.value("phi")),
    "phi's witness is a position set of phi vertices": lambda s: split_partition(s.g) is None or (
        len(s.report("phi").witness) == s.value("phi")
        and _in_position(s, s.report("phi").witness)),
    "mp = max(omega, alpha) iff Hall's condition holds on split graphs": _hall,
    "hm = leaf count on trees": lambda s: s.g.n < 2 or not s.g.is_connected() or (
        s.g.edge_count() != s.g.n - 1 or s.value("hm") == leaves(s.g).bit_count()),
    "hm = the hull oracle's": lambda s: s.value("hm") == hull_number_oracle(s.g),
    "the hull witness holds every simplicial vertex": lambda s: not mask_of(
        s.report("simplicial").witness) & ~mask_of(s.report("hm").witness),
    "the hull witness is in position": lambda s: _in_position(s, s.report("hm").witness),
    "hm <= mp": lambda s: s.value("hm") <= s.value("mp"),
}


@relation("longest-path-bound", "mp is at most n - L + 1, sharp on cliques and paths")
def _sample_longest(rng: random.Random, scale: float):
    graphs = _mixed_corpus(rng, scale) + [fam.petersen_graph(), fam.heawood_graph()]
    graphs += [h for k in range(2, 9) for h in (complete_graph(k), path_graph(k + 1))]
    return [(g, ("mp <= n - L + 1", "mp = n - L + 1 on cliques and paths")) for g in graphs]


def _order_minus_one_shapes(rng: random.Random, count: int) -> list[Graph]:
    """``count`` pairs of the two shapes: a vertex over two or three disjoint
    cliques, and a clique of order k missing 1..k-2 edges at vertex 0."""
    graphs = []
    for _ in range(count):
        cliques = [complete_graph(rng.randint(1, 3)) for _ in range(rng.randint(2, 3))]
        graphs.append(join(complete_graph(1), reduce(disjoint_union, cliques)))
        k = rng.randint(4, 8)
        removed = rng.randint(1, k - 2)
        graphs.append(Graph.from_edges(k, [(u, v) for u in range(k) for v in range(u + 1, k)
                                           if u or v > removed]))
    return graphs


@relation("order-minus-one-structure", "graphs with mp = n - 1 are exactly the two known shapes")
def _sample_nminus1(rng: random.Random, scale: float):
    graphs = _random_connected(rng, _count(scale, 350), 3, 8)
    graphs += _order_minus_one_shapes(rng, _count(scale, 40))
    return [(g, ("mp = n - 1 iff one of the two shapes",)) for g in graphs]


@relation("path-partition-bound", "mp is at most twice the induced path partition number")
def _sample_rho(rng: random.Random, scale: float):
    graphs: list[Graph] = []
    for mask in range(1 << 10):
        n = 5
        edges = [(u, v) for i, (u, v) in enumerate(
            [(a, b) for a in range(n) for b in range(a + 1, n)]) if mask >> i & 1]
        g = Graph.from_edges(n, edges)
        if g.is_connected():
            graphs.append(g)
    graphs = graphs[:: max(1, round(1 / max(scale, 0.01)))]
    graphs += _random_connected(rng, _count(scale, 120), 6, 10)
    graphs += [fam.random_tree(rng.randint(11, 16), rng) for _ in range(_count(scale, 8))]
    graphs += [fam.random_unicyclic(rng.randint(11, 16), rng) for _ in range(_count(scale, 8))]
    return [(g, ("mp <= 2 rho over a partition into rho induced paths",)) for g in graphs]


@relation("cubic-bound", "connected cubic graphs of order at least 7: 3 mp <= 2 (n - 1)")
def _sample_cubic(rng: random.Random, scale: float):
    graphs = [fam.petersen_graph(), fam.heawood_graph(), fam.mcgee_graph()]
    graphs += [fam.random_cubic_graph(rng.choice((8, 10, 12, 14)), rng)
               for _ in range(_count(scale, 12))]
    return [(g, ("3 mp <= 2 (n - 1) on cubic graphs",)) for g in graphs]


@relation("cut-vertex-bound", "mp <= n - cuts, witnessed by a cut-free optimum")
def _sample_cut(rng: random.Random, scale: float):
    graphs = [fam.random_tree(rng.randint(3, 11), rng) for _ in range(_count(scale, 40))]
    graphs += [fam.random_unicyclic(rng.randint(4, 11), rng) for _ in range(_count(scale, 30))]
    graphs += [fam.random_block_graph(rng.randint(3, 11), rng) for _ in range(_count(scale, 30))]
    for _ in range(_count(scale, 40)):
        g = fam.random_connected_graph(rng.randint(3, 9), rng)
        graphs.append(add_pendant(g, rng.randrange(g.n)))
    return [(g, ("mp <= n - cuts", "some maximum position set avoids the cut vertices"))
            for g in graphs]


@relation("simplicial-lower-bound", "mp is at least the number of simplicial vertices")
def _sample_simplicial(rng: random.Random, scale: float):
    return [(g, ("mp >= simplicial",)) for g in _mixed_corpus(rng, scale)]


@check("pendant-step", "adding a pendant changes mp by 0 or 1; 0 at simplicial anchors")
def _check_pendant(rng: random.Random, scale: float):
    failures: list[dict] = []
    count = _count(scale, 320)
    simplicial_hits = 0
    for _ in range(count):
        g = fam.random_connected_graph(rng.randint(2, 9), rng)
        v = rng.randrange(g.n)
        extended = add_pendant(g, v)
        before = GraphSolver(g).value("mp")
        after = GraphSolver(extended).value("mp")
        if after - before not in (0, 1):
            _fail(failures, g, anchor=v, before=before, after=after)
        if simplicial_vertices(g) & bit(v):
            simplicial_hits += 1
            if after != before:
                _fail(failures, g, anchor=v, before=before, after=after,
                      reason="simplicial anchor changed mp")
    return count, failures, {"simplicial_anchor_samples": simplicial_hits}


@relation("mp-witness-clique-structure",
          "maximum position sets induce disjoint cliques with shared outside neighbors")
def _sample_structure(rng: random.Random, scale: float):
    return [(g, ("maximum position sets are unions of cliques",))
            for g in _random_connected(rng, _count(scale, 200), 2, 7)]


@relation("triangle-free-alpha",
          "triangle-free graphs: mp at most alpha, equal when induced paths are short",
          notes=lambda solved: {"short_path_equality_cases": sum(
              _triangle_free(g) and values["L"] <= 3 for g, _, values in solved)})
def _sample_triangle_free(rng: random.Random, scale: float):
    graphs: list[Graph] = [cycle_graph(k) for k in range(4, 9)]
    graphs += [fam.petersen_graph(), fam.heawood_graph(), fam.hypercube(3),
               complete_multipartite([3, 3]), complete_multipartite([4, 4]),
               fam.caterpillar_graph(6), fam.star_graph(4),
               corona(cycle_graph(4), complete_graph(1)),
               corona(cycle_graph(5), complete_graph(1))]
    for _ in range(_count(scale, 60)):
        na, nb = rng.randint(1, 6), rng.randint(1, 6)
        graphs.append(fam.random_bipartite_graph(na, nb, rng))
    for _ in range(_count(scale, 30)):
        graphs.append(fam.random_tree(rng.randint(3, 12), rng))
    return [(g, ("mp <= alpha on triangle-free graphs",
                 "mp = alpha on triangle-free graphs with L <= 3")) for g in graphs]


@check("cages-mp", "the three cubic cages have position numbers 3, 3, 2")
def _check_cages(rng: random.Random, scale: float):
    failures: list[dict] = []
    notes = {}
    for name in ("petersen", "heawood", "mcgee"):
        spec = fam.parse_family_spec(name)
        g = fam.build(spec)
        s = GraphSolver(g, lexmin=True)
        for pv in fam.predict_for_spec(spec, g):
            rep = s.report(pv.parameter)
            key = name if pv.parameter == "mp" else f"{name}_{pv.parameter}"
            notes[key] = {"value": rep.value, "witness": list(rep.witness)}
            if rep.value != pv.value:
                _fail(failures, g, cage=name, parameter=pv.parameter, got=rep.value,
                      want=pv.value)
    return len(notes), failures, notes


# ---------------------------------------------------------------------------
# family formulas
# ---------------------------------------------------------------------------


@formula("unicyclic-formula", "the case formula for unicyclic graphs matches the solver",
         fam.GRAPH_FORMS["unicyclic"])
def _sample_unicyclic(rng: random.Random, scale: float):
    graphs = [fam.random_unicyclic(rng.randint(4, 14), rng) for _ in range(_count(scale, 220))]
    return [(g, ()) for g in graphs + [cycle_graph(k) for k in (3, 4, 5, 8)]]


def _product(name: str):
    """Predicts ``name`` of a ``(kind, first, second)`` product from its factors alone."""
    rules = {"corona": fam.predict_corona, "join": fam.predict_join}
    return lambda _g, kind, first, second: rules[kind](first, second, (name,))


def _corona_case(rng: random.Random):
    base = fam.random_connected_graph(rng.randint(2, 4), rng)
    inner = fam.random_graph(rng.randint(1, 3), rng)
    return corona(base, inner), ("corona", base, inner)


def _join_case(rng: random.Random, most: int):
    g, h = (fam.random_graph(rng.randint(1, most), rng) for _ in range(2))
    return join(g, h), ("join", g, h)


@formula("corona-formula", "corona products scale mp by the base order", _product("mp"))
def _sample_corona(rng: random.Random, scale: float):
    return [_corona_case(rng) for _ in range(_count(scale, 100))]


@formula("join-formula", "joins: mp is the larger of the clique sum and the factor values",
         _product("mp"))
def _sample_join(rng: random.Random, scale: float):
    return [_join_case(rng, 7) for _ in range(_count(scale, 110))]


@formula("gp-join-corona-formula",
         "cited gp formulas for joins and coronas agree with the solver", _product("gp"))
def _sample_gp_products(rng: random.Random, scale: float):
    return [case for _ in range(_count(scale, 60))
            for case in (_join_case(rng, 6), _corona_case(rng))]


@formula("bipartite-complement-formula",
         "complements of connected bipartite graphs: mp is max(alpha, psi)",
         fam.GRAPH_FORMS["bipartite_complement"])
def _sample_bipartite_complement(rng: random.Random, scale: float):
    graphs = [fam.random_bipartite_graph(rng.randint(1, 7), rng.randint(1, 7), rng)
              for _ in range(_count(scale, 110))]
    graphs += [complete_multipartite([m, n]) for m in range(2, 5) for n in range(m, 6)]
    graphs += [fam.star_graph(4), cycle_graph(6), cycle_graph(8), fam.hypercube(3)]
    return [(g, ()) for g in graphs]


@formula("tree-complement-formula",
         "tree complements: order when the diameter is small, alpha otherwise",
         fam.GRAPH_FORMS["tree_complement"])
def _sample_tree_complement(rng: random.Random, scale: float):
    graphs = [fam.random_tree(rng.randint(3, 12), rng) for _ in range(_count(scale, 110))]
    graphs += [fam.star_graph(k) for k in range(2, 6)]
    return [(t, ()) for t in graphs + [path_graph(2 + k) for k in range(1, 6)]]


def _grid_conventions(solved) -> dict:
    notes: dict = {"order_convention_mismatches": [], "vertex_convention_mismatches": []}
    for (n, m), got in solved:
        want = fam.predict_grid_complement(n, m)[0].value
        if got["mp_complement"] != want:
            notes["vertex_convention_mismatches"].append([n, m])
        # the same formula read with path-length parameters names the
        # (n+1) x (m+1)-vertex grid; record how that convention fares
        if (n + 1) * (m + 1) <= 16:
            other = GraphSolver(complement(fam.grid_graph(n + 1, m + 1))).value("mp")
            if other != want:
                notes["order_convention_mismatches"].append(
                    {"n": n, "m": m, "formula": want, "actual": other})
    notes["conclusion"] = ("vertex-count convention fails" if notes["vertex_convention_mismatches"]
                           else "vertex-count convention matches everywhere")
    return notes


@formula("grid-complement-convention",
         "grid complements match the checkerboard formula under the vertex-count convention",
         lambda _g, n, m: fam.predict_grid_complement(n, m), notes=_grid_conventions)
def _sample_grid_complement(rng: random.Random, scale: float):
    return [(fam.grid_graph(n, m), (n, m)) for n in (2, 3, 4) for m in range(n, 9) if n * m <= 16]


@formula("hypercube-complement-formula", "hypercube complements: mp is half the order",
         lambda _g, k: fam.predict_hypercube_complement(k))
def _sample_hypercube_complement(rng: random.Random, scale: float):
    return [(fam.hypercube(k), (k,)) for k in (3, 4)]


@relation("split-phi-formula", "split graphs: mp equals the separated-subgraph maximum")
def _sample_split(rng: random.Random, scale: float):
    return [(fam.random_split_graph(rng.randint(3, 16), rng),
             ("mp = phi on split graphs", "phi's witness is a position set of phi vertices"))
            for _ in range(_count(scale, 220))]


@relation("hall-equality-condition",
          "mp equals max(omega, alpha) exactly when a side is saturated by a matching",
          notes=lambda solved: {"instances_with_divided_vertex": sum(
              split_partition(g).divided is not None for g, _, _ in solved)})
def _sample_hall(rng: random.Random, scale: float):
    return [(fam.random_split_graph(rng.randint(2, 16), rng),
             ("mp = max(omega, alpha) iff Hall's condition holds on split graphs",))
            for _ in range(_count(scale, 220))]


# ---------------------------------------------------------------------------
# realization tables
# ---------------------------------------------------------------------------


@formula("mp-gp-realization", "every pair 2 <= a <= b <= 8 is realized by a generated graph",
         _realized("mp", "gp"), notes=lambda solved: {"table": [
             {"a": a, "b": b, "spec": text, "got": [got["mp"], got["gp"]]}
             for (a, b, text), got in solved]})
def _sample_mp_gp_realization(rng: random.Random, scale: float):
    cases = []
    for a in range(2, 9):
        for b in range(a, 9):
            if a == b:
                spec = f"complete:{a}"
            elif a == 2 and b == 3:
                spec = "cycle:5"
            elif a == 2:
                spec = f"half_wheel:{b}"
            elif b == a + 1:
                spec = f"wheel_pendant_W:{a}"
            else:
                spec = f"half_wheel_pendant:{b},{a}"
            cases.append(_case(spec, a, b))
    return cases


def _igp_notes(solved) -> dict:
    built = [(fam.parse_family_spec(text), got) for (*pair, text), got in solved if not pair]
    return {"pairs": len(solved) - len(built),
            "leafless_apex_note": "P(0,s) is degenerate (independent position s+1 for "
                                  "s >= 3, a bare path at s = 2); the (a,2) pairs are "
                                  "realized by half-wheels, whose alternate-rim optimum "
                                  "is an independent set",
            "construction_values": [{"family": spec.family[0], "r": spec.params[0],
                                     "s": spec.params[1], "mp": got.get("mp"),
                                     "igp": got.get("igp")} for spec, got in built]}


@formula("igp-mp-realization", "igp/mp pairs from the leafed-clique and apexed constructions",
         _realized("igp", "mp"), notes=_igp_notes)
def _sample_igp_realization(rng: random.Random, scale: float):
    cases = [_case(f"complete:{b}", 1, b) for b in range(1, 9)]
    for a in range(2, 9):
        for b in range(2, 9):
            if a <= b:
                spec = f"R_graph:{a - 1},{b - a + 1}"
            elif b == 2:
                # the leafless apexed graphs degenerate here; the half-wheel
                # family realizes (a, 2) instead, since its alternate-rim
                # optimum is independent (C6 covers a = 3)
                spec = "cycle:6" if a == 3 else f"half_wheel:{a}"
            else:
                spec = f"P_graph:{b - 2},{a - b + 2}"
            cases.append(_case(spec, a, b))
    # the constructions' own value formulas, verified over their domain
    return cases + [_case(f"{family}:{r},{s}")
                    for family, s_range in (("R_graph", range(1, 5)), ("P_graph", range(2, 5)))
                    for r in range(0, 4) for s in s_range]


@formula("dissociation-gp2-values", "leafed cliques realize the dissociation/gp2 table",
         _realized("diss", "gp2"), notes=lambda solved: {
             "corrected_row": [{"a": a, "b": b - 1, "gp2": got["gp2"]}
                               for (a, b, _), got in solved if a == 2],
             "note": "for a = 2 the construction is a complete graph and gp2 is b+1, "
                     "not b; dissociation still equals a on every row"})
def _sample_diss_gp2(rng: random.Random, scale: float):
    # The claimed table reads diss = a and gp2 = b on the graph with a-2
    # leaves on a clique of order b-a+3.  The a = 2 row is the bare clique,
    # which has no geodesic of length two at all, so every vertex set is in
    # 2-position and gp2 is b+1 there, one above the claim.  The check pins
    # the corrected row and the table everywhere else.  diss <= gp2 needs no
    # check of its own: diss = a <= b <= the wanted gp2 on every row, so a
    # case with diss > gp2 already fails an equality.  The relation is
    # strict except where a = b >= 3, which has diss = gp2.
    return [_case(f"R_graph:{a - 2},{b - a + 2}", a, b if a >= 3 else b + 1)
            for a in range(2, 9) for b in range(a, 9)]


_TREE_HULL = ("hm = leaf count on trees",)


@relation("hull-invariants",
          "hull number: below mp, above the simplicial seed, leaf count on trees",
          notes=lambda solved: {"tree_instances": sum(rows == _TREE_HULL
                                                      for _, rows, _ in solved)})
def _sample_hull(rng: random.Random, scale: float):
    trees = [fam.random_tree(rng.randint(2, 12), rng) for _ in range(_count(scale, 110))]
    rows = ("hm = the hull oracle's", "the hull witness holds every simplicial vertex",
            "the hull witness is in position", "hm <= mp")
    return [(t, _TREE_HULL) for t in trees] + [
        (g, rows) for g in _random_connected(rng, _count(scale, 60), 2, 9)]


@formula("hull-realization", "clique-with-tail graphs realize (hull, mp) pairs up to order 14",
         _realized("hm", "mp"), notes=lambda solved: {
             "realized_pairs": [list(p) for p in sorted(
                 {(a, b) for (a, b, _), got in solved if (got["hm"], got["mp"]) == (a, b)})],
             "observation": "the construction realizes every 2 <= a <= b with order "
                            "b + length + 1, including pairs with a < b"})
def _sample_hull_realization(rng: random.Random, scale: float):
    return [_case(f"G_abl:{a},{b},{length}", a, b) for a in range(2, 9) for b in range(a, 9)
            for length in (1, 2) if b + length + 1 <= 14]


@check("clique-reduction", "the clique-to-position reduction is answer-preserving")
def _check_reduction(rng: random.Random, scale: float):
    failures: list[dict] = []
    sources = [fam.random_graph(rng.randint(2, 8), rng) for _ in range(_count(scale, 100))]
    sources += [complete_graph(3), cycle_graph(5), fam.petersen_graph()]
    instances = 0
    for g in sources:
        ks = range(1, g.n + 1) if g.n <= 8 else (2, 3)
        base = verify_reduction(reduce_clique_to_mp(g, 1))
        for k in ks:
            instances += 1
            inst = reduce_clique_to_mp(g, k)
            clique_yes = base.omega_source >= k
            position_yes = base.mp_product >= inst.k_prime
            if not base.identity_holds or clique_yes != position_yes:
                _fail(failures, g, k=k, omega=base.omega_source, mp_product=base.mp_product,
                      k_prime=inst.k_prime)
    return instances, failures, {"sources": len(sources)}


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

PROFILES = {"default": 1.0, "quick": 0.12}


def _seed_for(check_id: str, seed: int) -> int:
    return zlib.crc32(check_id.encode()) ^ (seed * 0x9E3779B1 & 0xFFFFFFFF)


def run_check(check_id: str, seed: int = 1, profile: str = "default") -> CheckOutcome:
    if check_id not in _REGISTRY:
        raise InputError(f"unknown check id {check_id!r}")
    if profile not in PROFILES:
        raise InputError(f"unknown profile {profile!r} (have {sorted(PROFILES)})")
    _, fn = _REGISTRY[check_id]
    scale = PROFILES[profile]
    t0 = time.perf_counter()
    rng = random.Random(_seed_for(check_id, seed))
    try:
        instances, failures, notes = fn(rng, scale)
        status = "pass" if not failures else "fail"
    except LimitError as exc:
        instances, failures, notes, status = 0, [], {"limit": str(exc)}, "skipped"
    seconds = time.perf_counter() - t0
    return CheckOutcome(check_id, status, instances, failures, notes, seconds)


def run_suite(selection: list[str] | None = None, seeds: tuple[int, ...] = (1,),
              profile: str = "default", jobs: int = 1) -> RunReport:
    """Run the selected checks (all by default, each named once) for each of
    one or more distinct seeds.

    Results merge deterministically by (check id, seed); with multiple
    seeds a check passes only if it passes under every seed.  ``jobs`` is
    the number of worker processes; 1 runs in this process.
    """
    require_positive(jobs=jobs)
    if not seeds or len(set(seeds)) < len(seeds):
        raise InputError(f"seeds must be one or more distinct integers, not {list(seeds)}")
    ids = list(_REGISTRY) if selection is None else list(selection)
    if len(set(ids)) < len(ids):
        raise InputError(f"check ids must be distinct, not {ids}")
    for cid in ids:
        if cid not in _REGISTRY:
            raise InputError(f"unknown check id {cid!r}")
    t0 = time.perf_counter()
    tasks = [(cid, seed) for cid in ids for seed in seeds]
    results: dict[tuple[str, int], CheckOutcome] = {}
    if jobs > 1:
        import concurrent.futures as cf

        with cf.ProcessPoolExecutor(max_workers=jobs) as pool:
            futs = {pool.submit(run_check, cid, seed, profile): (cid, seed)
                    for cid, seed in tasks}
            for fut in cf.as_completed(futs):
                results[futs[fut]] = fut.result()
    else:
        for cid, seed in tasks:
            results[(cid, seed)] = run_check(cid, seed, profile)
    outcomes = []
    for cid in ids:
        per_seed = [results[(cid, seed)] for seed in seeds]
        merged = CheckOutcome(
            check_id=cid,
            status=("skipped" if all(o.status == "skipped" for o in per_seed)
                    else "fail" if any(o.status == "fail" for o in per_seed) else "pass"),
            instances=sum(o.instances for o in per_seed),
            failures=[f for o in per_seed for f in o.failures],
            notes=per_seed[0].notes if len(per_seed) == 1 else {
                str(seed): o.notes for seed, o in zip(seeds, per_seed) if o.notes},
            seconds=sum(o.seconds for o in per_seed),
        )
        outcomes.append(merged)
    return RunReport(__version__, tuple(seeds), profile, outcomes,
                     time.perf_counter() - t0)
