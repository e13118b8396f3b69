"""Verification harness: one named check per exact result the toolkit
implements, each run over a generated corpus against the exact solvers and
brute-force oracles.

Checks are data: an id, a corpus recipe and an assertion.  A failing check
always carries reproducible witnesses (graph6 string, parameters, expected
and actual values).  Failures are data, not exceptions; a check only raises
when the toolkit itself is broken.

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

from . import __version__
from .bitset import bit, mask_of, to_tuple
from .errors import InputError, LimitError
from .graph import (Graph, add_pendant, complement, complete_graph, complete_multipartite,
                    corona, cycle_graph, disjoint_union, join, path_graph)
from .graph6 import emit_graph6, parse_graph6
from .invariants import (clique_number, cut_vertices,
                         dissociation_number, has_triangle, independence_number,
                         is_block_graph, is_distance_hereditary, leaves, phi_separated,
                         simplicial_vertices, split_partition)
from .paths import (induced_path_partition, interval_row,
                    longest_induced_path_length, simple_path_interval)
from .reduction import reduce_clique_to_mp, verify_reduction
from .solvers import (POSITION_PARAMS, GraphSolver, PathMode, SolverOptions,
                      brute_force_position, hull_number_oracle, is_position_set,
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


def available_checks() -> list[tuple[str, str]]:
    return [(cid, desc) for cid, (desc, _) in _REGISTRY.items()]


def _count(scale: float, base: int, floor: int = 3) -> int:
    return max(floor, int(round(base * scale)))


def _fail(failures: list[dict], g: Graph | None, **ctx):
    entry = dict(ctx)
    if g is not None:
        entry["graph6"] = emit_graph6(g)
    failures.append(entry)


def _predicted(predictions: list[fam.PredictedValue]) -> dict[str, int]:
    return {pv.parameter: pv.value for pv in predictions}


def _realization(text: str) -> tuple[Graph, dict[str, int]]:
    """A family instance and the closed forms ``monopos family`` prints for it."""
    spec = fam.parse_family_spec(text)
    return fam.generate(spec)[0], _predicted(fam.predict_realization(spec))


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
        g, _ = fam.generate(fam.parse_family_spec(text))
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
        graphs.append(fam.generate(fam.parse_family_spec(text))[0])
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
    failures: list[dict] = []
    graphs = _random_connected(rng, _count(scale, 110), 2, 8)
    graphs += _random_connected(rng, _count(scale, 20), 9, 9)
    graphs += [cycle_graph(5), cycle_graph(6), path_graph(7), complete_graph(5)]
    for g in graphs:
        rows = [interval_row(g, u)[0] for u in range(g.n)]
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if rows[u][v] != rows[v][u]:
                    _fail(failures, g, reason="interval asymmetry", pair=[u, v])
                got = rows[u][v] or (bit(u) | bit(v))
                want = simple_path_interval(g, u, v)
                if got != want:
                    _fail(failures, g, reason="interval differs from oracle", pair=[u, v],
                          got=to_tuple(got), want=to_tuple(want))
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


@check("position-chains", "parameter chains and the full-set characterization")
def _check_chains(rng: random.Random, scale: float):
    failures: list[dict] = []
    graphs = _mixed_corpus(rng, scale)
    # disconnected inputs exercise the cross-component interval convention
    for _ in range(_count(scale, 12)):
        a = fam.random_graph(rng.randint(1, 5), rng)
        b = fam.random_graph(rng.randint(1, 5), rng)
        graphs.append(disjoint_union(a, b))
    graphs.append(complement(complete_multipartite([3, 4])))
    for g in graphs:
        s = GraphSolver(g)
        values = {name: s.value(name) for name in ("mp", "gp", "gp2", "imp", "igp")}
        n = g.n
        checks = [
            ("imp <= mp", values["imp"] <= values["mp"]),
            ("mp <= gp", values["mp"] <= values["gp"]),
            ("imp <= igp", values["imp"] <= values["igp"]),
            ("igp <= gp", values["igp"] <= values["gp"]),
            ("gp <= gp2", values["gp"] <= values["gp2"]),
        ]
        if n >= 2:
            checks.append(("2 <= mp <= n", 2 <= values["mp"] <= n))
        complete = g.edge_count() == n * (n - 1) // 2
        if g.is_connected():
            checks.append(("mp == n iff complete", (values["mp"] == n) == complete))
        try:
            d, _ = dissociation_number(g)
            checks.append(("diss <= gp2", d <= values["gp2"]))
        except LimitError:
            pass
        for label, ok in checks:
            if not ok:
                _fail(failures, g, relation=label, values=values)
    return len(graphs), failures, {}


# ---------------------------------------------------------------------------
# distance-hereditary, block, multipartite
# ---------------------------------------------------------------------------


@check("dh-mp-equals-gp", "distance-hereditary graphs have equal mp and gp")
def _check_dh(rng: random.Random, scale: float):
    failures: list[dict] = []
    count = _count(scale, 200)
    for _ in range(count):
        g = fam.random_distance_hereditary(rng.randint(2, 12), rng)
        if not is_distance_hereditary(g):
            _fail(failures, g, reason="generator produced a non-recognized graph")
            continue
        s = GraphSolver(g)
        if s.value("mp") != s.value("gp"):
            _fail(failures, g, mp=s.value("mp"), gp=s.value("gp"))
    notes = {}
    g = corona(cycle_graph(5), complete_graph(1))
    s = GraphSolver(g)
    notes["converse_counterexample"] = {
        "graph6": emit_graph6(g),
        "mp": s.value("mp"),
        "gp": s.value("gp"),
        "distance_hereditary": is_distance_hereditary(g),
    }
    return count, failures, notes


@check("block-graph-simplicial", "block graphs: mp and gp equal the simplicial count")
def _check_block(rng: random.Random, scale: float):
    failures: list[dict] = []
    graphs = [fam.random_block_graph(rng.randint(2, 12), rng) for _ in range(_count(scale, 90))]
    graphs += [fam.random_tree(rng.randint(2, 12), rng) for _ in range(_count(scale, 40))]
    graphs += [fam.star_graph(5), complete_graph(6), path_graph(8)]
    for g in graphs:
        if not is_block_graph(g):
            _fail(failures, g, reason="corpus graph not a block graph")
            continue
        want = _predicted(fam.predict_block_graph(g))
        s = GraphSolver(g)
        if s.value("mp") != want["mp"] or s.value("gp") != want["gp"]:
            _fail(failures, g, mp=s.value("mp"), gp=s.value("gp"), simplicial=want["mp"])
    return len(graphs), failures, {}


@check("multipartite-formula", "complete multipartite: mp and gp equal max(part, parts)")
def _check_multipartite(rng: random.Random, scale: float):
    failures: list[dict] = []
    count = _count(scale, 120)
    for _ in range(count):
        t = rng.randint(1, 5)
        parts = sorted((rng.randint(1, 5) for _ in range(t)), reverse=True)
        while sum(parts) > 14 or sum(parts) < 2:
            t = rng.randint(1, 5)
            parts = sorted((rng.randint(1, 5) for _ in range(t)), reverse=True)
        g = complete_multipartite(parts)
        want = _predicted(fam.predict_multipartite(parts))
        s = GraphSolver(g)
        if s.value("mp") != want["mp"] or s.value("gp") != want["gp"]:
            _fail(failures, g, parts=parts, mp=s.value("mp"), gp=s.value("gp"), want=want)
    return count, failures, {}


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


@check("longest-path-bound", "mp is at most n - L + 1, sharp on cliques and paths")
def _check_longest(rng: random.Random, scale: float):
    failures: list[dict] = []
    graphs = _mixed_corpus(rng, scale)
    graphs += [fam.petersen_graph(), fam.heawood_graph()]
    for g in graphs:
        length = longest_induced_path_length(g)
        mp = GraphSolver(g).value("mp")
        if mp > g.n - length + 1:
            _fail(failures, g, mp=mp, longest=length)
    for k in range(2, 9):
        for g, kind in ((complete_graph(k), "clique"), (path_graph(k + 1), "path")):
            length = longest_induced_path_length(g)
            mp = GraphSolver(g).value("mp")
            if mp != g.n - length + 1:
                _fail(failures, g, kind=kind, mp=mp, longest=length, reason="bound not sharp")
    return len(graphs) + 14, failures, {}


def _is_order_minus_one_shape(g: Graph) -> bool:
    """Recognize the two shapes with mp = n - 1: a dominating vertex over a
    disjoint union of at least two cliques, or a clique missing 1..n-2
    edges at a single vertex."""
    from .invariants import unions_of_cliques

    n = g.n
    complete = g.edge_count() == n * (n - 1) // 2
    if complete:
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


@check("order-minus-one-structure", "graphs with mp = n - 1 are exactly the two known shapes")
def _check_nminus1(rng: random.Random, scale: float):
    failures: list[dict] = []
    instances = 0
    for _ in range(_count(scale, 350)):
        g = fam.random_connected_graph(rng.randint(3, 8), rng)
        instances += 1
        mp = GraphSolver(g).value("mp")
        if (mp == g.n - 1) != _is_order_minus_one_shape(g):
            _fail(failures, g, mp=mp, recognized=_is_order_minus_one_shape(g))
    for _ in range(_count(scale, 40)):
        cliques = [complete_graph(rng.randint(1, 3)) for _ in range(rng.randint(2, 3))]
        h = cliques[0]
        for extra in cliques[1:]:
            h = disjoint_union(h, extra)
        g = join(complete_graph(1), h)
        instances += 1
        mp = GraphSolver(g).value("mp")
        if mp != g.n - 1:
            _fail(failures, g, mp=mp, reason="dominated clique union missed n-1")
        k = rng.randint(4, 8)
        g = complete_graph(k)
        removed = rng.randint(1, k - 2)
        adj = list(g.adj)
        for v in range(1, removed + 1):
            adj[0] &= ~bit(v)
            adj[v] &= ~bit(0)
        g = Graph(k, tuple(adj))
        instances += 1
        mp = GraphSolver(g).value("mp")
        if mp != g.n - 1:
            _fail(failures, g, mp=mp, reason="edge-deleted clique missed n-1")
    return instances, failures, {}


@check("path-partition-bound", "mp is at most twice the induced path partition number")
def _check_rho(rng: random.Random, scale: float):
    failures: list[dict] = []
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
    for g in graphs:
        rho, parts = induced_path_partition(g)
        mp = GraphSolver(g).value("mp")
        if mp > 2 * rho:
            _fail(failures, g, mp=mp, rho=rho)
        covered = 0
        for part in parts:
            covered |= mask_of(part)
        if covered != g.full() or sum(map(len, parts)) != g.n or len(parts) != rho:
            _fail(failures, g, reason="parts are not rho disjoint sets covering V", parts=parts)
    return len(graphs), failures, {}


@check("cubic-bound", "connected cubic graphs of order at least 7: 3 mp <= 2 (n - 1)")
def _check_cubic(rng: random.Random, scale: float):
    failures: list[dict] = []
    graphs = [fam.petersen_graph(), fam.heawood_graph(), fam.mcgee_graph()]
    for _ in range(_count(scale, 12)):
        graphs.append(fam.random_cubic_graph(rng.choice((8, 10, 12, 14)), rng))
    for g in graphs:
        mp = GraphSolver(g).value("mp")
        if 3 * mp > 2 * (g.n - 1):
            _fail(failures, g, mp=mp)
    return len(graphs), failures, {}


@check("cut-vertex-bound", "mp <= n - cuts, witnessed by a cut-free optimum")
def _check_cut(rng: random.Random, scale: float):
    failures: list[dict] = []
    graphs = [fam.random_tree(rng.randint(3, 11), rng) for _ in range(_count(scale, 40))]
    graphs += [fam.random_unicyclic(rng.randint(4, 11), rng) for _ in range(_count(scale, 30))]
    graphs += [fam.random_block_graph(rng.randint(3, 11), rng) for _ in range(_count(scale, 30))]
    for _ in range(_count(scale, 40)):
        g = fam.random_connected_graph(rng.randint(3, 9), rng)
        graphs.append(add_pendant(g, rng.randrange(g.n)))
    for g in graphs:
        cuts = cut_vertices(g)
        s = GraphSolver(g)
        mp = s.value("mp")
        if mp > g.n - cuts.bit_count():
            _fail(failures, g, mp=mp, cuts=to_tuple(cuts))
            continue
        restricted = max_position_set(
            s.triple_index(PathMode.MONOPHONIC),
            SolverOptions(allowed=g.full() & ~cuts, lexmin_witness=False))
        if restricted.value != mp:
            _fail(failures, g, mp=mp, cut_free=restricted.value,
                  reason="no cut-free maximum witness")
    return len(graphs), failures, {}


@check("simplicial-lower-bound", "mp is at least the number of simplicial vertices")
def _check_simplicial(rng: random.Random, scale: float):
    failures: list[dict] = []
    graphs = _mixed_corpus(rng, scale)
    for g in graphs:
        mp = GraphSolver(g).value("mp")
        if mp < simplicial_vertices(g).bit_count():
            _fail(failures, g, mp=mp, simplicial=simplicial_vertices(g).bit_count())
    return len(graphs), failures, {}


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


@check("mp-witness-clique-structure",
       "maximum position sets induce disjoint cliques with shared outside neighbors")
def _check_structure(rng: random.Random, scale: float):
    from .invariants import unions_of_cliques

    failures: list[dict] = []
    count = _count(scale, 200)
    for _ in range(count):
        g = fam.random_connected_graph(rng.randint(2, 7), rng)
        s = GraphSolver(g)
        idx = s.triple_index(PathMode.MONOPHONIC)
        best = s.value("mp")
        for m in range(1 << g.n):
            if m.bit_count() != best:
                continue
            ok, _ = is_position_set(idx, m)
            if not ok:
                continue
            if not unions_of_cliques(g, m):
                _fail(failures, g, witness=to_tuple(m), reason="not a union of cliques")
                continue
            comps = []
            rest = m
            while rest:
                v = (rest & -rest).bit_length() - 1
                comp = g.component_of(v, within=m)
                comps.append(comp)
                rest &= ~comp
            if len(comps) >= 2:
                for comp in comps:
                    verts = to_tuple(comp)
                    for i, a in enumerate(verts):
                        for b in verts[i + 1:]:
                            if not (g.adj[a] & g.adj[b] & ~m):
                                _fail(failures, g, witness=to_tuple(m), pair=[a, b],
                                      reason="no common neighbor outside the set")
    return count, failures, {}


@check("triangle-free-alpha",
       "triangle-free graphs: mp at most alpha, equal when induced paths are short")
def _check_triangle_free(rng: random.Random, scale: float):
    failures: list[dict] = []
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
    equality_cases = 0
    for g in graphs:
        if has_triangle(g) or not g.is_connected() or g.n < 3:
            continue
        alpha, _ = independence_number(g)
        mp = GraphSolver(g).value("mp")
        if mp > alpha:
            _fail(failures, g, mp=mp, alpha=alpha)
        if longest_induced_path_length(g) <= 3:
            equality_cases += 1
            if mp != alpha:
                _fail(failures, g, mp=mp, alpha=alpha, reason="short paths but mp < alpha")
    return len(graphs), failures, {"short_path_equality_cases": equality_cases}


@check("cages-mp", "the three cubic cages have position numbers 3, 3, 2")
def _check_cages(rng: random.Random, scale: float):
    failures: list[dict] = []
    notes = {}
    for name in ("petersen", "heawood", "mcgee"):
        g, want = _realization(name)
        s = GraphSolver(g, lexmin=True)
        for parameter, value in want.items():
            rep = s.report(parameter)
            key = name if parameter == "mp" else f"{name}_{parameter}"
            notes[key] = {"value": rep.value, "witness": list(rep.witness)}
            if rep.value != value:
                _fail(failures, g, cage=name, parameter=parameter, got=rep.value, want=value)
    return len(notes), failures, notes


# ---------------------------------------------------------------------------
# family formulas
# ---------------------------------------------------------------------------


@check("unicyclic-formula", "the case formula for unicyclic graphs matches the solver")
def _check_unicyclic(rng: random.Random, scale: float):
    failures: list[dict] = []
    count = _count(scale, 220)
    for _ in range(count):
        g = fam.random_unicyclic(rng.randint(4, 14), rng)
        pred = fam.predict_unicyclic(g)
        mp = GraphSolver(g).value("mp")
        if pred.value != mp:
            _fail(failures, g, predicted=pred.value, case=pred.applies, mp=mp)
    for k in (3, 4, 5, 8):
        g = cycle_graph(k)
        pred = fam.predict_unicyclic(g)
        mp = GraphSolver(g).value("mp")
        if pred.value != mp:
            _fail(failures, g, predicted=pred.value, case=pred.applies, mp=mp)
    return count + 4, failures, {}


@check("corona-formula", "corona products scale mp by the base order")
def _check_corona(rng: random.Random, scale: float):
    failures: list[dict] = []
    count = _count(scale, 100)
    for _ in range(count):
        base = fam.random_connected_graph(rng.randint(2, 4), rng)
        inner = fam.random_graph(rng.randint(1, 3), rng)
        product = corona(base, inner)
        want = _predicted(fam.predict_corona(base, inner, ("mp",)))["mp"]
        got = GraphSolver(product).value("mp")
        if got != want:
            _fail(failures, product, base_g6=emit_graph6(base), inner_g6=emit_graph6(inner),
                  got=got, want=want)
    return count, failures, {}


@check("join-formula", "joins: mp is the larger of the clique sum and the factor values")
def _check_join(rng: random.Random, scale: float):
    failures: list[dict] = []
    count = _count(scale, 110)
    for _ in range(count):
        g = fam.random_graph(rng.randint(1, 7), rng)
        h = fam.random_graph(rng.randint(1, 7), rng)
        product = join(g, h)
        want = _predicted(fam.predict_join(g, h, ("mp",)))["mp"]
        got = GraphSolver(product).value("mp")
        if got != want:
            _fail(failures, product, g6=emit_graph6(g), h6=emit_graph6(h), got=got, want=want)
    return count, failures, {}


@check("gp-join-corona-formula",
       "cited gp formulas for joins and coronas agree with the solver")
def _check_gp_products(rng: random.Random, scale: float):
    failures: list[dict] = []
    count = _count(scale, 60)
    for _ in range(count):
        g = fam.random_graph(rng.randint(1, 6), rng)
        h = fam.random_graph(rng.randint(1, 6), rng)
        product = join(g, h)
        want = _predicted(fam.predict_join(g, h, ("gp",)))["gp"]
        got = GraphSolver(product).value("gp")
        if got != want:
            _fail(failures, product, kind="join", got=got, want=want,
                  g6=emit_graph6(g), h6=emit_graph6(h))
        base = fam.random_connected_graph(rng.randint(2, 4), rng)
        inner = fam.random_graph(rng.randint(1, 3), rng)
        product = corona(base, inner)
        want = _predicted(fam.predict_corona(base, inner, ("gp",)))["gp"]
        got = GraphSolver(product).value("gp")
        if got != want:
            _fail(failures, product, kind="corona", got=got, want=want,
                  base_g6=emit_graph6(base), inner_g6=emit_graph6(inner))
    return 2 * count, failures, {}


@check("bipartite-complement-formula",
       "complements of connected bipartite graphs: mp is max(alpha, psi)")
def _check_bipartite_complement(rng: random.Random, scale: float):
    failures: list[dict] = []
    graphs: list[Graph] = []
    for _ in range(_count(scale, 110)):
        graphs.append(fam.random_bipartite_graph(rng.randint(1, 7), rng.randint(1, 7), rng))
    for m in range(2, 5):
        for n in range(m, 6):
            graphs.append(complete_multipartite([m, n]))
    graphs += [fam.star_graph(4), cycle_graph(6), cycle_graph(8), fam.hypercube(3)]
    for g in graphs:
        pred = fam.predict_bipartite_complement(g)
        got = GraphSolver(complement(g)).value("mp")
        if got != pred.value:
            _fail(failures, g, predicted=pred.value, mp_complement=got)
    return len(graphs), failures, {}


@check("tree-complement-formula",
       "tree complements: order when the diameter is small, alpha otherwise")
def _check_tree_complement(rng: random.Random, scale: float):
    failures: list[dict] = []
    graphs = [fam.random_tree(rng.randint(3, 12), rng) for _ in range(_count(scale, 110))]
    graphs += [fam.star_graph(k) for k in range(2, 6)]
    graphs += [path_graph(2 + k) for k in range(1, 6)]
    for t in graphs:
        pred = fam.predict_tree_complement(t)
        got = GraphSolver(complement(t)).value("mp")
        if got != pred.value:
            _fail(failures, t, predicted=pred.value, mp_complement=got, applies=pred.applies)
    return len(graphs), failures, {}


@check("grid-complement-convention",
       "grid complements match the checkerboard formula under the vertex-count convention")
def _check_grid_complement(rng: random.Random, scale: float):
    failures: list[dict] = []
    notes: dict = {"order_convention_mismatches": [], "vertex_convention_mismatches": []}
    cases = [(n, m) for n in range(2, 5) for m in range(n, 9) if n * m <= 16]
    for n, m in cases:
        got = GraphSolver(complement(fam.grid_graph(n, m))).value("mp")
        want = fam.predict_grid_complement(n, m).value
        if got != want:
            _fail(failures, fam.grid_graph(n, m), n=n, m=m, got=got, want=want)
            notes["vertex_convention_mismatches"].append([n, m])
        # the same formula read with path-length parameters names the
        # (n+1) x (m+1)-vertex grid; record how that convention fares
        if (n + 1) * (m + 1) <= 16:
            other = GraphSolver(complement(fam.grid_graph(n + 1, m + 1))).value("mp")
            if other != want:
                notes["order_convention_mismatches"].append(
                    {"n": n, "m": m, "formula": want, "actual": other})
    notes["conclusion"] = ("vertex-count convention matches everywhere"
                           if not failures else "vertex-count convention fails")
    return len(cases), failures, notes


@check("hypercube-complement-formula", "hypercube complements: mp is half the order")
def _check_hypercube_complement(rng: random.Random, scale: float):
    failures: list[dict] = []
    for k in (3, 4):
        g = fam.hypercube(k)
        got = GraphSolver(complement(g)).value("mp")
        want = fam.predict_hypercube_complement(k).value
        if got != want:
            _fail(failures, g, k=k, got=got, want=want)
    return 2, failures, {}


@check("split-phi-formula", "split graphs: mp equals the separated-subgraph maximum")
def _check_split(rng: random.Random, scale: float):
    failures: list[dict] = []
    count = _count(scale, 220)
    for _ in range(count):
        g = fam.random_split_graph(rng.randint(3, 16), rng)
        sp = split_partition(g)
        phi, witness = phi_separated(g, sp)
        s = GraphSolver(g)
        mp = s.value("mp")
        if phi != mp:
            _fail(failures, g, phi=phi, mp=mp)
            continue
        ok, _ = is_position_set(s.triple_index(PathMode.MONOPHONIC), witness)
        if not ok or witness.bit_count() != phi:
            _fail(failures, g, reason="separated witness is not a position optimum",
                  witness=to_tuple(witness))
    return count, failures, {}


@check("hall-equality-condition",
       "mp equals max(omega, alpha) exactly when a side is saturated by a matching")
def _check_hall(rng: random.Random, scale: float):
    failures: list[dict] = []
    count = _count(scale, 220)
    divided_seen = 0
    for _ in range(count):
        g = fam.random_split_graph(rng.randint(2, 16), rng)
        sp = split_partition(g)
        if sp.divided is not None:
            divided_seen += 1
        cond = fam.hall_equality_condition(g, sp)
        omega, _ = clique_number(g)
        alpha, _ = independence_number(g)
        mp = GraphSolver(g).value("mp")
        if (mp == max(omega, alpha)) != cond:
            _fail(failures, g, mp=mp, omega=omega, alpha=alpha, condition=cond,
                  divided=sp.divided)
    return count, failures, {"instances_with_divided_vertex": divided_seen}


# ---------------------------------------------------------------------------
# realization tables
# ---------------------------------------------------------------------------


@check("mp-gp-realization", "every pair 2 <= a <= b <= 8 is realized by a generated graph")
def _check_mp_gp_realization(rng: random.Random, scale: float):
    failures: list[dict] = []
    realized = []
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
            g, _ = fam.generate(fam.parse_family_spec(spec))
            s = GraphSolver(g)
            got = (s.value("mp"), s.value("gp"))
            realized.append({"a": a, "b": b, "spec": spec, "got": list(got)})
            if got != (a, b):
                _fail(failures, g, spec=spec, want=[a, b], got=list(got))
    return len(realized), failures, {"table": realized}


@check("igp-mp-realization", "igp/mp pairs from the leafed-clique and apexed constructions")
def _check_igp_realization(rng: random.Random, scale: float):
    failures: list[dict] = []
    table = []
    for b in range(1, 9):
        g = complete_graph(b)
        s = GraphSolver(g)
        got = (s.value("igp"), s.value("mp"))
        table.append({"a": 1, "b": b, "spec": f"complete:{b}", "got": list(got)})
        if got != (1, b):
            _fail(failures, g, want=[1, b], got=list(got))
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
            g, _ = fam.generate(fam.parse_family_spec(spec))
            s = GraphSolver(g)
            got = (s.value("igp"), s.value("mp"))
            table.append({"a": a, "b": b, "spec": spec, "got": list(got)})
            if got != (a, b):
                _fail(failures, g, spec=spec, want=[a, b], got=list(got))
    # the constructions' own value formulas, verified over their domain
    formulas = []
    for family, label, s_range in (("R_graph", "R", range(1, 5)), ("P_graph", "P", range(2, 5))):
        for r in range(0, 4):
            for s_par in s_range:
                g, pred = _realization(f"{family}:{r},{s_par}")
                sv = GraphSolver(g)
                got, want = [sv.value("igp"), sv.value("mp")], [pred["igp"], pred["mp"]]
                formulas.append({"family": label, "r": r, "s": s_par, "mp": got[1], "igp": got[0]})
                if got != want:
                    _fail(failures, g, family=label, r=r, s=s_par, got=got, want=want)
    notes = {"pairs": len(table),
             "leafless_apex_note": "P(0,s) is degenerate (independent position s+1 for "
                                   "s >= 3, a bare path at s = 2); the (a,2) pairs are "
                                   "realized by half-wheels, whose alternate-rim optimum "
                                   "is an independent set",
             "construction_values": formulas}
    return len(table) + len(formulas), failures, notes


@check("dissociation-gp2-values", "leafed cliques realize the dissociation/gp2 table")
def _check_diss_gp2(rng: random.Random, scale: float):
    # The claimed table reads diss = a and gp2 = b on the graph with a-2
    # leaves on a clique of order b-a+3.  The a = 2 row is the bare clique,
    # which has no geodesic of length two at all, so every vertex set is in
    # 2-position and gp2 is b+1 there, one above the claim.  The check pins
    # the corrected row and the table everywhere else, and diss <= gp2 on
    # every row: strict except where a = b >= 3, which has diss = gp2.
    failures: list[dict] = []
    count = 0
    corrected = []
    for a in range(2, 9):
        for b in range(a, 9):
            g, pred = _realization(f"R_graph:{a - 2},{b - a + 2}")
            count += 1
            diss, _ = dissociation_number(g)
            gp2 = GraphSolver(g).value("gp2")
            want_gp2 = b if a >= 3 else b + 1
            if a == 2:
                corrected.append({"a": a, "b": b, "gp2": gp2})
            if (diss, gp2) != (a, want_gp2) or (diss, gp2) != (pred["diss"], pred["gp2"]):
                _fail(failures, g, a=a, b=b, diss=diss, gp2=gp2, want_gp2=want_gp2,
                      predicted=pred)
            if diss > gp2:
                _fail(failures, g, a=a, b=b, reason="dissociation exceeds gp2")
    notes = {"corrected_row": corrected,
             "note": "for a = 2 the construction is a complete graph and gp2 is b+1, "
                     "not b; dissociation still equals a on every row"}
    return count, failures, notes


@check("hull-invariants",
       "hull number: below mp, above the simplicial seed, leaf count on trees")
def _check_hull(rng: random.Random, scale: float):
    failures: list[dict] = []
    instances = 0
    trees = _count(scale, 110)
    for _ in range(trees):
        t = fam.random_tree(rng.randint(2, 12), rng)
        instances += 1
        rep = GraphSolver(t).report("hm")
        want = leaves(t).bit_count()
        if rep.value != want:
            _fail(failures, t, hm=rep.value, leaf_count=want)
    for _ in range(_count(scale, 60)):
        g = fam.random_connected_graph(rng.randint(2, 9), rng)
        instances += 1
        s = GraphSolver(g)
        rep = s.report("hm")
        if rep.value != hull_number_oracle(g):
            _fail(failures, g, hm=rep.value, oracle=hull_number_oracle(g))
            continue
        witness = mask_of(rep.witness)
        if witness & simplicial_vertices(g) != simplicial_vertices(g):
            _fail(failures, g, reason="hull witness misses a simplicial vertex",
                  witness=list(rep.witness))
        ok, _ = is_position_set(s.triple_index(PathMode.MONOPHONIC), witness)
        if not ok:
            _fail(failures, g, reason="hull witness is not in position",
                  witness=list(rep.witness))
        if rep.value > s.value("mp"):
            _fail(failures, g, hm=rep.value, mp=s.value("mp"))
    return instances, failures, {"tree_instances": trees}


@check("hull-realization", "clique-with-tail graphs realize (hull, mp) pairs up to order 14")
def _check_hull_realization(rng: random.Random, scale: float):
    failures: list[dict] = []
    realized = set()
    count = 0
    for a in range(2, 9):
        for b in range(a, 9):
            for length in (1, 2):
                if b + length + 1 > 14:
                    continue
                g = fam.g_abl(a, b, length)
                count += 1
                s = GraphSolver(g)
                hm, mp = s.value("hm"), s.value("mp")
                if (hm, mp) != (a, b):
                    _fail(failures, g, a=a, b=b, length=length, hm=hm, mp=mp)
                else:
                    realized.add((a, b))
    notes = {
        "realized_pairs": sorted(list(p) for p in realized),
        "observation": "the construction realizes every 2 <= a <= b with order b + length + 1, "
                       "including pairs with a < b",
    }
    return count, failures, notes


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
    """Run the selected checks (all by default) for each seed.

    Results merge deterministically by (check id, seed); with multiple
    seeds a check passes only if it passes under every seed.
    """
    ids = list(_REGISTRY) if selection is None else list(selection)
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
