"""Exact solvers for position-type parameters and the monophonic hull number.

All five position parameters (mp, gp, gp2, imp, igp) run through one model:
a set S is "in position" exactly when no pair {x,z} of S has a third member
of S among its interior witnesses, where the witness notion depends on the
path mode.  Monophonic mode takes witnesses from induced-path intervals,
geodesic mode from the distance identity d(x,y) + d(y,z) = d(x,z), and the
length-two mode takes the common neighbours of non-adjacent pairs, which
are the geodesics of length two.  ``build_triple_index`` is the one
derivation of these witness systems.  One branch-and-bound maximizer,
``invariants._PositionSearch``, serves all modes and also alphaomega and
dissociation; the independent variants add a neighborhood filter when a
vertex is taken.  ``invariants._lexmin`` drives its runs to the lexmin
witness.  The subset oracle ``brute_force_position`` scans the same
witness systems with neither of the two.
``GraphSolver`` is the one front end: every parameter, position type or
supporting invariant, is computed by name through its table.

The monophonic hull number reads no interval row.  ``hull_number`` takes
its hulls from ``paths.convex_hull``, Duchet's characterisation of
minimal-path convexity (Duchet 1988, *JCTB* 44): S is m-convex iff the
border of every component of G - S is a clique.  Closure iteration over
interval rows (``paths.monophonic_hull``) stays as its oracle.

Node limits are hard failures.  The solver never degrades to a bound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations

from .bitset import bit, to_tuple
from .errors import CapExceeded, InputError, InternalCheckError, LimitError
from .graph import SOLVER_CAP, Graph
from .graph6 import emit_graph6
from .invariants import (DIST_INF, NODE_LIMIT, ORACLE_CAP, _lexmin, _PositionSearch,
                         alpha_omega_number, clique_number, common_neighbour_witnesses,
                         dissociation_number, distance_matrix, independence_number,
                         invert_witnesses, oracle_max_subset, simplicial_vertices)
from .paths import (LONGEST_PATH_CAP, PARTITION_CAP, IntervalCache, cache_for, convex_hull,
                    induced_path_partition, longest_induced_path_length, monophonic_hull)


class PathMode(Enum):
    MONOPHONIC = "mono"
    GEODESIC = "geo"
    GEODESIC_LEN2 = "geo2"

    @classmethod
    def from_string(cls, text: str) -> "PathMode":
        for mode in cls:
            if mode.value == text:
                return mode
        raise InputError(f"unknown path mode {text!r} (expected mono, geo or geo2)")


#: Canonical position parameter names mapped to (mode, independent).
POSITION_PARAMS: dict[str, tuple[PathMode, bool]] = {
    "mp": (PathMode.MONOPHONIC, False),
    "gp": (PathMode.GEODESIC, False),
    "gp2": (PathMode.GEODESIC_LEN2, False),
    "imp": (PathMode.MONOPHONIC, True),
    "igp": (PathMode.GEODESIC, True),
}

_POSITION_NAMES = {key: name for name, key in POSITION_PARAMS.items()}


def _position_name(mode: PathMode, independent: bool) -> str:
    """Report name of a position parameter, looked up before any work."""
    if (mode, independent) not in _POSITION_NAMES:
        raise InputError("independent variant is not defined for the length-two mode")
    return _POSITION_NAMES[mode, independent]


@dataclass
class TripleIndex:
    """Interior witnesses per unordered vertex pair, for one graph and mode."""

    graph: Graph
    mode: PathMode
    witness: list[list[int]]
    _wit_of: list[list[int]] | None = field(default=None, repr=False)

    def witness_of(self) -> list[list[int]]:
        """wit_of[u][y] = mask of w such that y witnesses the pair {u,w}."""
        if self._wit_of is None:
            self._wit_of = invert_witnesses(self.witness)
        return self._wit_of


def build_triple_index(g: Graph, mode: PathMode, cache: IntervalCache | None = None,
                       cap: int = SOLVER_CAP) -> TripleIndex:
    if g.n > cap:
        raise CapExceeded(f"triple index cap {cap} exceeded by order {g.n}")
    if mode is PathMode.GEODESIC_LEN2:
        return TripleIndex(g, mode, common_neighbour_witnesses(g, include_adjacent=False))
    n = g.n
    witness = [[0] * n for _ in range(n)]
    if mode is PathMode.MONOPHONIC:
        cache = cache_for(g, cache)
        for x in range(n):
            row = cache.row(x)
            for z in range(x + 1, n):
                w = row[z] & ~(bit(x) | bit(z))
                witness[x][z] = witness[z][x] = w
    else:
        dist = distance_matrix(g)
        for x in range(n):
            dx = dist[x]
            for z in range(x + 1, n):
                d = dx[z]
                if d >= DIST_INF:
                    continue
                dz = dist[z]
                w = 0
                for y in range(n):
                    if y != x and y != z and dx[y] + dz[y] == d:
                        w |= bit(y)
                witness[x][z] = witness[z][x] = w
    return TripleIndex(g, mode, witness)


def is_position_set(idx: TripleIndex, s: int) -> tuple[bool, tuple[int, int, int] | None]:
    """Check the no-witness condition; on failure return one (x, y, z)."""
    verts = to_tuple(s)
    for i, x in enumerate(verts):
        wx = idx.witness[x]
        for z in verts[i + 1:]:
            hit = wx[z] & s
            if hit:
                return False, (x, (hit & -hit).bit_length() - 1, z)
    return True, None


@dataclass
class ParameterReport:
    graph_id: str
    parameter: str
    value: int
    witness: tuple[int, ...]
    method: str
    expansions: int
    ms: float

    def to_dict(self) -> dict:
        return {
            "graph_id": self.graph_id,
            "parameter": self.parameter,
            "value": self.value,
            "witness": list(self.witness),
            "method": self.method,
            "expansions": self.expansions,
            "ms": round(self.ms, 3),
        }


def max_position_set(idx: TripleIndex, independent: bool = False, node_limit: int = NODE_LIMIT,
                     allowed: int | None = None, lexmin: bool = True) -> ParameterReport:
    """Exact maximum position set inside ``allowed`` (default: every vertex)
    with a lexmin witness.  With ``lexmin`` off the witness is the first
    optimum found (still verified); value-only callers use this to save work.
    """
    t0 = time.perf_counter()
    name = _position_name(idx.mode, independent)
    g = idx.graph
    search = _PositionSearch(g.adj, idx.witness, idx.witness_of(), independent, node_limit)
    value, found = _lexmin(g.n, search.run, g.full() if allowed is None else allowed, lexmin)
    ok, _ = is_position_set(idx, found)
    if not ok or (independent and not g.is_independent_mask(found)):
        raise InternalCheckError("position witness failed verification")
    ms = (time.perf_counter() - t0) * 1000.0
    return ParameterReport(
        graph_id=emit_graph6(g),
        parameter=name,
        value=value,
        witness=to_tuple(found),
        method="branch_and_bound",
        expansions=search.nodes,
        ms=ms,
    )


class GraphSolver:
    """The one front end for every parameter in :data:`PARAMETERS`.

    Reports are memoized, and one interval cache and one triple index per
    mode are shared between them.  ``cap`` bounds every exact routine; an
    invariant with a cap of its own gets the smaller of the two.  A limit
    raises, so callers that want a partial bundle catch ``LimitError``.
    """

    def __init__(self, g: Graph, node_limit: int = NODE_LIMIT, lexmin: bool = False,
                 cap: int = SOLVER_CAP):
        self.g = g
        self.node_limit = node_limit
        self.lexmin = lexmin
        self.cap = cap
        self.cache = IntervalCache(g)
        self._indexes: dict[PathMode, TripleIndex] = {}
        self._reports: dict[str, ParameterReport] = {}

    def triple_index(self, mode: PathMode) -> TripleIndex:
        if mode not in self._indexes:
            self._indexes[mode] = build_triple_index(self.g, mode, self.cache, cap=self.cap)
        return self._indexes[mode]

    def report(self, name: str) -> ParameterReport:
        if name not in self._reports:
            if name not in PARAMETERS:
                raise InputError(f"unknown parameter {name!r}")
            self._reports[name] = PARAMETERS[name](self, name)
        return self._reports[name]

    def value(self, name: str) -> int:
        return self.report(name).value


def _position(s: GraphSolver, name: str) -> ParameterReport:
    """Search report whose ``ms`` also covers the triple index it built."""
    t0 = time.perf_counter()
    mode, independent = POSITION_PARAMS[name]
    rep = max_position_set(s.triple_index(mode), independent, s.node_limit, lexmin=s.lexmin)
    rep.ms = (time.perf_counter() - t0) * 1000.0
    return rep


def _invariant(method: str, fn):
    """Report builder for ``fn(g, cap, node_limit) -> (value, witness mask)``."""
    def compute(s: GraphSolver, name: str) -> ParameterReport:
        t0 = time.perf_counter()
        value, mask = fn(s.g, s.cap, s.node_limit)
        ms = (time.perf_counter() - t0) * 1000.0
        return ParameterReport(emit_graph6(s.g), name, value, to_tuple(mask), method, 0, ms)
    return compute


def _simplicial(g: Graph, *_) -> tuple[int, int]:
    mask = simplicial_vertices(g)
    return mask.bit_count(), mask


#: Parameter name -> report builder, in the order parameter_suite computes
#: them.  Names are resolved at call time, so the layer tracer sees each call.
PARAMETERS = {
    "omega": _invariant("branch_and_bound", lambda g, cap, limit: clique_number(g, cap, limit)),
    "alpha": _invariant("branch_and_bound",
                        lambda g, cap, limit: independence_number(g, cap, limit)),
    "alphaomega": _invariant("branch_and_bound", lambda g, cap, limit: alpha_omega_number(
        g, min(cap, ORACLE_CAP), limit)),
    "diss": _invariant("branch_and_bound", lambda g, cap, limit: dissociation_number(
        g, min(cap, ORACLE_CAP), limit)),
    "simplicial": _invariant("closed_form", _simplicial),
    "L": _invariant("induced_path_walk", lambda g, cap, _: (
        longest_induced_path_length(g, min(cap, LONGEST_PATH_CAP)), 0)),
    "rho": _invariant("partition_dp", lambda g, cap, _: (
        induced_path_partition(g, min(cap, PARTITION_CAP))[0], 0)),
    **{name: _position for name in POSITION_PARAMS},
    "hm": lambda s, name: hull_number(s.g, cap=s.cap),
}


BRUTE_FORCE_CAP = 12


def brute_force_position(g: Graph, mode: PathMode, independent: bool = False) -> ParameterReport:
    """Subset-enumeration oracle used to certify the branch and bound.

    Scans every subset against the witnesses of :func:`build_triple_index`,
    with no use of ``_PositionSearch`` or ``_lexmin``.  The witness systems
    have twins of their own: the simple-path oracle for mono, and for geo
    and geo2 the shortest chordless paths (tests only).
    """
    t0 = time.perf_counter()
    name = _position_name(mode, independent)
    if g.n > BRUTE_FORCE_CAP:
        raise CapExceeded(f"brute force cap {BRUTE_FORCE_CAP} exceeded by order {g.n}")
    witness = build_triple_index(g, mode).witness
    constraints = [(bit(x) | bit(z), witness[x][z])
                   for x in range(g.n) for z in range(x + 1, g.n) if witness[x][z]]
    if independent:
        constraints += [(bit(u) | bit(v), g.full()) for u, v in g.edges()]

    def admissible(s: int) -> bool:
        for pm, wm in constraints:
            if pm & s == pm and wm & s:
                return False
        return True

    best, best_mask = oracle_max_subset(g, admissible, BRUTE_FORCE_CAP)
    ms = (time.perf_counter() - t0) * 1000.0
    return ParameterReport(
        graph_id=emit_graph6(g),
        parameter=name,
        value=best,
        witness=to_tuple(best_mask),
        method="oracle",
        expansions=1 << g.n,
        ms=ms,
    )


# ---------------------------------------------------------------------------
# monophonic hull number
# ---------------------------------------------------------------------------

HULL_SET_BUDGET = 2_000_000


def hull_number(g: Graph, *, cap: int = SOLVER_CAP) -> ParameterReport:
    """Smallest set whose monophonic hull is the whole vertex set.

    Hulls come from :func:`paths.convex_hull`, Duchet's component test
    (Duchet 1988), so no interval row is read.  Every hull set contains
    every simplicial vertex, so the search starts from that seed and grows
    by cardinality.  A minimum hull set S holds no vertex v of hull(S - v),
    for S - v would be a smaller hull set.  So candidates are the vertices
    outside hull(seed), and combinations are walked depth first: each
    prefix carries its hull, each child's hull is seeded from its parent's,
    and a candidate already inside the prefix hull is skipped.  Combinations
    still come in lexicographic order, so the witness is the first minimum
    hull set in that order.  ``expansions`` counts the hull extensions
    tested; past ``HULL_SET_BUDGET`` of them the search raises
    ``CapExceeded``, naming the set size it had reached.
    """
    t0 = time.perf_counter()
    if not g.is_connected():
        raise InputError("hull_number requires a connected graph")
    if g.n > cap:
        raise CapExceeded(f"hull cap {cap} exceeded by order {g.n}")
    full = g.full()
    seed = simplicial_vertices(g)
    closed = convex_hull(g, seed) if seed else 0
    others = [v for v in range(g.n) if not closed & bit(v)]
    tested = 1
    found = seed if closed == full else 0
    for size in range(max(seed.bit_count() + 1, 2), g.n + 1):
        if found:
            break
        stack = [(seed, closed, 0)]  # a prefix, its hull, the index of its next candidate
        while stack and not found:
            mask, hull, i = stack.pop()
            last = len(others) - (size - mask.bit_count())
            while i <= last and hull & bit(others[i]):
                i += 1
            if i > last:
                continue
            stack.append((mask, hull, i + 1))
            tested += 1
            if tested > HULL_SET_BUDGET:
                raise CapExceeded(
                    f"hull search budget {HULL_SET_BUDGET} exhausted on sets of size {size} "
                    f"after {tested - 1} hull extensions: the hull number is at least {size}")
            v = bit(others[i])
            child = convex_hull(g, v, hull)
            if mask.bit_count() + 1 < size:
                stack.append((mask | v, child, i + 1))
            elif child == full:
                found = mask | v
    if not found:
        raise InternalCheckError("no hull set found up to the full vertex set")
    return ParameterReport(
        graph_id=emit_graph6(g),
        parameter="hm",
        value=found.bit_count(),
        witness=to_tuple(found),
        method="hull_search",
        expansions=tested,
        ms=(time.perf_counter() - t0) * 1000.0,
    )


def hull_number_oracle(g: Graph, cap: int = 12) -> int:
    """Plain cardinality-ascending hull search without any seeding or
    pruning; certifies :func:`hull_number` on small graphs."""
    if not g.is_connected():
        raise InputError("hull oracle requires a connected graph")
    if g.n > cap:
        raise CapExceeded(f"hull oracle cap {cap} exceeded by order {g.n}")
    if g.n == 1:
        return 1
    cache = IntervalCache(g)
    full = g.full()
    for size in range(2, g.n + 1):
        for combo in combinations(range(g.n), size):
            mask = 0
            for v in combo:
                mask |= bit(v)
            hull, _ = monophonic_hull(g, mask, cache)
            if hull == full:
                return size
    raise InternalCheckError("no hull set found up to the full vertex set")


# ---------------------------------------------------------------------------
# full parameter bundle
# ---------------------------------------------------------------------------


@dataclass
class SuiteResult:
    """Every parameter the caps allow, plus names of the refused ones."""

    reports: dict[str, ParameterReport]
    skipped: dict[str, str]

    def value(self, name: str) -> int:
        return self.reports[name].value


def parameter_suite(g: Graph, node_limit: int = NODE_LIMIT,
                    cap: int = SOLVER_CAP) -> SuiteResult:
    """Every parameter in :data:`PARAMETERS`, with lexmin witnesses, from one
    :class:`GraphSolver`.  Parameters over their cap, and hm on a
    disconnected graph, are reported as skipped, never silently dropped."""
    solver = GraphSolver(g, node_limit, lexmin=True, cap=cap)
    reports: dict[str, ParameterReport] = {}
    skipped: dict[str, str] = {}
    for name in PARAMETERS:
        if name == "hm" and not g.is_connected():
            skipped[name] = "hull number undefined for disconnected graphs"
            continue
        try:
            reports[name] = solver.report(name)
        except LimitError as exc:
            skipped[name] = str(exc)
    return SuiteResult(reports, skipped)
