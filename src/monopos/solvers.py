"""Exact solvers for position-type parameters and the monophonic hull number.

All five position parameters (mp, gp, gp2, imp, igp) run through one model:
a set S is "in position" exactly when no pair {x,z} of S has a third member
of S among its interior witnesses, where the witness notion depends on the
path mode.  Monophonic mode takes witnesses from induced-path intervals,
geodesic mode from the distance identity d(x,y) + d(y,z) = d(x,z), and the
length-two mode takes the common neighbours of non-adjacent pairs, which
are the geodesics of length two.  One branch-and-bound maximizer,
``invariants._PositionSearch``, serves all modes and also alphaomega and
dissociation; the independent variants add a neighborhood filter when a
vertex is taken.
``GraphSolver`` is the one front end: every parameter, position type or
supporting invariant, is computed by name through its table.

Node limits are hard failures.  The solver never degrades to a bound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations

from .bitset import bit, mask_of, to_tuple
from .errors import CapExceeded, InputError, InternalCheckError, LimitError
from .graph import SOLVER_CAP, Graph
from .graph6 import emit_graph6
from .invariants import (DIST_INF, NODE_LIMIT, ORACLE_CAP, _PositionSearch, alpha_omega_number,
                         clique_number, common_neighbour_witnesses, dissociation_number,
                         distance_matrix, independence_number, invert_witnesses,
                         oracle_max_subset, simplicial_vertices)
from .paths import (LONGEST_PATH_CAP, PARTITION_CAP, IntervalCache, cache_for,
                    induced_path_partition, longest_induced_path_length, monophonic_hull,
                    simple_path_interval)


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


def parameter_name(mode: PathMode, independent: bool) -> str:
    base = {PathMode.MONOPHONIC: "mp", PathMode.GEODESIC: "gp", PathMode.GEODESIC_LEN2: "gp2"}[mode]
    if independent:
        if mode is PathMode.GEODESIC_LEN2:
            raise InputError("independent variant is not defined for the length-two mode")
        return "imp" if mode is PathMode.MONOPHONIC else "igp"
    return base


@dataclass
class TripleIndex:
    """Interior witnesses per unordered vertex pair, for one graph and mode."""

    graph: Graph
    mode: PathMode
    witness: list[list[int]]
    expansions: int = 0
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
    expansions = 0
    if mode is PathMode.MONOPHONIC:
        cache = cache_for(g, cache)
        before = cache.expansions
        for x in range(n):
            row = cache.row(x)
            for z in range(x + 1, n):
                w = row[z] & ~(bit(x) | bit(z))
                witness[x][z] = witness[z][x] = w
        expansions = cache.expansions - before
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
    return TripleIndex(g, mode, witness, expansions)


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


@dataclass(frozen=True)
class SolverOptions:
    require_independent: bool = False
    node_limit: int = NODE_LIMIT
    allowed: int | None = None
    #: With False, skip the lexmin witness pass and report the first optimum
    #: found (still verified); value-only callers use this to save work.
    lexmin_witness: bool = True


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


def max_position_set(idx: TripleIndex, opts: SolverOptions = SolverOptions()) -> ParameterReport:
    """Exact maximum position set with a lexmin witness."""
    t0 = time.perf_counter()
    g = idx.graph
    allowed = g.full() if opts.allowed is None else opts.allowed
    search = _PositionSearch(g.adj, idx.witness, idx.witness_of(), opts.require_independent,
                             opts.node_limit)
    value, forced = search.maximum(allowed, opts.lexmin_witness)
    ok, _ = is_position_set(idx, forced)
    if not ok or (opts.require_independent and not g.is_independent_mask(forced)):
        raise InternalCheckError("position witness failed verification")
    ms = (time.perf_counter() - t0) * 1000.0
    return ParameterReport(
        graph_id=emit_graph6(g),
        parameter=parameter_name(idx.mode, opts.require_independent),
        value=value,
        witness=to_tuple(forced),
        method="branch_and_bound",
        expansions=search.nodes,
        ms=ms,
    )


#: Canonical position parameter names mapped to (mode, independent).
POSITION_PARAMS: dict[str, tuple[PathMode, bool]] = {
    "mp": (PathMode.MONOPHONIC, False),
    "gp": (PathMode.GEODESIC, False),
    "gp2": (PathMode.GEODESIC_LEN2, False),
    "imp": (PathMode.MONOPHONIC, True),
    "igp": (PathMode.GEODESIC, True),
}


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
    mode, independent = POSITION_PARAMS[name]
    opts = SolverOptions(require_independent=independent, node_limit=s.node_limit,
                         lexmin_witness=s.lexmin)
    return max_position_set(s.triple_index(mode), opts)


def _invariant(method: str, fn):
    """Report builder for ``fn(g, cap) -> (value, witness mask)``."""
    def compute(s: GraphSolver, name: str) -> ParameterReport:
        t0 = time.perf_counter()
        value, mask = fn(s.g, s.cap)
        ms = (time.perf_counter() - t0) * 1000.0
        return ParameterReport(emit_graph6(s.g), name, value, to_tuple(mask), method, 0, ms)
    return compute


def _simplicial(g: Graph, cap: int) -> tuple[int, int]:
    mask = simplicial_vertices(g)
    return mask.bit_count(), mask


#: Parameter name -> report builder, in the order parameter_suite computes
#: them.  Names are resolved at call time, so the layer tracer sees each call.
PARAMETERS = {
    "omega": _invariant("branch_and_bound", lambda g, cap: clique_number(g)),
    "alpha": _invariant("branch_and_bound", lambda g, cap: independence_number(g)),
    "alphaomega": _invariant("branch_and_bound",
                             lambda g, cap: alpha_omega_number(g, min(cap, ORACLE_CAP))),
    "diss": _invariant("branch_and_bound",
                       lambda g, cap: dissociation_number(g, min(cap, ORACLE_CAP))),
    "simplicial": _invariant("closed_form", _simplicial),
    "L": _invariant("branch_and_bound", lambda g, cap: (
        longest_induced_path_length(g, min(cap, LONGEST_PATH_CAP)), 0)),
    "rho": _invariant("oracle", lambda g, cap: (
        induced_path_partition(g, min(cap, PARTITION_CAP))[0], 0)),
    **{name: _position for name in POSITION_PARAMS},
    "hm": lambda s, name: hull_number(s.g, s.cache, cap=s.cap),
}


BRUTE_FORCE_CAP = 12
BRUTE_FORCE_ORACLE_CAP = 9


def brute_force_position(g: Graph, mode: PathMode, independent: bool = False,
                         interval_source: str = "dfs") -> ParameterReport:
    """Subset-enumeration oracle used to certify the branch and bound.

    Witness data is reassembled here rather than taken from a TripleIndex;
    with ``interval_source="oracle"`` monophonic intervals additionally come
    from the simple-path filter, fully independent of the pruned DFS.
    """
    t0 = time.perf_counter()
    cap = BRUTE_FORCE_ORACLE_CAP if interval_source == "oracle" else BRUTE_FORCE_CAP
    if g.n > cap:
        raise CapExceeded(f"brute force cap {cap} exceeded by order {g.n}")
    n = g.n
    constraints: list[tuple[int, int]] = []
    if mode is PathMode.MONOPHONIC:
        if interval_source == "oracle":
            rows = {u: [simple_path_interval(g, u, v) if v != u else 0 for v in range(n)]
                    for u in range(n)}
        elif interval_source == "dfs":
            cache = IntervalCache(g)
            rows = {u: [cache.interval(u, v) if v != u else 0 for v in range(n)] for u in range(n)}
        else:
            raise InputError(f"unknown interval source {interval_source!r}")
        for x in range(n):
            for z in range(x + 1, n):
                w = rows[x][z] & ~(bit(x) | bit(z))
                if w:
                    constraints.append((bit(x) | bit(z), w))
    else:
        dist = distance_matrix(g)
        for x in range(n):
            for z in range(x + 1, n):
                d = dist[x][z]
                if d >= DIST_INF:
                    continue
                if mode is PathMode.GEODESIC_LEN2:
                    w = g.adj[x] & g.adj[z] if d == 2 else 0
                else:
                    w = 0
                    for y in range(n):
                        if y != x and y != z and dist[x][y] + dist[y][z] == d:
                            w |= bit(y)
                if w:
                    constraints.append((bit(x) | bit(z), w))
    if independent:
        for u, v in g.edges():
            constraints.append((bit(u) | bit(v), g.full()))

    def admissible(s: int) -> bool:
        for pm, wm in constraints:
            if pm & s == pm and wm & s:
                return False
        return True

    best, best_mask = oracle_max_subset(g, admissible, cap)
    ms = (time.perf_counter() - t0) * 1000.0
    return ParameterReport(
        graph_id=emit_graph6(g),
        parameter=parameter_name(mode, independent),
        value=best,
        witness=to_tuple(best_mask),
        method="oracle",
        expansions=1 << n,
        ms=ms,
    )


# ---------------------------------------------------------------------------
# monophonic hull number
# ---------------------------------------------------------------------------

HULL_SET_BUDGET = 2_000_000


def hull_number(g: Graph, cache: IntervalCache | None = None,
                cap: int = SOLVER_CAP) -> ParameterReport:
    """Smallest set whose monophonic hull is the whole vertex set.

    Every hull set contains every simplicial vertex, so the search starts
    from that seed and grows by cardinality.  A minimum hull set S holds no
    vertex v of hull(S - v), so it holds no vertex of hull(seed) outside the
    seed: candidates are the vertices outside hull(seed).  Combinations of
    the candidates come in lexicographic order, so the witness is the
    lexicographically first minimum hull set.
    """
    t0 = time.perf_counter()
    cache = cache_for(g, cache)
    if not g.is_connected():
        raise InputError("hull_number requires a connected graph")
    if g.n > cap:
        raise CapExceeded(f"hull cap {cap} exceeded by order {g.n}")
    full = g.full()
    before = cache.expansions

    def finish(mask: int, tested: int) -> ParameterReport:
        ms = (time.perf_counter() - t0) * 1000.0
        return ParameterReport(
            graph_id=emit_graph6(g),
            parameter="hm",
            value=mask.bit_count(),
            witness=to_tuple(mask),
            method="branch_and_bound",
            expansions=cache.expansions - before + tested,
            ms=ms,
        )

    seed = simplicial_vertices(g)
    closed = monophonic_hull(g, seed, cache)[0] if seed else 0
    if closed == full:
        return finish(seed, 1)
    others = [v for v in range(g.n) if not closed & bit(v)]
    tested = 0
    for extra in range(max(0, 2 - seed.bit_count()), len(others) + 1):
        for combo in combinations(others, extra):
            tested += 1
            if tested > HULL_SET_BUDGET:
                raise CapExceeded(f"hull search budget {HULL_SET_BUDGET} exhausted")
            mask = seed | mask_of(combo)
            if monophonic_hull(g, mask, cache)[0] == full:
                return finish(mask, tested)
    raise InternalCheckError("no hull set found up to the full vertex set")


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
