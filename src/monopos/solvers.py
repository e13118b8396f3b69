"""Exact solvers for position-type parameters and the monophonic hull number.

All five position parameters (mp, gp, gp2, imp, igp) run through one model:
a set S is "in position" exactly when no pair {x,z} of S has a third member
of S among its interior witnesses, where the witness notion depends on the
path mode.  Monophonic mode takes witnesses from induced-path intervals,
geodesic mode from the distance identity d(x,y) + d(y,z) = d(x,z), read
off the breadth-first layers of ``Graph.layers``, and the length-two mode
takes the common neighbours of non-adjacent pairs, which are the geodesics
of length two.  ``build_triple_index`` is the one derivation of these
witness systems.  One branch and bound, ``invariants._PositionSearch``,
serves all modes, diss, omega and alpha (gp2 is alphaomega, computed
once), with a neighbourhood filter for the independent variants, and
``invariants._lexmin`` drives its runs to the lexmin witness.  The subset
oracle ``brute_force_position`` scans the same witness systems with
neither of the two.
``GraphSolver`` is the one front end: every parameter, position type or
supporting invariant, and every closed form that ``compute`` answers, is
computed by name through its table, and ``GraphSolver.report`` finishes
each report.

The monophonic hull number reads no interval row.  ``hull_number`` sums
a small rule over the clique-separator atoms, from Duchet's
characterisation of minimal-path convexity (Duchet 1988, *JCTB* 44): S is
m-convex iff the border of every component of G - S is a clique.  Closure
iteration over interval rows (``hull_number_oracle``) stays as its oracle.

Node limits are hard failures.  The solver never degrades to a bound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import combinations

from .bitset import bit, full_mask, iter_bits, mask_of, to_tuple
from .errors import InputError, InternalCheckError, LimitError, require_cap, require_positive
from .graph import SOLVER_CAP, Graph
from .invariants import (NODE_LIMIT, PairTable, _common_neighbour_max, _forcing_run,
                         _independent_max, _lexmin, _PositionSearch, bipartition,
                         clique_separator_atoms, common_neighbour_witnesses, cut_vertices,
                         diameter, is_distance_hereditary, oracle_max_subset, pair_table,
                         phi_separated, psi_uniform, simplicial_vertices, split_partition)
from .paths import (IntervalCache, cache_for, convex_hull, induced_path_partition,
                    longest_induced_path_length, monophonic_hull, monophonic_witnesses)


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
    _table: PairTable | None = field(default=None, repr=False)

    def table(self) -> PairTable:
        """The search's ``(order, pos, pair)`` table, shared by both variants
        of the mode (see :func:`invariants.pair_table`)."""
        if self._table is None:
            self._table = pair_table(self.witness)
        return self._table


def build_triple_index(g: Graph, mode: PathMode, cache: IntervalCache | None = None,
                       cap: int = SOLVER_CAP) -> TripleIndex:
    """The witness system of ``mode``.  A ``cache`` is only checked against
    ``g``: the mono index reads narrowed rows and stores none in it."""
    require_cap("triple index", cap, g.n)
    if mode is PathMode.GEODESIC_LEN2:
        return TripleIndex(g, mode, common_neighbour_witnesses(g, include_adjacent=False))
    if mode is PathMode.MONOPHONIC:
        if cache is not None:
            cache_for(g, cache)
        return TripleIndex(g, mode, monophonic_witnesses(g))
    # y lies on a shortest x,z-path iff d(x,y) = k, d(y,z) = d - k, 0 < k < d.
    n = g.n
    witness = [[0] * n for _ in range(n)]
    layers = [g.layers(v) for v in range(n)]
    for x, lx in enumerate(layers):
        above = ~full_mask(x + 1)
        for d in range(2, len(lx)):
            for z in iter_bits(lx[d] & above):
                lz = layers[z]
                w = 0
                for k in range(1, d):
                    w |= lx[k] & lz[d - k]
                witness[x][z] = witness[z][x] = w
    return TripleIndex(g, mode, witness)


def is_position_set(idx: TripleIndex, s: int) -> tuple[bool, tuple[int, int, int] | None]:
    """Check the no-witness condition; on failure return one (x, y, z)."""
    idx.graph.require_vertices("vertex set", s)
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
    parameter: str
    value: int
    witness: tuple[int, ...]
    method: str
    expansions: int
    ms: float

    def to_dict(self) -> dict:
        return {
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
    Before each gp2 search, every vertex that :func:`invariants._forcing_run`
    allows is forced, every pendant vertex among them, so trees, unicyclic
    and block graphs of 64-70 vertices take under a thousand nodes; the
    other modes search bare, since forcing saves them under 1% of their
    nodes.
    """
    t0 = time.perf_counter()
    name = _position_name(idx.mode, independent)
    g = idx.graph
    allowed = g.full() if allowed is None else allowed
    g.require_vertices("allowed", allowed)
    search = _PositionSearch(g.adj, idx.table(), independent, node_limit)
    run = _forcing_run(search) if idx.mode is PathMode.GEODESIC_LEN2 else search.run
    value, found = _lexmin(search.pos, run, allowed, lexmin)
    ok, _ = is_position_set(idx, found)
    if not ok or (independent and not g.is_independent_mask(found)):
        raise InternalCheckError("position witness failed verification")
    ms = (time.perf_counter() - t0) * 1000.0
    return ParameterReport(
        parameter=name,
        value=value,
        witness=to_tuple(found),
        method="branch_and_bound",
        expansions=search.nodes,
        ms=ms,
    )


class GraphSolver:
    """The one front end for every parameter in :data:`PARAMETERS` and
    :data:`CLOSED_FORMS`.

    Reports are memoized, and one triple index per mode is shared between
    them.  ``report`` is the one place a report is finished: it times the
    builder, so ``ms`` covers any triple index the report built.  ``cap``
    goes unchanged to every exact routine but the polynomial hm, and each
    applies it itself: rho's search never runs past ``PARTITION_CAP``.  A
    limit raises and is kept like a report, so asking again re-raises it
    with no second search; callers that want a partial bundle catch
    ``LimitError``.  A cap or node limit below 1 is bad input.
    """

    def __init__(self, g: Graph, node_limit: int = NODE_LIMIT, lexmin: bool = False,
                 cap: int = SOLVER_CAP):
        require_positive(cap=cap, node_limit=node_limit)
        self.g = g
        self.node_limit = node_limit
        self.lexmin = lexmin
        self.cap = cap
        self._indexes: dict[PathMode, TripleIndex] = {}
        self._reports: dict[str, ParameterReport | LimitError] = {}

    def triple_index(self, mode: PathMode) -> TripleIndex:
        if mode not in self._indexes:
            self._indexes[mode] = build_triple_index(self.g, mode, cap=self.cap)
        return self._indexes[mode]

    def report(self, name: str) -> ParameterReport:
        if name not in self._reports:
            build = PARAMETERS.get(name) or CLOSED_FORMS.get(name)
            if build is None:
                raise InputError(f"unknown parameter {name!r}")
            t0 = time.perf_counter()
            try:
                rep = build(self, name)
                rep.ms = (time.perf_counter() - t0) * 1000.0
            except LimitError as exc:
                rep = exc
            self._reports[name] = rep
        rep = self._reports[name]
        if isinstance(rep, LimitError):
            raise rep
        return rep

    def value(self, name: str) -> int:
        return self.report(name).value

    def values(self) -> dict[str, int]:
        """The value of every report answered so far, by parameter name."""
        return {n: r.value for n, r in self._reports.items() if isinstance(r, ParameterReport)}


def _position(s: GraphSolver, name: str) -> ParameterReport:
    mode, independent = POSITION_PARAMS[name]
    return max_position_set(s.triple_index(mode), independent, s.node_limit, lexmin=s.lexmin)


def _invariant(method: str, fn):
    """Report builder for ``fn(g, cap, node_limit) -> (value, witness mask)``,
    or ``(value, witness mask, search nodes)`` for a search, whose nodes
    the report counts as ``expansions``."""
    def compute(s: GraphSolver, name: str) -> ParameterReport:
        value, mask, *nodes = fn(s.g, s.cap, s.node_limit)
        return ParameterReport(name, value, to_tuple(mask), method, sum(nodes), 0.0)
    return compute


def _simplicial(g: Graph, *_) -> tuple[int, int]:
    mask = simplicial_vertices(g)
    return mask.bit_count(), mask


def _cuts(g: Graph, *_) -> tuple[int, int]:
    mask = cut_vertices(g)
    return mask.bit_count(), mask


def _psi(g: Graph, *_) -> tuple[int, int]:
    bp, odd = bipartition(g)
    if bp is None:
        raise InputError(f"graph is not bipartite (odd cycle {odd})")
    return psi_uniform(g, bp)


def _phi(g: Graph, *_) -> tuple[int, int]:
    sp = split_partition(g)
    if sp is None:
        raise InputError("graph is not a split graph")
    return phi_separated(g, sp)


#: Parameter name -> report builder, in the order parameter_suite computes
#: them.  Names are resolved at call time, so the layer tracer sees each call
#: of a function it wraps.
PARAMETERS = {
    "omega": _invariant("branch_and_bound", lambda g, *limits: _independent_max(g, True, *limits)),
    "alpha": _invariant("branch_and_bound", lambda g, *limits: _independent_max(g, False, *limits)),
    "alphaomega": lambda s, name: replace(s.report("gp2"), parameter=name),
    "diss": _invariant("branch_and_bound",
                       lambda g, *limits: _common_neighbour_max(g, True, *limits)),
    "simplicial": _invariant("closed_form", _simplicial),
    "L": _invariant("induced_path_walk", lambda g, cap, _: (
        longest_induced_path_length(g, cap), 0)),
    "rho": _invariant("partition_search", lambda g, cap, _: (
        induced_path_partition(g, cap)[0], 0)),
    **{name: _position for name in POSITION_PARAMS},
    "hm": lambda s, name: hull_number(s.g),
}

#: Closed forms that ``report`` answers besides :data:`PARAMETERS`; psi and
#: phi are defined only on bipartite and split graphs, so
#: ``parameter_suite`` leaves all of them out.
CLOSED_FORMS = {
    name: _invariant("closed_form", fn) for name, fn in (
        ("cuts", _cuts),
        ("dh", lambda g, *_: (int(is_distance_hereditary(g)), 0)),
        ("diam", lambda g, *_: (diameter(g), 0)),
        ("psi", _psi),
        ("phi", _phi),
    )
}


BRUTE_FORCE_CAP = 12


def brute_force_position(g: Graph, mode: PathMode, independent: bool = False,
                         cap: int = BRUTE_FORCE_CAP) -> ParameterReport:
    """Subset-enumeration oracle used to certify the branch and bound.

    Scans every subset against the witnesses of :func:`build_triple_index`,
    with no use of ``_PositionSearch`` or ``_lexmin``.  The witness systems
    have twins of their own: the simple-path oracle for mono, and for geo
    and geo2 the shortest chordless paths (tests only).  ``cap`` can only
    lower ``BRUTE_FORCE_CAP``.
    """
    t0 = time.perf_counter()
    name = _position_name(mode, independent)
    cap = min(cap, BRUTE_FORCE_CAP)
    require_cap("brute force", cap, g.n)
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

    best, best_mask = oracle_max_subset(g, admissible, cap)
    ms = (time.perf_counter() - t0) * 1000.0
    return ParameterReport(
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

def hull_number(g: Graph) -> ParameterReport:
    """Smallest set whose monophonic hull is the whole vertex set, in
    polynomial time (Dourado, Protti & Szwarcfiter 2010, *DAM* 158).

    By Duchet's test, S is a hull set iff it meets every non-empty
    connected C whose neighbourhood is a clique.  Two non-adjacent vertices
    of a graph with no clique separator have hull V, so hm sums over the
    atoms of :func:`invariants.clique_separator_atoms`.  With U the part of
    atom A shared with other atoms, A adds nothing if U is not a clique;
    all of A - U if A is a clique; else the smallest vertex of A - U that
    misses a vertex of U; else the first non-adjacent pair of A - U.

    Of two sets of one size, the first in combination order holds the
    least element of their symmetric difference.  The parts A - U are
    disjoint, so the per-atom firsts unite to the first minimum hull set
    if the minimum hull sets are exactly the unions of per-atom choices.
    The tests diff value and witness against twins that read no atom:
    closure iteration on every connected graph of up to 7 vertices, a
    combination walk at 9-14, and a simplicial-seeded search (every hull
    set holds the simplicial vertices) on trees, unicyclic, block, split
    and G(n, p) graphs at 16, 32 and 64 and distance-hereditary graphs
    at 16 and 32, its reach within a budget of 5,000 sets tried.
    ``expansions`` counts atoms.
    """
    t0 = time.perf_counter()
    if not g.is_connected():
        raise InputError("hull_number requires a connected graph")
    atoms = clique_separator_atoms(g)
    seen = shared = 0
    for atom in atoms:
        shared |= seen & atom
        seen |= atom
    found = 0
    for atom in atoms:
        border = atom & shared
        private = atom & ~shared
        if not g.is_clique_mask(border):
            continue
        if g.is_clique_mask(atom):
            found |= private
            continue
        for v in iter_bits(private):
            if border & ~g.adj[v]:
                found |= bit(v)
                break
        else:
            for v in iter_bits(private):
                far = private & ~g.adj[v] & ~full_mask(v + 1)
                if far:
                    found |= bit(v) | (far & -far)
                    break
    if convex_hull(g, found) != g.full():
        raise InternalCheckError("hull witness failed verification")
    ms = (time.perf_counter() - t0) * 1000.0
    return ParameterReport("hm", found.bit_count(), to_tuple(found),
                           "separator_atoms", len(atoms), ms)


HULL_ORACLE_CAP = 12


def hull_number_oracle(g: Graph) -> int:
    """Plain cardinality-ascending hull search without any seeding or
    pruning; certifies :func:`hull_number` on graphs of up to
    ``HULL_ORACLE_CAP`` vertices."""
    if not g.is_connected():
        raise InputError("hull oracle requires a connected graph")
    require_cap("hull oracle", HULL_ORACLE_CAP, g.n)
    if g.n == 1:
        return 1
    cache = IntervalCache(g)
    full = g.full()
    for size in range(2, g.n + 1):
        for combo in combinations(range(g.n), size):
            hull, _ = monophonic_hull(g, mask_of(combo), cache)
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
