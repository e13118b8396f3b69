"""Correctness gate, run after the timed region.

Every value must equal the checked-in expected value, and every witness
must pass a check that does not reuse the solver's own structures:

* position sets (mp, imp, gp, igp, gp2): ``is_position_set`` on a freshly
  built triple index, plus ``is_independent_mask`` for imp and igp;
* hull sets: closure iteration (``monophonic_hull``) reaches every vertex;
* omega, alpha, alphaomega, diss: the defining property of the set;
* simplicial: the set equals ``simplicial_vertices``.

Expected values are also checked against every closed form that applies.
For ``verify``, each check's stable report and the whole stable report
must match their checked-in SHA-256 digests.
"""

from __future__ import annotations

from corpus import closed_forms, verify_digest

POSITION = {"mp": ("mono", False), "imp": ("mono", True), "gp": ("geo", False),
            "igp": ("geo", True), "gp2": ("geo2", False)}
VALUE_ONLY = {"L", "rho"}


def label(req: dict) -> str:
    return req.get("spec") or req["check"]


def param_names(workload: str, req: dict, expected: dict, i: int) -> list[str]:
    if workload == "verify":
        return [req["check"]]
    if workload == "suite-small":
        return sorted(expected["values"][i])
    return list(req["params"])


class _Fresh:
    """Independent structures for one graph, built on first use."""

    def __init__(self, g):
        from monopos.paths import IntervalCache

        self.g = g
        self.cache = IntervalCache(g)
        self.indexes = {}

    def index(self, mode: str):
        from monopos.solvers import PathMode, build_triple_index

        if mode not in self.indexes:
            self.indexes[mode] = build_triple_index(self.g, PathMode.from_string(mode), self.cache)
        return self.indexes[mode]


def witness_ok(fresh: _Fresh, name: str, value: int, witness: tuple[int, ...]) -> bool:
    from monopos.bitset import mask_of
    from monopos.invariants import max_degree_le_one, simplicial_vertices, unions_of_cliques
    from monopos.paths import monophonic_hull
    from monopos.solvers import is_position_set

    g = fresh.g
    if name in VALUE_ONLY:
        return witness == ()
    mask = mask_of(witness)
    if mask.bit_count() != value or len(witness) != value:
        return False
    if name in POSITION:
        mode, independent = POSITION[name]
        ok, _ = is_position_set(fresh.index(mode), mask)
        return ok and (not independent or g.is_independent_mask(mask))
    if name == "hm":
        return monophonic_hull(g, mask, fresh.cache)[0] == g.full()
    if name == "omega":
        return g.is_clique_mask(mask)
    if name == "alpha":
        return g.is_independent_mask(mask)
    if name == "alphaomega":
        return unions_of_cliques(g, mask)
    if name == "diss":
        return max_degree_le_one(g, mask)
    if name == "simplicial":
        return mask == simplicial_vertices(g)
    return False


def check_first_pass(workload: str, doc: dict, graphs, expected: dict,
                     answers: dict) -> dict[int, dict[str, str]]:
    """Request index -> {parameter: reason} for every rejected parameter."""
    reqs = doc["requests"]
    if workload == "verify":
        return _check_verify(doc, expected, answers)
    bad: dict[int, dict[str, str]] = {}
    for i, (results, skipped) in answers.items():
        g = graphs[i]
        want = expected["values"][i]
        forms = closed_forms(reqs[i]["spec"], g)
        fresh = _Fresh(g)
        for name in param_names(workload, reqs[i], expected, i):
            why = None
            if name in skipped:
                why = "skipped by a cap"
            elif name not in results:
                why = "missing from the answer"
            elif name in forms and forms[name] != want[name]:
                why = f"expected value {want[name]} disagrees with closed form {forms[name]}"
            elif results[name][0] != want[name]:
                why = f"value {results[name][0]}, expected {want[name]}"
            elif not witness_ok(fresh, name, *results[name]):
                why = f"invalid witness {results[name][1]}"
            if why:
                bad.setdefault(i, {})[name] = why
    return bad


def _check_verify(doc: dict, expected: dict, answers: dict) -> dict[int, dict[str, str]]:
    from monopos import __version__
    from monopos.harness import RunReport

    reqs = doc["requests"]
    bad: dict[int, dict[str, str]] = {}
    for i, outcome in answers.items():
        cid = reqs[i]["check"]
        if outcome.status != "pass":
            bad[i] = {cid: f"status {outcome.status}: {outcome.failures[:2] or outcome.notes}"}
        elif verify_digest(outcome.stable_dict()) != expected["checks"][cid]:
            bad[i] = {cid: "stable report differs from the checked-in digest"}
    if len(answers) == len(reqs):
        report = RunReport(__version__, tuple(doc["harness_seeds"]), doc["profile"],
                           [answers[i] for i in range(len(reqs))], 0.0)
        if verify_digest(report.stable_dict()) != expected["report_digest"]:
            for i, req in enumerate(reqs):
                bad.setdefault(i, {})[req["check"]] = "whole stable report differs from its digest"
    return bad
