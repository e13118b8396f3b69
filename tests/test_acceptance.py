"""Acceptance gate: every criterion below runs at its stated tolerance
(values are exact integers; time limits are wall-clock) and prints one
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import hashlib
import json
import time
from pathlib import Path

import pytest

from monopos.families import heawood_graph, mcgee_graph, petersen_graph
from monopos.harness import run_suite
from monopos.solvers import GraphSolver

CRITERIA_TIMINGS = {}


@pytest.fixture(scope="module")
def suite():
    t0 = time.perf_counter()
    report = run_suite(profile="default", seeds=(1,))
    CRITERIA_TIMINGS["full_suite"] = time.perf_counter() - t0
    return report


def _line(num, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_1_cage_values(suite):
    ok = True
    timings = {}
    for name, builder, want in (("petersen", petersen_graph, 3),
                                ("heawood", heawood_graph, 3),
                                ("mcgee", mcgee_graph, 2)):
        t0 = time.perf_counter()
        got = GraphSolver(builder()).value("mp")
        dt = time.perf_counter() - t0
        timings[name] = dt
        ok = ok and got == want and dt < 60.0
    out = suite.outcome("cages-mp")
    ok = ok and out.status == "pass"
    _line(1, ok, "mp(Petersen)=3, mp(Heawood)=3, mp(McGee)=2, each under 60 s "
          f"(times: {', '.join(f'{k} {v:.2f}s' for k, v in timings.items())})")


def test_criterion_2_petersen_gp(suite):
    t0 = time.perf_counter()
    s = GraphSolver(petersen_graph())
    gp = s.value("gp")
    mp = s.value("mp")
    dt = time.perf_counter() - t0
    chain = s.value("imp") <= mp <= gp and s.value("imp") <= s.value("igp") <= gp
    ok = gp == 6 and mp <= gp and chain and dt < 10.0
    _line(2, ok, f"gp(Petersen)=6 with mp<=gp chain, in {dt:.2f}s")


def test_criterion_3_oracle_equivalence(suite):
    out = suite.outcome("solver-oracle-agreement")
    ok = out.status == "pass" and out.instances >= 500 and not out.failures
    _line(3, ok, f"branch-and-bound equals subset enumeration for mp, gp, gp2, imp, igp "
          f"on {out.instances} graphs (need >= 500), zero discrepancies")


def test_criterion_4_family_formulas(suite):
    pieces = {
        "block-graph-simplicial": 0,
        "multipartite-formula": 0,
        "unicyclic-formula": 200,
        "corona-formula": 100,
        "join-formula": 100,
        "bipartite-complement-formula": 0,
        "tree-complement-formula": 0,
        "grid-complement-convention": 0,
        "hypercube-complement-formula": 0,
        "split-phi-formula": 200,
        "hall-equality-condition": 0,
    }
    ok = True
    detail = []
    for cid, need in pieces.items():
        out = suite.outcome(cid)
        good = out.status == "pass" and out.instances >= need
        ok = ok and good
        detail.append(f"{cid}:{out.instances}")
    _line(4, ok, "family formulas exact on all corpora (" + ", ".join(detail) + ")")


def test_criterion_5_bound_suite(suite):
    ids = ("longest-path-bound", "path-partition-bound", "cut-vertex-bound",
           "simplicial-lower-bound", "triangle-free-alpha", "cubic-bound")
    ok = all(suite.outcome(cid).status == "pass" for cid in ids)
    _line(5, ok, "bound suite holds with zero violations: " + ", ".join(ids))


def test_criterion_6_pendant_lemmas(suite):
    out = suite.outcome("pendant-step")
    ok = (out.status == "pass" and out.instances >= 300
          and out.notes.get("simplicial_anchor_samples", 0) > 0)
    _line(6, ok, f"pendant additions change mp by 0/1 over {out.instances} samples "
          f"({out.notes.get('simplicial_anchor_samples')} simplicial anchors, all unchanged)")


def test_criterion_7_realization_tables(suite):
    ok = True
    for cid in ("mp-gp-realization", "igp-mp-realization", "dissociation-gp2-values",
                "hull-realization"):
        ok = ok and suite.outcome(cid).status == "pass"
    mp_gp = suite.outcome("mp-gp-realization")
    ok = ok and mp_gp.instances == 28  # all pairs 2 <= a <= b <= 8
    diss = suite.outcome("dissociation-gp2-values")
    ok = ok and bool(diss.notes.get("corrected_row"))  # the a=2 deviation is on record
    hull = suite.outcome("hull-realization")
    ok = ok and len(hull.notes.get("realized_pairs", [])) >= 28
    _line(7, ok, "realization tables verified: 28 (mp,gp) pairs, igp/mp table, "
          "diss/gp2 rows (a=2 correction documented), (hull,mp) pairs at order <= 14")


def test_criterion_8_reduction(suite):
    out = suite.outcome("clique-reduction")
    ok = (out.status == "pass" and out.notes.get("sources", 0) >= 100
          and out.seconds < 300.0 and not out.failures)
    _line(8, ok, f"reduction identity and yes/no agreement on {out.notes.get('sources')} "
          f"sources, every k, in {out.seconds:.1f}s (limit 300s)")


def test_criterion_9_hull_machinery(suite):
    out = suite.outcome("hull-invariants")
    ok = (out.status == "pass" and out.notes.get("tree_instances", 0) >= 100)
    _line(9, ok, f"hull number below mp, witnesses contain simplicial vertices and are "
          f"position sets; leaf count on {out.notes.get('tree_instances')} trees")


def test_criterion_10_determinism_and_format(suite):
    out = suite.outcome("graph6-roundtrip")
    ok = out.status == "pass"
    ids = ["graph6-roundtrip", "unicyclic-formula", "cages-mp", "split-phi-formula"]
    again = run_suite(ids, profile="default", seeds=(1,))
    for cid in ids:
        a = json.dumps(suite.outcome(cid).stable_dict(), sort_keys=True)
        b = json.dumps(again.outcome(cid).stable_dict(), sort_keys=True)
        ok = ok and a == b
    third = run_suite(ids, profile="default", seeds=(1,))
    ok = ok and again.to_json(stable=True) == third.to_json(stable=True)
    total = CRITERIA_TIMINGS.get("full_suite", 1e9)
    ok = ok and total < 600.0
    _line(10, ok, f"byte-stable reports under fixed seeds, graph6 round-trip clean, "
          f"full default suite in {total:.1f}s (limit 600s)")


def test_suite_all_checks_pass(suite):
    bad = [o.check_id for o in suite.outcomes if o.status != "pass"]
    print(f"[{'PASS' if not bad else 'FAIL'}] full verification suite: "
          f"{len(suite.outcomes) - len(bad)}/{len(suite.outcomes)} checks green")
    assert not bad, f"failing checks: {bad}"


def _digest(stable_doc: dict) -> str:
    return hashlib.sha256(json.dumps(stable_doc, sort_keys=True).encode()).hexdigest()


def test_behaviour_gate_matches_checked_in_digests(suite):
    """The stable verify report under seed 1, per check and whole, hashes to
    the digests checked in with the benchmark corpus."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "verify.expected.json"
    expected = json.loads(path.read_text())
    got = {o.check_id: _digest(o.stable_dict()) for o in suite.outcomes}
    differ = sorted(cid for cid in expected["checks"] if got.get(cid) != expected["checks"][cid])
    ok = not differ and got.keys() == expected["checks"].keys()
    ok = ok and _digest(suite.stable_dict()) == expected["report_digest"]
    _line(11, ok, f"stable verify report matches the checked-in digests "
          f"({len(got) - len(differ)}/{len(expected['checks'])} checks)")


def test_package_imports_only_the_standard_library():
    """The package has no runtime dependency: each module under src/monopos
    imports the standard library or monopos itself, nothing else."""
    import ast
    import sys

    src = Path(__file__).resolve().parents[1] / "src" / "monopos"
    foreign = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign |= {f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names | {"monopos"}}
    assert not foreign, sorted(foreign)


def test_package_modules_read_every_name_they_import():
    """Each module under src/monopos but ``__init__.py``, which re-exports,
    reads every name it imports."""
    import ast

    src = Path(__file__).resolve().parents[1] / "src" / "monopos"
    unused = set()
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused |= {f"{path.name}: {name}" for name in imported - read}
    assert not unused, sorted(unused)


def test_no_nested_function_calls_itself():
    """A recursive helper under src/monopos lives at module level: a nested
    function that calls itself holds its own closure cell, a reference cycle
    that only the cyclic collector frees."""
    import ast

    src = Path(__file__).resolve().parents[1] / "src" / "monopos"
    recursive = []
    for path in sorted(src.glob("*.py")):
        for outer in ast.walk(ast.parse(path.read_text())):
            if not isinstance(outer, ast.FunctionDef):
                continue
            for inner in ast.walk(outer):
                if inner is outer or not isinstance(inner, ast.FunctionDef):
                    continue
                if any(isinstance(call, ast.Call) and getattr(call.func, "id", None) == inner.name
                       for call in ast.walk(inner)):
                    recursive.append(f"{path.name}: {outer.name}.{inner.name}")
    assert not recursive, sorted(set(recursive))


def test_package_definitions_are_named_elsewhere():
    """Every top-level function and class under src/monopos is named somewhere
    besides its own definition, in src/, tests/ or perfbench/: as a name, an
    attribute, an import or a string such as the tracer's function names.
    Dunders and functions registered by a decorator of their module are exempt,
    and a re-export in ``__init__.py`` is not a use."""
    import ast

    root = Path(__file__).resolve().parents[1]
    trees = {path: ast.parse(path.read_text())
             for folder in ("src", "tests", "perfbench") for path in (root / folder).rglob("*.py")
             if path.name != "__init__.py"}

    def named(nodes) -> set[str]:
        out = set()
        for node in nodes:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    out.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    out.add(sub.attr)
                elif isinstance(sub, ast.alias):
                    out.add(sub.name)
                elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    out.add(sub.value)
        return out

    everywhere = {path: named([tree]) for path, tree in trees.items()}
    unused = []
    for path, tree in trees.items():
        if path.parent != root / "src" / "monopos":
            continue
        local = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("__"):
                continue
            if any(isinstance(d, ast.Call) and getattr(d.func, "id", None) in local
                   for d in node.decorator_list):
                continue
            others = [names for other, names in everywhere.items() if other != path]
            others.append(named(n for n in tree.body if n is not node))
            if not any(node.name in names for names in others):
                unused.append(f"{path.name}: {node.name}")
    assert not unused, unused
