import json
import os
import random
from dataclasses import replace
from pathlib import Path

import pytest
from conftest import connected_graphs

import monopos.families as fam
import monopos.harness as harness
import monopos.solvers as solvers
from monopos.cli import main
from monopos.errors import InputError, LimitError
from monopos.families import GRAPH_FORMS, PredictedValue
from monopos.graph import complement, cycle_graph
from monopos.graph6 import emit_graph6
from monopos.solvers import GraphSolver
from monopos.harness import BOUNDS, available_checks, run_check, run_suite


def test_registry_nonempty_unique():
    ids = [cid for cid, _ in available_checks()]
    assert len(ids) == len(set(ids)) >= 30


def test_unknown_check_rejected():
    with pytest.raises(InputError):
        run_suite(["no-such-check"])
    with pytest.raises(InputError):
        run_check("nope")
    with pytest.raises(InputError):
        run_check("cages-mp", profile="extreme")


@pytest.mark.parametrize("jobs", [0, -3])
def test_run_suite_refuses_fewer_than_one_job(jobs):
    with pytest.raises(InputError, match="jobs must be at least 1"):
        run_suite(["cages-mp"], jobs=jobs)


@pytest.mark.parametrize("ids, seeds, message", [
    (["cages-mp"], (1, 1), "distinct integers"), (["cages-mp", "cages-mp"], (1,), "distinct"),
    (["cages-mp"], (), "one or more")], ids=["repeated-seed", "repeated-check", "no-seed"])
def test_run_suite_refuses_repeats_and_no_seeds(ids, seeds, message):
    with pytest.raises(InputError, match=message):
        run_suite(ids, seeds=seeds)


@pytest.mark.parametrize("args", [("--check", "cages-mp", "--seed", "1,1"),
                                  ("--check", "cages-mp,cages-mp")])
def test_cli_verify_refuses_repeats(capsys, args):
    code, out, err = run_cli(capsys, "verify", *args)
    assert code == 2 and out == "" and "distinct" in err


def test_run_report_determinism():
    ids = ["cages-mp", "multipartite-formula", "unicyclic-formula", "graph6-roundtrip"]
    a = run_suite(ids, seeds=(7,), profile="quick")
    b = run_suite(ids, seeds=(7,), profile="quick")
    assert a.to_json(stable=True) == b.to_json(stable=True)
    c = run_suite(ids, seeds=(8,), profile="quick")
    assert a.outcome("cages-mp").status == c.outcome("cages-mp").status == "pass"


def test_check_order_matches_the_verify_corpus():
    """The benchmark's verify workload lists every check in registry order."""
    corpus = Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "verify.json"
    requests = json.loads(corpus.read_text())["requests"]
    assert [cid for cid, _ in available_checks()] == [r["check"] for r in requests]


def test_interval_check_catches_a_geo_witness_mutant(monkeypatch):
    """A geo index that drops vertex n-1 from every witness fails the check
    that lists each pair's chordless paths."""
    from monopos.solvers import PathMode, build_triple_index

    def mutant(g, mode, *args, **kwargs):
        idx = build_triple_index(g, mode, *args, **kwargs)
        if mode is PathMode.GEODESIC:
            idx.witness = [[w & ~(1 << (g.n - 1)) for w in row] for row in idx.witness]
        return idx

    assert run_check("interval-oracle-agreement", profile="quick").status == "pass"
    monkeypatch.setattr(harness, "build_triple_index", mutant)
    out = run_check("interval-oracle-agreement", profile="quick")
    assert out.status == "fail"
    assert {f["mode"] for f in out.failures} == {"geo"}


def test_interval_check_catches_a_mono_witness_mutant(monkeypatch):
    """The mono index that the position search reads is diffed too: one
    witness bit dropped from it fails the check."""
    import monopos.solvers as solvers

    real = solvers.monophonic_witnesses

    def mutant(g, *args):
        witness = real(g, *args)
        for x, row in enumerate(witness):
            for z, w in enumerate(row):
                if w:
                    witness[x][z] = witness[z][x] = w & (w - 1)
                    return witness
        return witness

    monkeypatch.setattr(solvers, "monophonic_witnesses", mutant)
    out = run_check("interval-oracle-agreement", profile="quick")
    assert out.status == "fail"
    assert {f["mode"] for f in out.failures} == {"mono"}


FORMULA_CHECKS = ["block-graph-simplicial", "multipartite-formula", "unicyclic-formula",
                  "corona-formula", "join-formula", "gp-join-corona-formula",
                  "bipartite-complement-formula", "tree-complement-formula",
                  "hypercube-complement-formula"]


def test_formula_checks_read_the_complement_exactly_where_named(monkeypatch):
    """With the complement replaced by the graph itself, the three checks of
    ``_complement`` values fail and the other formula checks still pass."""
    assert run_suite(FORMULA_CHECKS, profile="quick").passed
    monkeypatch.setattr(harness, "complement", lambda g: g)
    report = run_suite(FORMULA_CHECKS, profile="quick")
    assert {o.check_id for o in report.outcomes if o.status == "fail"} == {
        "bipartite-complement-formula", "tree-complement-formula",
        "hypercube-complement-formula"}


def _rewired(monkeypatch, check_id, sample, predict):
    """Run ``check_id`` over its own sampler with ``predict`` in place of its
    predictor, in a copy of the registry."""
    monkeypatch.setattr(harness, "_REGISTRY", dict(harness._REGISTRY))
    harness.formula(check_id, dict(available_checks())[check_id], predict)(sample)
    return run_check(check_id, profile="quick")


def test_formula_check_fails_an_off_by_one_predictor(monkeypatch):
    form = GRAPH_FORMS["block"]
    out = _rewired(monkeypatch, "block-graph-simplicial", harness._sample_block,
                   lambda g: [replace(pv, value=pv.value + 1) for pv in form(g)])
    assert out.status == "fail"
    assert len(out.failures) == 3 * out.instances  # mp, gp and hm of every case
    assert all(f["want"] == f["got"] + 1 and f["args"] == [] for f in out.failures)


def test_run_check_reports_a_refusing_sampler_as_skipped(monkeypatch):
    monkeypatch.setattr(harness, "_REGISTRY", dict(harness._REGISTRY))

    @harness.check("throwaway-limit", "a sampler that refuses")
    def _sampler(rng, scale):
        raise LimitError("sampler refused at order 99")

    out = run_check("throwaway-limit")
    assert (out.status, out.instances, out.failures) == ("skipped", 0, [])
    assert out.notes == {"limit": "sampler refused at order 99"}


def _refuses(*_):
    raise InputError("outside the class")


@pytest.mark.parametrize("predict, reason", [(lambda *_: [], "no closed form applies"),
                                             (_refuses, "outside the class")],
                         ids=["empty", "refused"])
def test_formula_check_fails_a_case_with_no_prediction(monkeypatch, predict, reason):
    out = _rewired(monkeypatch, "corona-formula", harness._sample_corona, predict)
    assert out.status == "fail" and len(out.failures) == out.instances
    assert {f["reason"] for f in out.failures} == {reason}
    kind, base, inner = out.failures[0]["args"]
    assert kind == "corona" and isinstance(base, str) and isinstance(inner, str)


def test_formula_notes_see_the_solved_values(monkeypatch):
    """``notes`` gets ``(args, got)`` per case, with the solver's values, also
    where they differ from the prediction."""
    def predict(g, k):
        return [PredictedValue("mp", 2, "cycle", ""),
                PredictedValue("gp_complement", 0, "none", "")]

    monkeypatch.setattr(harness, "_REGISTRY", dict(harness._REGISTRY))
    harness.formula("throwaway", "notes list what was solved", predict,
                    notes=lambda solved: {"solved": solved})(
        lambda rng, scale: [(cycle_graph(k), (k,)) for k in (4, 5, 6)])
    out = run_check("throwaway")
    assert out.notes["solved"] == [
        ((k,), {"mp": 2, "gp_complement": GraphSolver(complement(cycle_graph(k))).value("gp")})
        for k in (4, 5, 6)]
    assert [f["parameter"] for f in out.failures] == ["gp_complement"] * 3


def _bumped(monkeypatch, family, parameter):
    """Replace ``family``'s closed forms by a copy with ``parameter`` one higher."""
    entry = fam.FAMILIES[family]

    def predict(*args):
        return [replace(pv, value=pv.value + (pv.parameter == parameter))
                for pv in entry.predict(*args)]

    monkeypatch.setitem(fam.FAMILIES, family, entry._replace(predict=predict))


@pytest.mark.parametrize("family, parameter, check_id", [
    ("half_wheel", "gp", "mp-gp-realization"),
    ("G_abl", "hm", "hull-realization"),
    ("R_graph", "igp", "igp-mp-realization")])
def test_realization_checks_compare_what_family_prints(monkeypatch, family, parameter, check_id):
    """A family's closed form one off fails the realization table that
    names the family."""
    assert run_check(check_id, profile="quick").status == "pass"
    _bumped(monkeypatch, family, parameter)
    out = run_check(check_id, profile="quick")
    assert out.status == "fail"
    assert {(f["parameter"], f["args"][-1].split(":")[0]) for f in out.failures} == {
        (parameter, family)}
    assert all(f["want"] == f["got"] + 1 for f in out.failures)


def test_bounds_census_on_small_connected_graphs():
    """Every BOUNDS row holds on every connected graph of up to 7 vertices:
    a row is true outside the class it is stated for."""
    for g in connected_graphs(7):
        s = GraphSolver(g)
        assert [label for label, row in BOUNDS.items() if not row(s)] == [], emit_graph6(g)


def test_relation_check_fails_a_false_row(monkeypatch):
    """With mp reported one too high, the chain rows that bound mp from above
    fail, each entry naming its relation and the values the rows solved."""
    real = solvers.PARAMETERS["mp"]

    def one_high(s, name):
        rep = real(s, name)
        return replace(rep, value=rep.value + 1)

    assert run_check("position-chains", profile="quick").status == "pass"
    monkeypatch.setitem(solvers.PARAMETERS, "mp", one_high)
    out = run_check("position-chains", profile="quick")
    assert out.status == "fail"
    assert {f["relation"] for f in out.failures} == {
        "mp <= gp", "2 <= mp <= n", "mp == n iff complete"}
    for f in out.failures:
        assert f.keys() == {"relation", "values", "graph6"}
        assert f["values"].keys() == {"mp", "gp", "gp2", "imp", "igp", "diss"}
    assert any(f["values"]["mp"] > f["values"]["gp"] for f in out.failures)


def test_relation_notes_see_the_solved_values(monkeypatch):
    """``notes`` gets ``(g, rows, values)`` per case, in case order, with the
    value of every parameter a row read."""
    rows = ("hm <= mp", "mp <= gp")
    monkeypatch.setattr(harness, "_REGISTRY", dict(harness._REGISTRY))
    harness.relation("throwaway", "notes list what was solved",
                     notes=lambda solved: {"solved": solved})(
        lambda rng, scale: [(cycle_graph(k), rows) for k in (4, 5, 6)])
    out = run_check("throwaway")
    assert out.status == "pass" and out.instances == 3
    assert out.notes["solved"] == [
        (cycle_graph(k), rows, {p: GraphSolver(cycle_graph(k)).value(p)
                                for p in ("hm", "mp", "gp")}) for k in (4, 5, 6)]


def test_order_minus_one_constructions_have_the_shape():
    """The constructions that order-minus-one-structure samples reach mp = n - 1
    through its iff row only where the recognizer accepts them."""
    graphs = harness._order_minus_one_shapes(random.Random(5), 200)
    assert all(harness._is_order_minus_one_shape(g) for g in graphs)
    assert all(GraphSolver(g).value("mp") == g.n - 1 for g in graphs)


def test_multi_seed_merge():
    rep = run_suite(["multipartite-formula"], seeds=(1, 2), profile="quick")
    out = rep.outcome("multipartite-formula")
    assert out.status == "pass"
    single = run_suite(["multipartite-formula"], seeds=(1,), profile="quick")
    assert out.instances == 2 * single.outcome("multipartite-formula").instances


def test_quick_profile_subset_passes():
    ids = ["dh-mp-equals-gp", "split-phi-formula", "hall-equality-condition",
           "hull-invariants", "clique-reduction"]
    rep = run_suite(ids, profile="quick")
    assert rep.passed, rep.to_json(indent=2)


def test_parallel_jobs_match_sequential():
    ids = ["multipartite-formula", "cages-mp"]
    seq = run_suite(ids, profile="quick", jobs=1)
    par = run_suite(ids, profile="quick", jobs=2)
    assert seq.to_json(stable=True) == par.to_json(stable=True)


# -- command line ----------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_compute_petersen(tmp_path, capsys):
    from monopos.families import petersen_graph
    from monopos.graph6 import emit_graph6

    path = tmp_path / "petersen.g6"
    path.write_text(emit_graph6(petersen_graph()) + "\n")
    code, out, _ = run_cli(capsys, "compute", str(path), "--param", "mp,gp", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    values = {p["parameter"]: p["value"] for p in doc["parameters"]}
    assert values == {"mp": 3, "gp": 6}


def test_cli_compute_edge_list(tmp_path, capsys):
    path = tmp_path / "c5.txt"
    path.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
    code, out, _ = run_cli(capsys, "compute", str(path), "--param", "mp,hm")
    assert code == 0
    assert "mp = 2" in out and "hm = 2" in out


@pytest.mark.parametrize("input_format", ["auto", "edges"])
def test_cli_compute_reads_a_commented_edge_list(capsys, monkeypatch, input_format):
    """Format detection skips the comment lines that the edge-list parser skips."""
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("# a path\n\n3 2\n# its edges\n0 1\n1 2\n"))
    code, out, err = run_cli(capsys, "compute", "-", "--input", input_format)
    assert (code, err) == (0, "")
    assert "mp = 2" in out


def test_cli_compute_hm_takes_no_cap(tmp_path, capsys):
    import random

    from monopos.families import random_tree
    from monopos.graph6 import emit_graph6

    path = tmp_path / "tree70.g6"
    path.write_text(emit_graph6(random_tree(70, random.Random(5))) + "\n")
    for extra in ((), ("--cap", "5")):
        code, out, _ = run_cli(capsys, "compute", str(path), "--param", "hm", "--format", "json",
                               *extra)
        assert code == 0 and json.loads(out)["parameters"][0]["value"] == 27


def test_cli_compute_all(tmp_path, capsys):
    path = tmp_path / "c6.g6"
    from monopos.graph import cycle_graph
    from monopos.graph6 import emit_graph6

    path.write_text(emit_graph6(cycle_graph(6)) + "\n")
    code, out, _ = run_cli(capsys, "compute", str(path), "--param", "all", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    values = {p["parameter"]: p["value"] for p in doc["parameters"]}
    assert values["mp"] == 2 and values["gp"] == 3 and values["alpha"] == 3
    assert values["hm"] == 2 and values["rho"] == 2


def test_cli_family(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "family", "half_wheel:4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 9
    assert {p["parameter"]: p["value"] for p in doc["predictions"]} == {"mp": 2, "gp": 4}
    code, out, _ = run_cli(capsys, "family", "G_abl:3,5,2", "--out", str(tmp_path))
    assert code == 0
    written = list(tmp_path.glob("*.g6"))
    assert len(written) == 1
    sidecar = json.loads(written[0].with_suffix(".json").read_text())
    assert sidecar["order"] == 8


def test_cli_family_domain_error(capsys):
    code, _, err = run_cli(capsys, "family", "half_wheel:1")
    assert code == 2 and "error" in err


def test_cli_family_seed_determinism(capsys):
    _, out1, _ = run_cli(capsys, "family", "random_tree:8", "--seed", "3", "--format", "json")
    _, out2, _ = run_cli(capsys, "family", "random_tree:8:seed=3", "--format", "json")
    assert json.loads(out1) == json.loads(out2)


def test_cli_family_leafless_r_graph(capsys):
    # R(0, s) is the clique K_{s+1}: mp and gp2 are s + 1 and igp is 1
    code, out, _ = run_cli(capsys, "family", "R_graph:0,3", "--format", "json")
    preds = {p["parameter"]: p["value"] for p in json.loads(out)["predictions"]}
    assert code == 0
    assert (preds["gp2"], preds["mp"], preds["igp"]) == (4, 4, 1)


@pytest.mark.parametrize("param", ["omega", "alpha", "alphaomega", "diss"])
def test_cli_clique_type_invariants_obey_the_limits(tmp_path, capsys, param):
    from monopos.families import petersen_graph
    from monopos.graph6 import emit_graph6

    path = tmp_path / "petersen.g6"
    path.write_text(emit_graph6(petersen_graph()) + "\n")
    code, _, err = run_cli(capsys, "compute", str(path), "--param", param, "--node-limit", "1")
    assert code == 3 and "node limit" in err
    code, _, err = run_cli(capsys, "compute", str(path), "--param", param, "--cap", "5")
    assert code == 3 and "cap" in err
    code, out, _ = run_cli(capsys, "compute", str(path), "--param", param, "--format", "json")
    assert code == 0 and json.loads(out)["parameters"][0]["parameter"] == param


def test_cli_oracle(tmp_path, capsys):
    from monopos.graph import cycle_graph
    from monopos.graph6 import emit_graph6

    path = tmp_path / "c6.g6"
    path.write_text(emit_graph6(cycle_graph(6)) + "\n")
    code, out, _ = run_cli(capsys, "oracle", str(path), "--mode", "geo", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["parameter"] == "gp" and doc["value"] == 3 and doc["method"] == "oracle"


def test_cli_oracle_cap_exit_code(tmp_path, capsys):
    from monopos.graph import path_graph
    from monopos.graph6 import emit_graph6

    path = tmp_path / "p13.g6"
    path.write_text(emit_graph6(path_graph(13)) + "\n")
    code, _, err = run_cli(capsys, "oracle", str(path))
    assert code == 3 and "cap" in err


def test_cli_reduce(tmp_path, capsys):
    from monopos.graph import cycle_graph
    from monopos.graph6 import emit_graph6

    path = tmp_path / "c5.g6"
    path.write_text(emit_graph6(cycle_graph(5)) + "\n")
    code, out, _ = run_cli(capsys, "reduce", str(path), "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["k_prime"] == 8 and doc["identity_holds"] and doc["answers_agree"]
    assert doc["mp_product"] == 7


def test_cli_reduce_honours_cap(tmp_path, capsys):
    # 33 source vertices make a 66-vertex product, above the default cap 64
    import random

    from monopos.families import random_connected_graph
    from monopos.graph6 import emit_graph6

    path = tmp_path / "g33.g6"
    path.write_text(emit_graph6(random_connected_graph(33, random.Random(5), 0.2)) + "\n")
    code, _, err = run_cli(capsys, "reduce", str(path), "3")
    assert code == 3 and "cap 64" in err
    code, out, _ = run_cli(capsys, "reduce", str(path), "3", "--cap", "66", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["identity_holds"] and doc["answers_agree"]


def test_cli_compute_closed_forms(tmp_path, capsys):
    from monopos.graph import cycle_graph, path_graph
    from monopos.graph6 import emit_graph6

    path = tmp_path / "p4.g6"
    path.write_text(emit_graph6(path_graph(4)) + "\n")
    code, out, _ = run_cli(capsys, "compute", str(path), "--param", "cuts,dh,diam,psi,phi",
                           "--format", "json")
    assert code == 0
    got = {p["parameter"]: (p["value"], p["witness"], p["method"])
           for p in json.loads(out)["parameters"]}
    assert got == {"cuts": (2, [1, 2], "closed_form"), "dh": (1, [], "closed_form"),
                   "diam": (3, [], "closed_form"), "psi": (2, [0, 1], "closed_form"),
                   "phi": (2, [0, 1], "closed_form")}
    path = tmp_path / "c5.g6"
    path.write_text(emit_graph6(cycle_graph(5)) + "\n")
    code, _, err = run_cli(capsys, "compute", str(path), "--param", "psi")
    assert code == 2 and "not bipartite" in err


def test_cli_compute_answers_closed_forms_through_the_solver(tmp_path, capsys, monkeypatch):
    from monopos.graph import path_graph
    from monopos.graph6 import emit_graph6
    from monopos.solvers import GraphSolver

    real = GraphSolver.report
    asked = []

    def report(self, name):
        asked.append(name)
        return real(self, name)

    monkeypatch.setattr(GraphSolver, "report", report)
    path = tmp_path / "p4.g6"
    path.write_text(emit_graph6(path_graph(4)) + "\n")
    code, out, _ = run_cli(capsys, "compute", str(path), "--param", "cuts,psi,phi",
                           "--format", "json")
    assert code == 0 and asked == ["cuts", "psi", "phi"]
    assert [p["parameter"] for p in json.loads(out)["parameters"]] == asked


def test_cli_json_names_the_graph_once(tmp_path, capsys):
    from monopos.graph import cycle_graph
    from monopos.graph6 import emit_graph6

    token = emit_graph6(cycle_graph(6))
    path = tmp_path / "c6.g6"
    path.write_text(token + "\n")
    for param in ("mp,hm,cuts", "all"):
        code, out, _ = run_cli(capsys, "compute", str(path), "--param", param,
                               "--format", "json")
        doc = json.loads(out)
        assert code == 0 and doc["graph6"] == token and doc["parameters"], param
        assert all("graph_id" not in p for p in doc["parameters"]), param
    code, out, _ = run_cli(capsys, "oracle", str(path), "--format", "json")
    doc = json.loads(out)
    assert code == 0 and doc["graph6"] == token and "graph_id" not in doc
    assert (doc["parameter"], doc["value"]) == ("mp", 2)


def test_cli_paths(tmp_path, capsys):
    from monopos.graph import cycle_graph
    from monopos.graph6 import emit_graph6

    path = tmp_path / "c5.g6"
    path.write_text(emit_graph6(cycle_graph(5)) + "\n")
    code, out, _ = run_cli(capsys, "paths", str(path), "--interval", "0", "2",
                           "--hull", "0,2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["interval"]["vertices"] == [0, 1, 2, 3, 4]
    assert doc["hull"]["vertices"] == [0, 1, 2, 3, 4] and doc["hull"]["iterations"] == 1
    code, _, err = run_cli(capsys, "paths", str(path))
    assert code == 2


def test_cli_paths_closure_and_interior(tmp_path, capsys):
    path = tmp_path / "p4.g6"
    path.write_text(emit_graph6(fam.path_graph(4)) + "\n")
    argv = ("paths", str(path), "--closure", "0,2", "--interior", "0,1,2")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.splitlines() == ["closure([0, 2]) = [0, 1, 2]", "interior([0, 1, 2]) = [1]"]
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc["closure"] == {"set": [0, 2], "vertices": [0, 1, 2]}
    assert doc["interior"] == {"set": [0, 1, 2], "vertices": [1]}


@pytest.mark.parametrize("flag", ["--closure", "--hull", "--interior"])
def test_cli_paths_echoes_a_repeated_vertex_once(tmp_path, capsys, flag):
    path = tmp_path / "p4.g6"
    path.write_text(emit_graph6(fam.path_graph(4)) + "\n")
    code, out, _ = run_cli(capsys, "paths", str(path), flag, "2,0,0")
    assert code == 0 and out.startswith(f"{flag[2:]}([0, 2]) = ")
    code, out, _ = run_cli(capsys, "paths", str(path), flag, "2,0,0", "--format", "json")
    assert code == 0 and json.loads(out)[flag[2:]]["set"] == [0, 2]


@pytest.mark.parametrize("flag", [["--interval", "0", "99"], ["--interval", "-1", "2"],
                                  ["--closure", "0,99"], ["--hull", "0,99"],
                                  ["--interior", "0,99"]],
                         ids=["interval", "interval-negative", "closure", "hull", "interior"])
def test_cli_paths_rejects_vertices_outside_the_graph(tmp_path, capsys, flag):
    path = tmp_path / "c5.g6"
    path.write_text(emit_graph6(cycle_graph(5)) + "\n")
    code, out, err = run_cli(capsys, "paths", str(path), *flag)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag[0]}: vertex ") and "not in 0..4" in err


@pytest.mark.parametrize("seeds, token", [("abc", "'abc'"), ("1,,2", "''")])
def test_cli_verify_rejects_a_bad_seed(capsys, seeds, token):
    code, _, err = run_cli(capsys, "verify", "--check", "cages-mp", "--seed", seeds)
    assert code == 2 and f"--seed: {token} is not an integer" in err


def test_cli_bad_input_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.g6"
    path.write_text("D?\n")
    code, _, err = run_cli(capsys, "compute", str(path))
    assert code == 2 and "error" in err


def test_cli_verify_list_and_quick(capsys):
    code, out, _ = run_cli(capsys, "verify", "--list")
    assert code == 0 and "cages-mp" in out
    code, out, _ = run_cli(capsys, "verify", "--check", "cages-mp,hypercube-complement-formula",
                           "--profile", "quick", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["totals"]["fail"] == 0


def test_cli_verify_strict_flag(capsys):
    code, _, _ = run_cli(capsys, "verify", "--check", "cages-mp", "--profile", "quick",
                         "--strict")
    assert code == 0


def test_cli_verify_timing_adds_the_times(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "cages-mp", "--profile", "quick",
                           "--timing", "--format", "json")
    doc = json.loads(out)
    assert code == 0 and doc["wall_seconds"] >= 0
    assert set(doc["check_seconds"]) == {"cages-mp"}


def test_cli_verify_out_writes_the_printed_document(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "--check", "cages-mp", "--profile", "quick",
                           "--out", str(target), "--format", "json")
    assert code == 0 and target.read_text() == out
    assert json.loads(out)["totals"]["pass"] == 1


def test_cli_verify_strict_exits_1_on_a_failed_check(monkeypatch, capsys):
    form = GRAPH_FORMS["block"]
    _rewired(monkeypatch, "block-graph-simplicial", harness._sample_block,
             lambda g: [replace(pv, value=pv.value + 1) for pv in form(g)])
    argv = ("verify", "--check", "block-graph-simplicial", "--profile", "quick")
    assert run_cli(capsys, *argv)[0] == 0
    assert run_cli(capsys, *argv, "--strict")[0] == 1


def test_python_m_monopos_help_exits_0():
    import subprocess
    import sys

    import monopos

    env = {**os.environ, "PYTHONPATH": str(Path(monopos.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "monopos", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and "usage: monopos" in done.stdout


def test_cli_compute_all_honours_cap(tmp_path, capsys):
    # a 70-vertex tree; a star keeps every position search small (on a
    # random tree the searches run for minutes)
    from monopos.families import star_graph
    from monopos.graph6 import emit_graph6

    path = tmp_path / "star70.g6"
    path.write_text(emit_graph6(star_graph(69)) + "\n")
    code, out, _ = run_cli(capsys, "compute", str(path), "--param", "all", "--cap", "100",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    values = {p["parameter"]: p["value"] for p in doc["parameters"]}
    assert {"mp", "gp", "gp2", "imp", "igp"} <= set(values)
    code, out, _ = run_cli(capsys, "compute", str(path), "--param", "mp", "--cap", "100",
                           "--format", "json")
    assert code == 0 and json.loads(out)["parameters"][0]["value"] == values["mp"] == 69


def test_cli_named_parameter_over_cap_exits_3(tmp_path, capsys):
    from monopos.graph import path_graph
    from monopos.graph6 import emit_graph6

    path = tmp_path / "p17.g6"
    path.write_text(emit_graph6(path_graph(17)) + "\n")
    code, _, err = run_cli(capsys, "compute", str(path), "--param", "rho")
    assert code == 3 and "cap 16" in err


@pytest.mark.parametrize("argv, message", [
    (("compute", "C5", "--param", ""), "names no parameter"),
    (("compute", "C5", "--param", ","), "names no parameter"),
    (("compute", "C5", "--cap", "-1"), "cap must be at least 1"),
    (("compute", "C5", "--node-limit", "0"), "node_limit must be at least 1"),
    (("compute", "C5", "--param", "all", "--cap", "0"), "cap must be at least 1"),
    (("reduce", "C5", "2", "--node-limit", "0"), "node_limit must be at least 1"),
    (("oracle", "C5", "--cap", "0"), "cap must be at least 1"),
    (("verify", "--check", "cages-mp", "--jobs", "0"), "jobs must be at least 1"),
    (("verify", "--check", "cages-mp", "--jobs", "-3"), "jobs must be at least 1"),
], ids=["param-empty", "param-comma", "compute-cap", "compute-node-limit", "compute-all-cap",
        "reduce-node-limit", "oracle-cap", "verify-jobs-0", "verify-jobs-negative"])
def test_cli_refuses_a_bad_option_value_as_bad_input(tmp_path, capsys, argv, message):
    path = tmp_path / "c5.g6"
    path.write_text(emit_graph6(cycle_graph(5)) + "\n")
    code, out, err = run_cli(capsys, *(str(path) if arg == "C5" else arg for arg in argv))
    assert code == 2 and out == "" and message in err


def test_readme_library_example(capsys):
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "3 6"
