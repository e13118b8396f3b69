import pytest
from conftest import connected_graphs

from monopos.errors import InputError
from monopos.graph import complement, complete_graph, cycle_graph, path_graph
from monopos.graph6 import emit_graph6
from monopos.families import (FAMILIES, GRAPH_FORMS, build, caterpillar_graph, g_abl, generate,
                              half_wheel, half_wheel_pendant,
                              heawood_graph, mcgee_graph, p_graph,
                              parse_family_spec, petersen_graph, predict_bipartite_complement,
                              predict_block_graph, predict_corona, predict_grid_complement,
                              predict_hypercube_complement, predict_join, predict_multipartite,
                              predict_for_spec, predict_split, predict_tree_complement,
                              predict_unicyclic, r_graph, random_bipartite_graph,
                              random_block_graph, random_cubic_graph,
                              random_distance_hereditary, random_split_graph, random_tree,
                              random_unicyclic, star_graph, wheel_pendant)
from monopos.invariants import (is_block_graph, is_distance_hereditary, leaves,
                                simplicial_vertices, split_partition)
from monopos.solvers import GraphSolver


# -- spec parsing --------------------------------------------------------------


def test_spec_text_roundtrip():
    for text in ("petersen", "half_wheel:4", "G_abl:3,5,2", "random_tree:10:seed=7",
                 "corona_of:(cycle:5),(complete:1):seed=3",
                 "join_of:(complete:2),(corona_of:(path:2),(complete:1))"):
        spec = parse_family_spec(text)
        assert parse_family_spec(spec.text()) == spec


def test_spec_parse_errors():
    for bad in ("", "cycle:x", "corona_of:(cycle:5", "cycle:5)", "half_wheel:4:seed=q",
                "cycle:,", "grid:3:4", "path:seed=4:5", "random_tree:5:seed=1:seed=2",
                "path:5:"):
        with pytest.raises(InputError):
            parse_family_spec(bad)
    with pytest.raises(InputError):
        generate(parse_family_spec("no_such_family:3"))
    with pytest.raises(InputError):
        generate(parse_family_spec("half_wheel:1"))
    with pytest.raises(InputError):
        generate(parse_family_spec("G_abl:5,3,1"))  # needs a <= b
    with pytest.raises(InputError):
        generate(parse_family_spec("half_wheel_pendant:4,3"))  # needs b >= a+2


# -- deterministic constructions ------------------------------------------------


def test_half_wheel_shape():
    g = half_wheel(4)
    assert g.n == 9 and g.degree(8) == 4
    # hub sits on the even-labelled rim vertices, i.e. odd ids
    assert sorted(v for v in range(8) if g.has_edge(8, v)) == [1, 3, 5, 7]
    rim_degrees = sorted(g.degree(v) for v in range(8))
    assert rim_degrees == [2, 2, 2, 2, 3, 3, 3, 3]


def test_half_wheel_pendant_shape():
    g = half_wheel_pendant(7, 3)  # base half-wheel parameter 6, one pendant
    base = half_wheel(6)
    assert g.n == base.n + 1
    assert g.degree(g.n - 1) == 1 and g.has_edge(g.n - 1, base.n - 1)


def test_wheel_pendant_shape():
    g = wheel_pendant(4)
    assert g.n == 8  # six-vertex wheel plus two pendants
    assert g.degree(5) == 7  # hub: five rim + two pendants
    assert all(g.degree(v) == 3 for v in range(5))


def test_r_p_g_shapes():
    g = r_graph(3, 2)
    assert g.n == 6
    assert g.degree(0) == 5 and all(g.degree(v) == 1 for v in (3, 4, 5))
    g = p_graph(2, 3)
    assert g.n == 2 * 3 + 1 + 2
    x = 6
    assert g.degree(x) == 3 + 2
    for i in range(3):
        assert not g.has_edge(i, 3 + i)  # deleted matching
    for a, b, length in ((2, 3, 1), (3, 5, 2), (2, 2, 4)):
        g = g_abl(a, b, length)
        assert g.n == b + length + 1
        assert g.degree(b) == (b - a + 1) + 1  # path start: clique neighbors + next
        assert g.degree(b + length) == 1


def test_cages():
    for g, girth_ in ((petersen_graph(), 5), (heawood_graph(), 6), (mcgee_graph(), 7)):
        assert all(g.degree(v) == 3 for v in range(g.n))
    assert petersen_graph().n == 10
    assert heawood_graph().n == 14
    assert mcgee_graph().n == 24


def test_caterpillar_and_star():
    g = caterpillar_graph(5)
    assert g.n == 5 + 3
    assert star_graph(4).degree(0) == 4
    assert leaves(caterpillar_graph(4)).bit_count() == 4


def test_generate_determinism():
    for text in ("random_tree:9:seed=5", "random_split:10:seed=2",
                 "random_unicyclic:8:seed=11", "random_bipartite:4,5:seed=1"):
        g1, m1 = generate(parse_family_spec(text))
        g2, m2 = generate(parse_family_spec(text))
        assert emit_graph6(g1) == emit_graph6(g2)
        assert m1 == m2


def test_generate_metadata():
    g, meta = generate(parse_family_spec("half_wheel:4"))
    assert meta["order"] == 9 and meta["family"] == "half_wheel"
    preds = {p["parameter"]: p["value"] for p in meta["predictions"]}
    assert preds == {"mp": 2, "gp": 4}
    g, meta = generate(parse_family_spec("G_abl:3,5,2"))
    preds = {p["parameter"]: p["value"] for p in meta["predictions"]}
    assert preds == {"hm": 3, "mp": 5}
    g, meta = generate(parse_family_spec("mcgee"))
    preds = {p["parameter"]: p["value"] for p in meta["predictions"]}
    assert preds == {"mp": 2}


# -- random generators produce what they promise --------------------------------


def test_random_generators_validity(rng):
    for _ in range(12):
        assert is_block_graph(random_block_graph(rng.randint(1, 12), rng))
        g = random_split_graph(rng.randint(2, 12), rng)
        assert g.is_connected() and split_partition(g) is not None
        t = random_tree(rng.randint(1, 12), rng)
        assert t.is_connected() and t.edge_count() == t.n - 1
        u = random_unicyclic(rng.randint(3, 12), rng)
        assert u.is_connected() and u.edge_count() == u.n
        dh = random_distance_hereditary(rng.randint(1, 12), rng)
        assert dh.is_connected() and is_distance_hereditary(dh)
        b = random_bipartite_graph(rng.randint(1, 5), rng.randint(1, 5), rng)
        assert b.is_connected()
        c = random_cubic_graph(rng.choice((4, 6, 8, 10)), rng)
        assert c.is_connected() and all(c.degree(v) == 3 for v in range(c.n))


# -- predictors ------------------------------------------------------------------


def test_predict_block_graph(rng):
    for _ in range(10):
        g = random_block_graph(rng.randint(2, 10), rng)
        preds = {p.parameter: p.value for p in predict_block_graph(g)}
        s = GraphSolver(g)
        assert preds["mp"] == s.value("mp") == simplicial_vertices(g).bit_count()
        assert preds["gp"] == s.value("gp")
    with pytest.raises(InputError):
        predict_block_graph(cycle_graph(5))


def test_predict_multipartite():
    assert predict_multipartite([3, 2, 2])[0].value == 3
    assert predict_multipartite([5, 1])[0].value == 5
    assert predict_multipartite([1, 1, 1])[0].value == 3


def test_predict_unicyclic_cases(rng):
    # one pendant on a square: single branch vertex
    g = cycle_graph(4)
    from monopos.graph import add_pendant

    g1 = add_pendant(g, 0)
    assert predict_unicyclic(g1)[0].value == 3 == GraphSolver(g1).value("mp")
    # two antipodal pendant paths on a hexagon
    g2 = add_pendant(add_pendant(cycle_graph(6), 0), 3)
    assert predict_unicyclic(g2)[0].value == 3 == GraphSolver(g2).value("mp")
    assert predict_unicyclic(cycle_graph(4))[0].value == 2
    assert predict_unicyclic(cycle_graph(3))[0].value == 3
    for _ in range(25):
        g = random_unicyclic(rng.randint(4, 12), rng)
        assert predict_unicyclic(g)[0].value == GraphSolver(g).value("mp")
    with pytest.raises(InputError):
        predict_unicyclic(path_graph(5))


def test_predict_corona_and_join(rng):
    base = cycle_graph(5)
    inner = complete_graph(1)
    preds = {p.parameter: p.value for p in predict_corona(base, inner)}
    assert preds["mp"] == 5 and preds["gp"] == 5
    preds = {p.parameter: p.value for p in predict_corona(path_graph(3), complete_graph(2))}
    assert preds["mp"] == 6
    preds = {p.parameter: p.value for p in predict_join(cycle_graph(4), cycle_graph(4))}
    assert preds["mp"] == 4
    k1_join = {p.parameter: p.value
               for p in predict_join(complete_graph(1), complete_graph(4))}
    assert k1_join["mp"] == 5


def test_product_predictors_compute_only_named_entries(monkeypatch):
    import monopos.families as fam

    def refuse(*_):
        raise AssertionError("computed an entry that was not asked for")

    g, h = cycle_graph(5), complete_graph(2)
    both = {p.parameter: p.value for p in predict_join(g, h)}
    both_corona = {p.parameter: p.value for p in predict_corona(g, h)}
    monkeypatch.setattr(fam, "alpha_omega_number", refuse)
    assert [(p.parameter, p.value) for p in predict_join(g, h, ("mp",))] == [("mp", both["mp"])]
    assert ([(p.parameter, p.value) for p in predict_corona(g, h, ("mp",))]
            == [("mp", both_corona["mp"])])
    monkeypatch.undo()
    monkeypatch.setattr(fam, "GraphSolver", refuse)
    assert [(p.parameter, p.value) for p in predict_join(g, h, ("gp",))] == [("gp", both["gp"])]
    assert ([(p.parameter, p.value) for p in predict_corona(g, h, ("gp",))]
            == [("gp", both_corona["gp"])])


def test_predict_complements():
    assert predict_hypercube_complement(3)[0].value == 4
    assert predict_grid_complement(2, 2)[0].value == 4
    assert predict_grid_complement(3, 3)[0].value == 5
    star = star_graph(4)
    assert predict_tree_complement(star)[0].value == 5
    long_path = path_graph(6)
    assert predict_tree_complement(long_path)[0].value == 3
    c6 = cycle_graph(6)
    assert predict_bipartite_complement(c6)[0].value == max(3, 2)
    with pytest.raises(InputError):
        predict_bipartite_complement(cycle_graph(5))
    with pytest.raises(InputError):
        predict_tree_complement(cycle_graph(5))


def test_predict_split(rng):
    for _ in range(15):
        g = random_split_graph(rng.randint(2, 12), rng)
        [pv] = predict_split(g)
        assert pv.value == GraphSolver(g).value("mp")
    with pytest.raises(InputError):
        predict_split(cycle_graph(5))


def test_predict_realization_values():
    def preds(text):
        spec = parse_family_spec(text)
        return {p.parameter: p.value for p in predict_for_spec(spec, generate(spec)[0])}

    assert preds("half_wheel:5") == {"mp": 2, "gp": 5}
    assert preds("wheel_pendant_W:4") == {"mp": 4, "gp": 5}
    assert preds("half_wheel_pendant:7,3") == {"mp": 3, "gp": 7}
    assert preds("R_graph:2,3") == {"mp": 5, "igp": 3, "diss": 4, "gp2": 5}
    assert preds("P_graph:1,3") == {"mp": 3, "igp": 4}
    assert predict_for_spec(parse_family_spec("half_wheel:3"), half_wheel(3)) == []


@pytest.mark.parametrize("text, message", [
    ("half_wheel:3,4", r"family 'half_wheel' expects 1 integer parameter\(s\) and 0 nested"),
    ("corona_of:(cycle:4)", r"family 'corona_of' expects 0 integer parameter\(s\) and 2 nested"),
    ("cycle", r"family 'cycle' expects 1 integer parameter\(s\) and 0 nested"),
])
def test_predict_for_spec_refuses_a_malformed_spec_as_build_does(text, message):
    spec = parse_family_spec(text)
    for call in (lambda: build(spec), lambda: predict_for_spec(spec, cycle_graph(4))):
        with pytest.raises(InputError, match=message):
            call()


def test_realization_predictions_match_solver():
    for text in ("half_wheel:4", "half_wheel:5", "wheel_pendant_W:3", "wheel_pendant_W:4",
                 "half_wheel_pendant:6,3", "R_graph:2,2", "P_graph:1,2", "G_abl:2,4,2"):
        g, meta = generate(parse_family_spec(text))
        solver = GraphSolver(g)
        for pred in meta["predictions"]:
            name = pred["parameter"]
            if name == "hm":
                from monopos.solvers import hull_number

                assert hull_number(g).value == pred["value"], text
            elif name == "diss":
                from monopos.invariants import dissociation_number

                assert dissociation_number(g)[0] == pred["value"], text
            else:
                assert solver.value(name) == pred["value"], (text, name)


# One small grid that names every family of the table.
SWEEP = (
    [f"path:{n}" for n in range(1, 7)] + [f"cycle:{n}" for n in range(3, 8)]
    + [f"complete:{n}" for n in range(1, 6)] + [f"star:{k}" for k in range(1, 5)]
    + [f"caterpillar:{k}" for k in range(2, 6)]
    + ["complete_multipartite:" + p for p in ("1", "2", "1,1,1", "2,2", "3,2,2", "4,1")]
    + ["grid:2,3", "grid:3,3", "hypercube:0", "hypercube:2", "hypercube:3"]
    + [f"half_wheel:{r}" for r in range(2, 7)]
    + ["half_wheel_pendant:5,3", "half_wheel_pendant:6,3", "half_wheel_pendant:7,4"]
    + [f"wheel_pendant_W:{a}" for a in range(3, 6)]
    + [f"R_graph:{r},{s}" for r in range(4) for s in range(1, 5)]
    + [f"P_graph:{r},{s}" for r in range(4) for s in range(2, 5)]
    + [f"G_abl:{a},{b},{k}" for a, b in ((2, 2), (2, 4), (3, 5), (4, 4)) for k in (1, 2)]
    + ["petersen", "heawood", "mcgee"]
    + [f"{name}:{n}:seed={k}" for name in ("random_tree", "random_block", "random_unicyclic",
                                             "random_split") for n in (5, 9) for k in (1, 2)]
    + [f"random_bipartite:{a},{b}:seed={k}" for a, b in ((2, 3), (4, 4)) for k in (1, 2)]
    + ["corona_of:(cycle:4),(complete:1)", "corona_of:(path:3),(complete:2)",
       "corona_of:(complete:1),(path:2)", "corona_of:(cycle:5),(cycle:5)",
       "join_of:(cycle:4),(path:3)", "join_of:(complete:1),(complete:4)",
       "join_of:(cycle:5),(cycle:5)", "join_of:(path:2),(corona_of:(path:2),(complete:1))"]
)


def test_generate_is_build_plus_predict_for_spec():
    for text in SWEEP:
        spec = parse_family_spec(text)
        g, meta = generate(spec)
        assert g == build(spec), text
        assert meta["predictions"] == [pv.to_dict() for pv in predict_for_spec(spec, g)], text


@pytest.mark.parametrize("text", ["gnp:33,12", "grid:3,4", "half_wheel:3",
                                  "corona_of:(cycle:5),(complete:4)"])
def test_predict_for_spec_is_empty_where_no_rule_applies(text):
    """An unknown family, a family without a predictor, a rule outside its
    domain and a product over the 24-vertex limit all give no predictions."""
    spec = parse_family_spec(text)
    g = cycle_graph(33) if spec.family == "gnp" else build(spec)
    assert predict_for_spec(spec, g) == []


def test_family_table_predictions_match_solver():
    assert {parse_family_spec(text).family for text in SWEEP} == set(FAMILIES)
    checked = 0
    for text in SWEEP:
        g, meta = generate(parse_family_spec(text))
        solver = GraphSolver(g)
        for pred in meta["predictions"]:
            name = pred["parameter"]
            if name == "mp_complement":
                got = GraphSolver(complement(g)).value("mp")
            else:
                got = solver.value(name)
            assert got == pred["value"], (text, name)
            checked += 1
    assert checked >= 200


def test_graph_forms_census_on_small_connected_graphs():
    """Every graph-keyed row, on every connected graph of up to 7 vertices:
    where the row applies, each value is the solver's (on the complement
    for a ``_complement`` value), and every row applies somewhere."""
    applied = dict.fromkeys(GRAPH_FORMS, 0)
    for g in connected_graphs(7):
        solvers = (GraphSolver(g), GraphSolver(complement(g)))
        for row, predict in GRAPH_FORMS.items():
            try:
                predictions = predict(g)
            except InputError:
                continue
            applied[row] += 1
            for pv in predictions:
                name = pv.parameter.removesuffix("_complement")
                got = solvers[name != pv.parameter].value(name)
                assert got == pv.value, (row, emit_graph6(g), pv)
    assert all(applied.values()), applied
