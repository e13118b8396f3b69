import pytest

from monopos.errors import CapExceeded, InputError, NodeLimitExceeded
from monopos.graph import complete_graph, cycle_graph
from monopos.invariants import _PositionSearch, clique_number
from monopos.reduction import reduce_clique_to_mp, verify_reduction


def test_instance_layout():
    g = cycle_graph(5)
    inst = reduce_clique_to_mp(g, 3)
    assert inst.product.n == 10 and inst.k_prime == 8
    # source copy on low ids, full clique on high ids, all cross edges
    for u in range(5):
        for v in range(5):
            assert inst.product.has_edge(u, v) == g.has_edge(u, v)
            assert inst.product.has_edge(u, 5 + v)
            if u != v:
                assert inst.product.has_edge(5 + u, 5 + v)


def test_k_range_validation():
    g = cycle_graph(4)
    for bad in (0, 5, -1):
        with pytest.raises(InputError):
            reduce_clique_to_mp(g, bad)


def test_complete_source():
    rep = verify_reduction(reduce_clique_to_mp(complete_graph(3), 3))
    assert rep.mp_product == 6 and rep.k_prime == 6
    assert rep.identity_holds and rep.answers_agree
    assert rep.clique_answer and rep.position_answer


def test_c5_negative_instance():
    rep = verify_reduction(reduce_clique_to_mp(cycle_graph(5), 3))
    assert rep.omega_source == 2
    assert rep.mp_product == 7 and rep.k_prime == 8
    assert not rep.clique_answer and not rep.position_answer
    assert rep.identity_holds and rep.answers_agree


def test_petersen_both_ways():
    from monopos.families import petersen_graph

    g = petersen_graph()
    yes = verify_reduction(reduce_clique_to_mp(g, 2))
    assert yes.clique_answer and yes.position_answer and yes.identity_holds
    no = verify_reduction(reduce_clique_to_mp(g, 3))
    assert not no.clique_answer and not no.position_answer and no.identity_holds


def test_identity_on_random_sources(rng):
    from monopos.families import random_graph

    for _ in range(25):
        g = random_graph(rng.randint(2, 7), rng)
        omega, _ = clique_number(g)
        inst0 = reduce_clique_to_mp(g, 1)
        rep = verify_reduction(inst0)
        assert rep.mp_product == omega + g.n
        assert clique_number(inst0.product)[0] == omega + g.n
        for k in range(1, g.n + 1):
            inst = reduce_clique_to_mp(g, k)
            assert (omega >= k) == (rep.mp_product >= inst.k_prime)


def test_report_dict():
    doc = verify_reduction(reduce_clique_to_mp(complete_graph(2), 1)).to_dict()
    assert doc["identity_holds"] and doc["answers_agree"]
    assert set(doc) >= {"source", "product", "n", "k", "k_prime",
                        "omega_source", "mp_product"}


@pytest.mark.parametrize("kwargs, error, said", [
    ({"node_limit": 0}, InputError, "must be at least 1"),
    ({"cap": 0}, InputError, "must be at least 1"),
    ({"cap": 9}, CapExceeded, "^reduction cap 9 exceeded by product order 10$"),
], ids=["node_limit", "cap", "cap_below_product"])
def test_bad_limits_are_refused_before_the_clique_search(monkeypatch, kwargs, error, said):
    import monopos.reduction as reduction

    def no_search(*_, **__):
        raise AssertionError("a search ran")

    monkeypatch.setattr(reduction, "clique_number", no_search)
    monkeypatch.setattr(_PositionSearch, "run", no_search)
    with pytest.raises(error, match=said):
        verify_reduction(reduce_clique_to_mp(cycle_graph(5), 2), **kwargs)


def test_node_limit_bounds_the_clique_search_too(monkeypatch):
    import monopos.reduction as reduction

    def no_mp(*_, **__):
        raise AssertionError("the position search on the product ran")

    monkeypatch.setattr(reduction.GraphSolver, "value", no_mp)
    inst = reduce_clique_to_mp(cycle_graph(5), 2)
    with pytest.raises(NodeLimitExceeded) as refused:
        verify_reduction(inst, node_limit=1)
    assert str(refused.value) == ("position solver node limit 1 exceeded after 2 nodes, "
                                  "largest set so far 0")
