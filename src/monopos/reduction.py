"""Executable reduction from maximum clique to maximum monophonic position.

Given a clique instance (G, k) on n vertices, the product graph joins a copy
of G to an n-clique.  The product's monophonic position number is then
omega(G) + n, so the clique question "omega(G) >= k" becomes the position
question "mp >= n + k".  The verifier recomputes both sides with the exact
solvers and refuses to use the join formula for the product, which would
make the check circular.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceeded, InputError
from .graph import SOLVER_CAP, Graph, complete_graph, join
from .graph6 import emit_graph6
from .invariants import clique_number
from .solvers import NODE_LIMIT, GraphSolver


@dataclass(frozen=True)
class ReductionInstance:
    source: Graph
    k: int
    product: Graph
    k_prime: int


def reduce_clique_to_mp(g: Graph, k: int) -> ReductionInstance:
    """Build the position instance: copy of g on ids 0..n-1, an n-clique on
    ids n..2n-1, and every cross edge."""
    if not 1 <= k <= g.n:
        raise InputError(f"clique target {k} outside 1..{g.n}")
    product = join(g, complete_graph(g.n))
    return ReductionInstance(g, k, product, g.n + k)


@dataclass
class ReductionReport:
    source_g6: str
    product_g6: str
    n: int
    k: int
    k_prime: int
    omega_source: int
    mp_product: int
    clique_answer: bool
    position_answer: bool

    @property
    def identity_holds(self) -> bool:
        return self.mp_product == self.omega_source + self.n

    @property
    def answers_agree(self) -> bool:
        return self.clique_answer == self.position_answer

    def to_dict(self) -> dict:
        return {
            "source": self.source_g6,
            "product": self.product_g6,
            "n": self.n,
            "k": self.k,
            "k_prime": self.k_prime,
            "omega_source": self.omega_source,
            "mp_product": self.mp_product,
            "clique_answer": self.clique_answer,
            "position_answer": self.position_answer,
            "identity_holds": self.identity_holds,
            "answers_agree": self.answers_agree,
        }


def verify_reduction(inst: ReductionInstance, node_limit: int = NODE_LIMIT,
                     cap: int = SOLVER_CAP) -> ReductionReport:
    """Solve both sides exactly and compare the yes/no answers.

    One search serves both sides, omega and mp, under one ``node_limit``
    and ``cap``; a bad cap or node limit, or a product over the cap, is
    refused before any search.  Limit failures propagate as limit errors;
    they are never folded into a verification verdict.
    """
    solver = GraphSolver(inst.product, node_limit, cap=cap)
    if inst.product.n > cap:
        raise CapExceeded(f"reduction cap {cap} exceeded by product order {inst.product.n}")
    omega, _ = clique_number(inst.source, cap, node_limit)
    mp = solver.value("mp")
    return ReductionReport(
        source_g6=emit_graph6(inst.source),
        product_g6=emit_graph6(inst.product),
        n=inst.source.n,
        k=inst.k,
        k_prime=inst.k_prime,
        omega_source=omega,
        mp_product=mp,
        clique_answer=omega >= inst.k,
        position_answer=mp >= inst.k_prime,
    )
