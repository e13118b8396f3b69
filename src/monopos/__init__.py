"""monopos: exact computation of monophonic and general position numbers.

The package computes, for finite simple graphs: the monophonic position
number mp and its geodesic cousin gp, the independent variants imp and igp,
the length-two variant gp2, the monophonic hull number, and the supporting
invariants (clique and independence numbers, unions of cliques,
dissociation, longest induced path, induced path partition).  The position
numbers, unions of cliques and dissociation share one forbidden-triple
branch and bound; gp2 and the union-of-cliques number are the same number.
Generators and closed-form evaluators cover the classical families where
these parameters are known exactly, and a verification harness
cross-checks every closed form against the exact solvers and small
brute-force oracles.
"""

from .bitset import bit, full_mask, iter_bits, mask_of, to_tuple
from .errors import (BudgetExceeded, CapExceeded, Graph6Error, InputError,
                     InternalCheckError, LimitError, MonoposError, NodeLimitExceeded)
from .graph import (Graph, add_pendant, cartesian_product, complement, complete_graph,
                    complete_multipartite, corona, cycle_graph, disjoint_union,
                    emit_edgelist, empty_graph, join, parse_edgelist, path_graph)
from .graph6 import emit_graph6, parse_graph6, parse_graph6_lines
from .invariants import (Bipartition, Matching, SplitPartition, alpha_omega_number,
                         bipartition, blocks, clique_number, cut_vertices, diameter,
                         dissociation_number, distance_matrix, independence_number,
                         is_block_graph, is_distance_hereditary, leaves,
                         max_bipartite_matching, phi_separated, psi_uniform,
                         simplicial_vertices, split_partition)
from .paths import (IntervalCache, convex_hull, induced_path_partition, interior_vertices,
                    longest_induced_path_length, monophonic_closure, monophonic_hull,
                    monophonic_interval)
from .solvers import (GraphSolver, ParameterReport, PathMode, SuiteResult, brute_force_position,
                      build_triple_index, hull_number, is_position_set, max_position_set,
                      parameter_suite)
from .families import FamilySpec, PredictedValue, generate, parse_family_spec
from .reduction import ReductionInstance, ReductionReport, reduce_clique_to_mp, verify_reduction

__version__ = "0.1.0"
