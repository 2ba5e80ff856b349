"""A small compilation stack (decomposition, routing, optimization).

Provides the "compilation results" that the equivalence checker is meant to
verify (Section 2.3 / Fig. 1 of the paper): basis-gate decomposition, routing
onto a coupling map (including the T-shaped IBMQ-London device), and simple
peephole optimizations.
"""

from repro.compilation.basis import (
    decompose_to_cx_and_single_qubit,
    rewrite_single_qubit_to_u,
    zyz_decomposition,
)
from repro.compilation.canonical import (
    CANONICAL_ANGLE_GRID,
    canonical_angle,
    canonicalize,
)
from repro.compilation.compiler import CompilationResult, compile_circuit
from repro.compilation.coupling import CouplingMap, ibmq_london, linear_coupling, ring_coupling
from repro.compilation.optimize import (
    cancel_inverse_pairs,
    merge_rotations,
    optimize_circuit,
    remove_identities,
)
from repro.compilation.routing import RoutingResult, pad_circuit, route_circuit

__all__ = [
    "CANONICAL_ANGLE_GRID",
    "CompilationResult",
    "CouplingMap",
    "RoutingResult",
    "cancel_inverse_pairs",
    "canonical_angle",
    "canonicalize",
    "compile_circuit",
    "decompose_to_cx_and_single_qubit",
    "ibmq_london",
    "linear_coupling",
    "merge_rotations",
    "optimize_circuit",
    "pad_circuit",
    "remove_identities",
    "rewrite_single_qubit_to_u",
    "ring_coupling",
    "route_circuit",
    "zyz_decomposition",
]
