"""Bridging circuits and decision diagrams.

These helpers translate :class:`~repro.circuit.gates.Gate` objects and whole
circuits into matrix DDs of a :class:`~repro.dd.package.DDPackage`, and apply
them to vector DDs.  Controlled single-qubit gates (including multi- and
negative controls) are built natively; other multi-qubit gates are translated
through their gate definition.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gates import ControlledGate, Gate, GlobalPhaseGate
from repro.circuit.operations import Instruction
from repro.dd.nodes import MEdge, VEdge
from repro.dd.package import DDPackage
from repro.exceptions import DDError

__all__ = [
    "apply_instruction_to_vector",
    "circuit_to_unitary_dd",
    "gate_to_dd",
    "instruction_to_dd",
]


def gate_to_dd(package: DDPackage, gate: Gate, qubits: Sequence[int]) -> MEdge:
    """Build the matrix DD of ``gate`` applied to the given circuit qubits."""
    qubits = list(qubits)
    if len(qubits) != gate.num_qubits:
        raise DDError(
            f"gate {gate.name!r} expects {gate.num_qubits} qubit(s), got {len(qubits)}"
        )

    if isinstance(gate, GlobalPhaseGate):
        return package.scale_matrix(package.identity(), complex(gate.matrix[0, 0]))

    if isinstance(gate, ControlledGate) and gate.base_gate.num_qubits == 1:
        controls = {
            qubits[k]: (gate.ctrl_state >> k) & 1 for k in range(gate.num_ctrl_qubits)
        }
        target = qubits[gate.num_ctrl_qubits]
        return package.controlled_gate(gate.base_gate.matrix, target, controls)

    if gate.num_qubits == 1:
        return package.controlled_gate(gate.matrix, qubits[0], {})

    definition = gate.definition()
    if definition is None:
        raise DDError(
            f"gate {gate.name!r} is neither a (controlled) single-qubit gate nor "
            "decomposable; cannot build its decision diagram"
        )
    result: MEdge | None = None
    for sub_gate, local_qubits in definition:
        mapped = [qubits[local] for local in local_qubits]
        sub_dd = gate_to_dd(package, sub_gate, mapped)
        result = sub_dd if result is None else package.multiply_matrices(sub_dd, result)
    if result is None:
        return package.identity()
    return result


def instruction_to_dd(package: DDPackage, instruction: Instruction) -> MEdge:
    """Build the matrix DD of a unitary, unconditioned instruction.

    Results are memoized per package (keyed by the gate — name, parameters,
    control state — and the qubits it acts on), so circuits that repeat gates,
    e.g. the controlled-power ladders of QPE or the CNOT cascades of BV, build
    each distinct gate DD only once.  DD edges are immutable and hash-consed
    within their package, so sharing the cached edge is safe.
    """
    if not instruction.is_gate or instruction.condition is not None:
        raise DDError(
            f"only unitary, unconditioned instructions have a matrix DD, got {instruction!r}"
        )
    gate = instruction.operation
    assert isinstance(gate, Gate)
    key = (gate, instruction.qubits)
    cached = package.gate_cache_lookup(key)
    if cached is not None:
        return cached
    result = gate_to_dd(package, gate, instruction.qubits)
    package.gate_cache_store(key, result)
    # The cached edge is shared verbatim on every later lookup: DD edges are
    # immutable flyweights hash-consed within their package (see the
    # edge-factory invariants in repro.dd.package), so no copy is needed.
    return result


def circuit_to_unitary_dd(
    package: DDPackage,
    circuit: QuantumCircuit,
    *,
    interrupt: "Callable[[], bool] | None" = None,
) -> MEdge:
    """Build the matrix DD of the whole (unitary) circuit.

    Trailing read-out measurements are ignored; dynamic primitives raise.
    ``interrupt`` is an optional cancellation probe polled between gate
    applications (see :class:`repro.core.checkers.base.Checker`); when it
    fires the build raises ``CheckerInterrupted`` instead of running past
    the checker's budget.
    """
    if circuit.num_qubits != package.num_qubits:
        raise DDError(
            f"circuit has {circuit.num_qubits} qubits, package has {package.num_qubits}"
        )
    unitary = package.identity()
    multiply = package.multiply_matrices
    for instruction in circuit.remove_final_measurements().gate_instructions():
        if interrupt is not None and interrupt():
            from repro.core.checkers.base import CheckerInterrupted

            raise CheckerInterrupted
        unitary = multiply(instruction_to_dd(package, instruction), unitary)
    return unitary


def apply_instruction_to_vector(
    package: DDPackage, vector: VEdge, instruction: Instruction
) -> VEdge:
    """Apply a unitary, unconditioned instruction to a vector DD."""
    gate_dd = instruction_to_dd(package, instruction)
    return package.multiply_matrix_vector(gate_dd, vector)
