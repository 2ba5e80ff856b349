"""Construction of the full ``2**n x 2**n`` system matrix of a unitary circuit.

This is the textbook formulation of equivalence checking recalled in
Section 2.3 of the paper: the functionality of a circuit ``G = g_0 ... g_{m-1}``
is ``U = U_{m-1} ... U_0`` and two circuits are equivalent iff their system
matrices agree (possibly up to a global phase).  The dense construction is
exponential in the number of qubits and is used as the ground-truth baseline
for small instances and in the test suite.
"""

from __future__ import annotations

from collections.abc import Generator, Sequence

import numpy as np

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gates import Gate, GlobalPhaseGate
from repro.exceptions import SimulationError
from repro.utils.steps import drain

__all__ = [
    "circuit_unitary",
    "circuit_unitary_steps",
    "embed_gate_matrix",
    "matrices_equal_up_to_global_phase",
    "process_fidelity",
]


def embed_gate_matrix(
    matrix: np.ndarray, targets: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Embed a ``2**k``-dimensional gate matrix into the full ``2**n`` space.

    ``targets[j]`` is interpreted as bit ``j`` of the gate-matrix index,
    matching the convention of :mod:`repro.circuit.gates`.
    """
    k = len(targets)
    if matrix.shape != (1 << k, 1 << k):
        raise SimulationError(
            f"matrix of shape {matrix.shape} does not match {k} target qubit(s)"
        )
    if len(set(targets)) != k:
        raise SimulationError(f"duplicate target qubits: {targets}")
    dim = 1 << num_qubits
    full = np.zeros((dim, dim), dtype=complex)
    non_targets = [q for q in range(num_qubits) if q not in targets]

    for col in range(dim):
        gate_col = 0
        for j, t in enumerate(targets):
            gate_col |= ((col >> t) & 1) << j
        rest = 0
        for j, q in enumerate(non_targets):
            rest |= ((col >> q) & 1) << j
        for gate_row in range(1 << k):
            amplitude = matrix[gate_row, gate_col]
            if amplitude == 0:
                continue
            row = 0
            for j, t in enumerate(targets):
                row |= ((gate_row >> j) & 1) << t
            for j, q in enumerate(non_targets):
                row |= ((rest >> j) & 1) << q
            full[row, col] = amplitude
    return full


def circuit_unitary(circuit: QuantumCircuit) -> np.ndarray:
    """Return the system matrix of a unitary circuit.

    Trailing read-out measurements are ignored (they do not change the
    functionality being compared); any other non-unitary primitive raises.
    """
    return drain(circuit_unitary_steps(circuit))


def circuit_unitary_steps(circuit: QuantumCircuit) -> Generator[None, None, np.ndarray]:
    """:func:`circuit_unitary` one gate at a time.

    Yields after every gate multiplied into the matrix and returns the
    system matrix; validation errors surface on the first step.
    """
    if circuit.is_dynamic:
        raise SimulationError(
            "cannot build the unitary of a dynamic circuit; apply "
            "repro.core.to_unitary_circuit first"
        )
    num_qubits = circuit.num_qubits
    unitary = np.eye(1 << num_qubits, dtype=complex)
    for instruction in circuit.remove_final_measurements():
        if instruction.is_barrier or instruction.is_measurement:
            continue
        gate = instruction.operation
        if not isinstance(gate, Gate):
            raise SimulationError(f"unexpected non-gate instruction {instruction!r}")
        if isinstance(gate, GlobalPhaseGate):
            unitary = np.exp(1j * gate.phase) * unitary
        else:
            embedded = embed_gate_matrix(gate.matrix, instruction.qubits, num_qubits)
            unitary = embedded @ unitary
        yield
    return unitary


def process_fidelity(unitary_a: np.ndarray, unitary_b: np.ndarray) -> float:
    """Return ``|Tr(A^dagger B)|**2 / d**2`` — 1.0 iff equal up to global phase."""
    if unitary_a.shape != unitary_b.shape:
        raise SimulationError("unitaries must have the same dimension")
    dim = unitary_a.shape[0]
    overlap = np.trace(unitary_a.conj().T @ unitary_b)
    return float(abs(overlap) ** 2 / dim**2)


def matrices_equal_up_to_global_phase(
    unitary_a: np.ndarray, unitary_b: np.ndarray, tolerance: float = 1e-9
) -> bool:
    """Whether two unitaries are equal up to a global phase factor."""
    return process_fidelity(unitary_a, unitary_b) > 1.0 - tolerance
