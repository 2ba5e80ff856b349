"""Basis-gate decomposition passes.

Real devices support only a restricted gate set (IBM devices: arbitrary
single-qubit gates plus CNOT, cf. Example 2 of the paper).  The passes in this
module rewrite a circuit so that

* every multi-qubit gate becomes CNOTs plus single-qubit gates
  (:func:`decompose_to_cx_and_single_qubit`), and
* optionally every single-qubit gate becomes a single ``U(theta, phi, lam)``
  gate (:func:`rewrite_single_qubit_to_u`).

The decompositions are *exact* (they track global phases with explicit
``gphase`` operations), so a compiled circuit remains strictly functionally
equivalent to its original — which is precisely what the equivalence checker
is then used to confirm.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.equivalence_library import StandardEquivalenceLibrary
from repro.circuit.gates import (
    ControlledGate,
    CXGate,
    Gate,
    GlobalPhaseGate,
    PhaseGate,
    RYGate,
    RZGate,
    UGate,
)
from repro.circuit.operations import Instruction
from repro.exceptions import CompilationError

__all__ = [
    "decompose_to_cx_and_single_qubit",
    "rewrite_single_qubit_to_u",
    "translate_instruction",
    "zyz_decomposition",
]

_ANGLE_TOLERANCE = 1e-12


def zyz_decomposition(matrix: np.ndarray) -> tuple[float, float, float, float]:
    """Decompose a single-qubit unitary as ``exp(i*alpha) Rz(phi) Ry(theta) Rz(lam)``.

    Returns ``(alpha, theta, phi, lam)`` where the rotations are the traceless
    (``Rz``/``Ry``) conventions of :mod:`repro.circuit.gates`.
    """
    if matrix.shape != (2, 2):
        raise CompilationError(f"expected a 2x2 matrix, got {matrix.shape}")
    # Make the matrix special-unitary first.
    determinant = np.linalg.det(matrix)
    alpha = cmath.phase(determinant) / 2.0
    special = matrix * cmath.exp(-1j * alpha)

    cos_half = abs(special[0, 0])
    sin_half = abs(special[1, 0])
    theta = 2.0 * math.atan2(sin_half, cos_half)

    if cos_half > _ANGLE_TOLERANCE and sin_half > _ANGLE_TOLERANCE:
        # special[0,0] = cos(theta/2) * exp(-i(phi+lam)/2)
        # special[1,0] = sin(theta/2) * exp(+i(phi-lam)/2)
        sum_angle = -2.0 * cmath.phase(special[0, 0])
        diff_angle = 2.0 * cmath.phase(special[1, 0])
        phi = (sum_angle + diff_angle) / 2.0
        lam = (sum_angle - diff_angle) / 2.0
    elif sin_half <= _ANGLE_TOLERANCE:
        # Diagonal: only phi + lam matters.
        phi = -2.0 * cmath.phase(special[0, 0])
        lam = 0.0
        theta = 0.0
    else:
        # Anti-diagonal: only phi - lam matters.
        phi = 2.0 * cmath.phase(special[1, 0])
        lam = 0.0
        theta = math.pi
    return alpha, theta, phi, lam


def _single_qubit_to_u(gate: Gate) -> tuple[UGate, float]:
    """Express a single-qubit gate as a ``U`` gate plus a global phase."""
    alpha, theta, phi, lam = zyz_decomposition(gate.matrix)
    # U(theta, phi, lam) = exp(i*(phi+lam)/2) Rz(phi) Ry(theta) Rz(lam)
    global_phase = alpha - (phi + lam) / 2.0
    return UGate(theta, phi, lam), global_phase


def _controlled_single_qubit_decomposition(
    gate: ControlledGate, qubits: tuple[int, ...]
) -> list[Instruction]:
    """ABC decomposition of a singly-controlled single-qubit gate into CX + 1q gates."""
    control, target = qubits
    base = gate.base_gate
    alpha, theta, phi, lam = zyz_decomposition(base.matrix)

    instructions: list[Instruction] = []
    if gate.ctrl_state == 0:
        # Negative control: conjugate the control with X gates.
        from repro.circuit.gates import XGate

        instructions.append(Instruction(XGate(), (control,)))

    # C = Rz((lam - phi) / 2)
    c_angle = (lam - phi) / 2.0
    if abs(c_angle) > _ANGLE_TOLERANCE:
        instructions.append(Instruction(RZGate(c_angle), (target,)))
    instructions.append(Instruction(CXGate(), (control, target)))
    # B = Ry(-theta/2) Rz(-(phi + lam)/2)  (circuit order: Rz first, then Ry)
    b_rz = -(phi + lam) / 2.0
    if abs(b_rz) > _ANGLE_TOLERANCE:
        instructions.append(Instruction(RZGate(b_rz), (target,)))
    if abs(theta) > _ANGLE_TOLERANCE:
        instructions.append(Instruction(RYGate(-theta / 2.0), (target,)))
    instructions.append(Instruction(CXGate(), (control, target)))
    # A = Rz(phi) Ry(theta/2)  (circuit order: Ry first, then Rz)
    if abs(theta) > _ANGLE_TOLERANCE:
        instructions.append(Instruction(RYGate(theta / 2.0), (target,)))
    if abs(phi) > _ANGLE_TOLERANCE:
        instructions.append(Instruction(RZGate(phi), (target,)))
    # The global phase of the base gate becomes a phase gate on the control.
    if abs(alpha) > _ANGLE_TOLERANCE:
        instructions.append(Instruction(PhaseGate(alpha), (control,)))

    if gate.ctrl_state == 0:
        from repro.circuit.gates import XGate

        instructions.append(Instruction(XGate(), (control,)))
    return instructions


def _decompose_instruction(instruction: Instruction) -> list[Instruction]:
    """Rewrite one instruction into CX + single-qubit gates (no conditions touched).

    All structural rewrites resolve through the
    :data:`~repro.circuit.equivalence_library.StandardEquivalenceLibrary`
    (named rules, negative-control normalization, controlled-composite
    factoring); the numeric ZYZ/ABC decomposition remains the fallback for
    singly-controlled single-qubit gates without a named rule (``ch``,
    ``cy``, ``cz``, arbitrary controlled unitaries).
    """
    gate = instruction.operation
    qubits = instruction.qubits
    if not isinstance(gate, Gate) or gate.num_qubits <= 1:
        return [instruction]
    if isinstance(gate, CXGate) and gate.ctrl_state == 1:
        return [instruction]
    steps = StandardEquivalenceLibrary.translation_steps(gate)
    if steps is not None:
        expanded: list[Instruction] = []
        for sub_gate, local in steps:
            mapped = tuple(qubits[index] for index in local)
            expanded.extend(_decompose_instruction(Instruction(sub_gate, mapped)))
        return expanded
    if (
        isinstance(gate, ControlledGate)
        and gate.num_ctrl_qubits == 1
        and gate.base_gate.num_qubits == 1
    ):
        return _controlled_single_qubit_decomposition(gate, qubits)
    raise CompilationError(
        f"no CX + single-qubit decomposition implemented for gate {gate.name!r}"
    )


def decompose_to_cx_and_single_qubit(circuit: QuantumCircuit) -> QuantumCircuit:
    """Rewrite every multi-qubit gate into CNOTs and single-qubit gates.

    Dynamic primitives (measurements, resets, classical conditions on
    single-qubit gates) are passed through unchanged; a classical condition on
    a multi-qubit gate is propagated onto every gate of its decomposition.
    """
    result = circuit.copy_empty(name=f"{circuit.name}_decomposed")
    for instruction in circuit:
        for piece in translate_instruction(instruction):
            result.append_instruction(piece)
    return result


def translate_instruction(instruction: Instruction) -> list[Instruction]:
    """One instruction as CNOTs and single-qubit gates (see above)."""
    if instruction.is_barrier or not instruction.is_gate:
        return [instruction]
    if instruction.condition is None:
        return _decompose_instruction(instruction)
    expanded = _decompose_instruction(instruction.replace(drop_condition=True))
    return [piece.replace(condition=instruction.condition) for piece in expanded]


def rewrite_single_qubit_to_u(circuit: QuantumCircuit) -> QuantumCircuit:
    """Rewrite every single-qubit gate into a single ``U`` gate (plus ``gphase``)."""
    result = circuit.copy_empty(name=f"{circuit.name}_u")
    accumulated_phase = 0.0
    for instruction in circuit:
        gate = instruction.operation
        if (
            not instruction.is_gate
            or instruction.is_barrier
            or not isinstance(gate, Gate)
            or gate.num_qubits != 1
            or instruction.condition is not None
        ):
            result.append_instruction(instruction)
            continue
        if isinstance(gate, GlobalPhaseGate):
            accumulated_phase += gate.phase
            continue
        u_gate, phase = _single_qubit_to_u(gate)
        accumulated_phase += phase
        result.append_instruction(Instruction(u_gate, instruction.qubits))
    if abs(accumulated_phase) > _ANGLE_TOLERANCE:
        result.append_instruction(Instruction(GlobalPhaseGate(accumulated_phase), ()))
    return result
