"""Canonicalization pass for transpilation-aware fingerprints and matching.

Different translation levels of the same circuit (original, CX + single-qubit
basis, U-gate rewrite) are functionally identical but fingerprint
differently, so the PR-5 verdict cache treats them as unrelated pairs.
:func:`canonicalize` maps all levels onto one normal form:

1. library-translate to the CX + single-qubit base gate set
   (:func:`~repro.compilation.basis.translate_instruction`, which resolves
   every rewrite through the
   :data:`~repro.circuit.equivalence_library.StandardEquivalenceLibrary`);
2. merge every run of adjacent unconditioned single-qubit gates per qubit
   into a single ``U`` gate via the existing ZYZ machinery, accumulating the
   run's global phase into one trailing ``gphase``.

Angles of the merged gates are quantized onto a ``1e-9`` grid: the float
noise between translation levels is ~1e-15..1e-13, far inside a grid cell,
while two circuits that are *functionally* different by more than the grid
cannot collide as long as ``Configuration.tolerance`` exceeds the grid (the
``canonical_fingerprints_sound_for`` gate in :mod:`repro.service.fingerprint`
enforces exactly that).  A value straddling a grid boundary merely causes a
cache miss — never a wrong verdict.

:func:`canonical_forms` produces the quantized form and an exact one (the
merged runs unquantized) in one pass, optionally for a subset of the gates;
the alternating checker matches translated gates on the quantized form and
applies or cancels the exact one
(:func:`repro.core.strategies.canonical_matching`).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

import numpy as np

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gates import CXGate, Gate, GlobalPhaseGate, Operation, UGate
from repro.circuit.operations import Instruction
from repro.compilation.basis import translate_instruction, zyz_decomposition

__all__ = [
    "CANONICAL_ANGLE_GRID",
    "canonical_angle",
    "canonical_forms",
    "canonicalize",
]

#: Quantization grid (radians) for angles of the canonical form.  Coarser
#: than the raw fingerprint's 1e-12 resolution on purpose: cross-level float
#: noise must land inside one cell.
CANONICAL_ANGLE_GRID = 1e-9

_TWO_PI = 2.0 * math.pi
_TWO_PI_QUANTIZED = round(_TWO_PI, 9)


def canonical_angle(value: float) -> float:
    """Quantize an angle onto the canonical ``[0, 2*pi)`` grid."""
    quantized = round(float(value) % _TWO_PI, 9)
    if quantized >= _TWO_PI_QUANTIZED:
        return 0.0
    return quantized


def _merged_gate(matrix: np.ndarray) -> tuple[UGate, Gate | None, float]:
    """Collapse a merged 2x2 run into an exact and a quantized ``U`` gate.

    Returns ``(exact, quantized, phase)`` with ``matrix == exp(i*phase) *
    exact.matrix``; ``quantized`` is None when the run is the identity up to
    a global phase on the grid.  The phase is the *unquantized* residue
    ``alpha - (phi+lam)/2`` (the caller accumulates and quantizes once at the
    end, so per-run rounding cannot drift the total).
    """
    alpha, theta, phi, lam = zyz_decomposition(matrix)
    exact = UGate(theta, phi, lam)
    phase = alpha - (phi + lam) / 2.0
    q_theta = canonical_angle(theta)
    if q_theta == 0.0:
        # Diagonal: only phi + lam matters; fold it into one angle so both
        # ZYZ branches produce the same normal form.
        q_sum = canonical_angle(phi + lam)
        if q_sum == 0.0:
            return exact, None, phase
        return exact, UGate(0.0, q_sum, 0.0), phase
    return exact, UGate(q_theta, canonical_angle(phi), canonical_angle(lam)), phase


def _template(operation: Operation) -> list[tuple[Gate, tuple[int, ...], np.ndarray | None]]:
    """A gate's translation on local qubits ``0..k-1``: ``(piece, qubits, matrix)``.

    ``matrix`` is the matrix of a single-qubit piece (to merge), else None.
    """
    pieces = translate_instruction(Instruction(operation, range(operation.num_qubits)))
    return [
        (
            piece.operation,
            piece.qubits,
            piece.operation.matrix if piece.operation.num_qubits == 1 else None,
        )
        for piece in pieces
    ]


def canonical_forms(
    instructions: Iterable[Instruction],
    translate: Sequence[bool] | None = None,
) -> list[tuple[Instruction, Operation | None]]:
    """The canonical form of an instruction stream, exact and quantized at once.

    Each item is ``(exact, quantized)``: ``exact`` is an instruction of a
    circuit that realizes the input *exactly* (merged runs as unquantized
    ``U`` gates, their phase residues summed into one trailing ``gphase``,
    which is always there), and ``quantized`` is the operation of the
    canonical form on the same qubits, or None where the canonical form
    drops the gate (an identity run, a zero phase).

    ``translate[i]`` (default: all) selects the instructions that are
    library-translated and merged; the others pass through unchanged in both
    forms and end the runs on their qubits.
    """
    result: list[tuple[Instruction, Operation | None]] = []
    pending: dict[int, np.ndarray] = {}
    accumulated_phase = 0.0
    # Gates outside the base set repeat, so each distinct one is translated
    # once.
    templates: dict[Operation, list] = {}

    def flush(qubit: int) -> None:
        nonlocal accumulated_phase
        matrix = pending.pop(qubit, None)
        if matrix is None:
            return
        exact, quantized, phase = _merged_gate(matrix)
        accumulated_phase += phase
        result.append((Instruction(exact, (qubit,)), quantized))

    def merge(qubit: int, matrix: np.ndarray) -> None:
        previous = pending.get(qubit)
        pending[qubit] = matrix if previous is None else matrix @ previous

    def emit(instruction: Instruction) -> None:
        for qubit in instruction.qubits:
            flush(qubit)
        result.append((instruction, instruction.operation))

    for index, instruction in enumerate(instructions):
        operation = instruction.operation
        if translate is not None and not translate[index]:
            emit(instruction)
            continue
        if not instruction.is_gate or instruction.is_barrier or instruction.condition is not None:
            # Dynamic primitives pass through; a condition stays on every piece.
            for piece in translate_instruction(instruction):
                emit(piece)
            continue
        if isinstance(operation, GlobalPhaseGate):
            accumulated_phase += operation.phase
            continue
        if operation.num_qubits == 1:
            merge(instruction.qubits[0], operation.matrix)
            continue
        if isinstance(operation, CXGate) and operation.ctrl_state == 1:
            emit(instruction)
            continue
        template = templates.get(operation)
        if template is None:
            template = templates[operation] = _template(operation)
        qubits = instruction.qubits
        for piece, local, matrix in template:
            if matrix is not None:
                merge(qubits[local[0]], matrix)
            elif isinstance(piece, GlobalPhaseGate):
                accumulated_phase += piece.phase
            else:
                emit(Instruction(piece, tuple(qubits[position] for position in local)))

    for qubit in sorted(pending):
        flush(qubit)
    final_phase = canonical_angle(accumulated_phase)
    result.append(
        (
            Instruction(GlobalPhaseGate(accumulated_phase), ()),
            GlobalPhaseGate(final_phase) if final_phase != 0.0 else None,
        )
    )
    return result


def canonicalize(circuit: QuantumCircuit) -> QuantumCircuit:
    """The canonical form of ``circuit`` (see the module docstring)."""
    result = circuit.copy_empty(name=f"{circuit.name}_canonical")
    for exact, quantized in canonical_forms(circuit):
        if quantized is exact.operation:
            result.append_instruction(exact)
        elif quantized is not None:
            result.append_instruction(Instruction(quantized, exact.qubits))
    return result
