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
merged runs unquantized) in one pass, optionally for a subset of the gates.
It is the one implementation behind all three users: the alternating
checker matches translated gates on the quantized form and applies or
cancels the exact one (:func:`repro.core.strategies.canonical_matching`),
:func:`canonical_instructions` reads the canonical form off the same walk
for the canonical fingerprint (:mod:`repro.service.fingerprint`), and
:func:`canonicalize` appends those instructions to a circuit.  Each distinct
gate is translated, and each distinct merged run decomposed, once per
process (bounded LRU memos shared by every thread, whose entries are
immutable).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gates import CXGate, Gate, GlobalPhaseGate, Operation, UGate
from repro.circuit.operations import Instruction
from repro.compilation.basis import translate_instruction, zyz_decomposition

__all__ = [
    "CANONICAL_ANGLE_GRID",
    "canonical_angle",
    "canonical_forms",
    "canonical_instructions",
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


#: Entries each of the per-process memos :func:`_merged_gate` and
#: :func:`_template` keep.  Replaying ``service-repeat`` (seed 1, 100 blocks
#: after priming) both are full and hit on 99% of lookups (529 and 531
#: misses); 1,000 pairs of distinct random-angle circuits still hit on
#: 53% and 62% of them, as a pair's check walks the gates and runs of its
#: key.
_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _merged_gate(data: bytes) -> tuple[UGate, UGate | None, float]:
    """Collapse a merged 2x2 run into an exact and a quantized ``U`` gate.

    ``data`` is the run's complex matrix as bytes: the translations of a
    circuit repeat its runs, and equal bytes decompose alike, so each
    distinct run pays the ZYZ decomposition once per process.

    Returns ``(exact, quantized, phase)`` with ``matrix == exp(i*phase) *
    exact.matrix``; ``quantized`` is None when the run is the identity up to
    a global phase on the grid.  The phase is the *unquantized* residue
    ``alpha - (phi+lam)/2`` (the caller accumulates and quantizes once at the
    end, so per-run rounding cannot drift the total).
    """
    alpha, theta, phi, lam = zyz_decomposition(np.frombuffer(data, dtype=complex).reshape(2, 2))
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


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _template(
    operation: Operation,
) -> tuple[tuple[Gate, tuple[int, ...], np.ndarray | None], ...]:
    """A gate's translation on local qubits ``0..k-1``: ``(piece, qubits, matrix)``.

    ``matrix`` is the matrix of a single-qubit piece (to merge), else None; a
    single-qubit gate is its own one piece.  Memoized per process and shared
    by every job thread, so the entries are immutable: tuples, and read-only
    matrices.
    """
    pieces = translate_instruction(Instruction(operation, range(operation.num_qubits)))
    return tuple(
        (piece.operation, piece.qubits, _read_only(piece.operation.matrix))
        if piece.operation.num_qubits == 1
        else (piece.operation, piece.qubits, None)
        for piece in pieces
    )


def _read_only(matrix: np.ndarray) -> np.ndarray:
    """``matrix`` as a read-only complex array (runs are keyed on its bytes)."""
    matrix = np.ascontiguousarray(matrix, dtype=complex)
    matrix.flags.writeable = False
    return matrix


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

    def flush(qubit: int) -> None:
        nonlocal accumulated_phase
        matrix = pending.pop(qubit, None)
        if matrix is None:
            return
        exact, quantized, phase = _merged_gate(matrix.tobytes())
        accumulated_phase += phase
        result.append((Instruction.prevalidated(exact, (qubit,)), quantized))

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
        if isinstance(operation, CXGate) and operation.ctrl_state == 1:
            emit(instruction)
            continue
        qubits = instruction.qubits
        for piece, local, matrix in _template(operation):
            if matrix is not None:
                qubit = qubits[local[0]]
                previous = pending.get(qubit)
                pending[qubit] = matrix if previous is None else matrix @ previous
            elif isinstance(piece, GlobalPhaseGate):
                accumulated_phase += piece.phase
            else:
                mapped = tuple(qubits[position] for position in local)
                emit(Instruction.prevalidated(piece, mapped))

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


def canonical_instructions(circuit: QuantumCircuit) -> Iterator[Instruction]:
    """The instructions of the canonical form of ``circuit``, in order.

    One :func:`canonical_forms` walk: where the canonical form keeps an
    instruction as it is, that instruction itself; where it replaces one
    (a merged run, the total phase), the quantized gate on the same qubits.
    """
    for exact, quantized in canonical_forms(circuit):
        if quantized is exact.operation:
            yield exact
        elif quantized is not None:
            yield Instruction.prevalidated(quantized, exact.qubits)


def canonicalize(circuit: QuantumCircuit) -> QuantumCircuit:
    """The canonical form of ``circuit`` (see the module docstring)."""
    result = circuit.copy_empty(name=f"{circuit.name}_canonical")
    for instruction in canonical_instructions(circuit):
        result.append_instruction(instruction)
    return result
