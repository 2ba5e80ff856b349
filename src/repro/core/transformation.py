"""Scheme 1: unitary reconstruction through circuit transformation (Section 4).

Dynamic circuits contain three non-unitary primitives: resets, mid-circuit
measurements and classically-controlled operations.
:func:`to_unitary_circuit` removes all three in one walk over the
instructions, keeping two maps:

* a *wire map* sends each original qubit to the wire that currently plays
  its role.  A reset of a qubit that has been acted on moves the qubit to a
  fresh wire, appended after the original ones, so an ``n``-qubit circuit
  with ``r`` effective resets becomes an ``(n + r)``-qubit circuit without
  qubit re-use;
* a *clbit map* records the wire each measurement wrote.  By the deferred
  measurement principle every measurement moves to a final measurement
  layer, and every operation classically controlled on a measured bit
  becomes the same operation *quantum-controlled* on that wire.

The result holds only unitary gates followed by that measurement layer, so
*any* existing equivalence-checking flow applies (``U =? U'``).  The two
halves stay public as views of the same walk: :func:`substitute_resets`
follows the wire map only, and :func:`defer_measurements` the clbit map only
(on a reset-free circuit).  An instruction whose wires did not move is
re-emitted as the same object; the others are built from validated parts
without running :class:`~repro.circuit.operations.Instruction`'s checks
again.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gates import Barrier, Gate, Measure, Reset, SwapGate
from repro.circuit.operations import Instruction
from repro.circuit.registers import ClassicalRegister, QuantumRegister
from repro.exceptions import TransformationError

__all__ = [
    "TransformationResult",
    "defer_measurements",
    "permute_qubits",
    "substitute_resets",
    "to_unitary_circuit",
]


@dataclass
class TransformationResult:
    """Outcome of :func:`to_unitary_circuit`.

    Attributes
    ----------
    circuit:
        The reconstructed, purely unitary circuit (with a trailing measurement
        layer so that the classical outputs remain observable).
    num_original_qubits / num_added_qubits:
        Qubit bookkeeping: ``num_added_qubits`` counts the fresh wires, one
        per effective reset (a reset of a qubit still in |0> is dropped)
        and one ancilla per conditioned reset.
    measurement_sources:
        Maps each classical bit to the qubit that is measured into it at the
        end of the reconstructed circuit (classical bits that are never
        written are absent).
    time_taken:
        Wall-clock seconds spent on the transformation (``t_trans``).
    """

    circuit: QuantumCircuit
    num_original_qubits: int
    num_added_qubits: int
    measurement_sources: dict[int, int] = field(default_factory=dict)
    time_taken: float = 0.0

    @property
    def fresh_qubits(self) -> tuple[int, ...]:
        """The wires the rebuild added, in order: reset wires and
        conditioned-reset ancillas, which follow the original qubits.

        Every one of them starts in |0> in the dynamic circuit, so an input
        of the rebuilt circuit that a dynamic circuit can receive sets them
        to |0>.
        """
        start = self.num_original_qubits
        return tuple(range(start, start + self.num_added_qubits))


def _fresh_register_name(circuit: QuantumCircuit, base: str) -> str:
    existing = {reg.name for reg in circuit.qregs} | {reg.name for reg in circuit.cregs}
    if base not in existing:
        return base
    suffix = 0
    while f"{base}{suffix}" in existing:
        suffix += 1
    return f"{base}{suffix}"


def _rebuild(
    circuit: QuantumCircuit, *, defer: bool
) -> tuple[QuantumCircuit, dict[int, int], int]:
    """The one walk behind this module.

    Rewires every reset onto a fresh wire and, with ``defer``, also defers
    every measurement.  Returns the rebuilt circuit, the ``clbit -> wire``
    map of its final measurement layer and the number of fresh wires.
    """
    num_qubits = circuit.num_qubits
    wire = list(range(num_qubits))  # wire[q]: the wire playing original qubit q
    rewired = False
    touched: set[int] = set()  # wires acted on; any other wire is still |0>
    source: dict[int, int] = {}  # clbit -> wire its last measurement wrote
    measured: set[int] = set()
    next_fresh = num_qubits
    saw_reset = False
    emitted: list[Instruction] = []

    for instruction in circuit:
        operation = instruction.operation
        wires = tuple([wire[q] for q in instruction.qubits]) if rewired else instruction.qubits
        if isinstance(operation, Barrier):
            emitted.append(_rewired(instruction, wires))
            continue
        if isinstance(operation, Reset):
            saw_reset = True
            if wires[0] not in touched:
                # The qubit is still in |0>; the reset has no effect whether
                # or not a classical condition would have fired.
                continue
            fresh = next_fresh
            next_fresh += 1
            if instruction.condition is None:
                wire[instruction.qubits[0]] = fresh
                rewired = True
                continue
            # A conditioned reset: rewiring would make it unconditional, so
            # the role stays on its wire, which conditionally swaps its state
            # into a fresh |0> ancilla (see substitute_resets).
            touched.add(fresh)
            instruction = Instruction.prevalidated(
                SwapGate(), (wires[0], fresh), (), instruction.condition
            )
            operation, wires = instruction.operation, instruction.qubits
        touched.update(wires)
        if not defer:
            emitted.append(_rewired(instruction, wires))
            continue
        if isinstance(operation, Measure):
            source[instruction.clbits[0]] = wires[0]
            measured.add(wires[0])
            continue
        if not measured.isdisjoint(wires):
            raise TransformationError(
                f"qubit(s) {sorted(measured.intersection(wires))} are used after being "
                "measured; the deferred measurement principle does not apply (did you "
                "forget substitute_resets?)"
            )
        if instruction.condition is None:
            emitted.append(_rewired(instruction, wires))
        else:
            emitted.extend(_classical_to_quantum_control(instruction, wires, source))

    num_fresh = next_fresh - num_qubits
    name = circuit.name + ("_no_reset" if saw_reset else "") + ("_deferred" if defer else "")
    result = QuantumCircuit(name=name)
    for register in circuit.qregs:
        result.add_register(register)
    if num_fresh:
        result.add_register(
            QuantumRegister(num_fresh, _fresh_register_name(circuit, "reset_anc"))
        )
    for register in circuit.cregs:
        result.add_register(register)
    if defer:
        measure = Measure()
        emitted.extend(
            Instruction.prevalidated(measure, (qubit,), (clbit,))
            for clbit, qubit in sorted(source.items())
        )
        # Unitary gates then one measurement layer: static by construction.
        result._dynamic = False
    result._data = emitted
    return result, source, num_fresh


def _rewired(instruction: Instruction, wires: tuple[int, ...]) -> Instruction:
    """``instruction`` on ``wires``: the same object when its wires did not move."""
    if wires == instruction.qubits:
        return instruction
    return Instruction.prevalidated(
        instruction.operation, wires, instruction.clbits, instruction.condition
    )


def substitute_resets(circuit: QuantumCircuit) -> QuantumCircuit:
    """Eliminate qubit re-use by giving every reset a fresh qubit.

    The wire-map half of :func:`to_unitary_circuit`'s walk: measurements
    and classical conditions stay in place.  The fresh qubits are appended
    after the original ones, in the order in which the resets appear in the
    circuit.  Resetting a qubit that is still in its initial |0> state (i.e.
    was never operated on) is a no-op and does not consume a fresh qubit.

    A *classically-conditioned* reset cannot be rewired statically (whether
    the role moves to the fresh qubit depends on a run-time value).  It is
    instead replaced by a conditioned SWAP with a fresh |0> ancilla — the
    role qubit conditionally trades its state for |0>, which is exactly a
    reset with the discarded state parked on the ancilla.
    :func:`defer_measurements` then converts the conditioned SWAP into a
    quantum-controlled SWAP on the measurement-source qubit, completing the
    faithful unitary reconstruction.  (A conditioned reset of the very qubit
    that sourced its own condition still has no reconstruction: the deferred
    control and the swap target would coincide, and
    :func:`defer_measurements` reports that.)
    """
    return _rebuild(circuit, defer=False)[0]


def defer_measurements(circuit: QuantumCircuit) -> tuple[QuantumCircuit, dict[int, int]]:
    """Delay all measurements to the end of the circuit.

    The clbit-map half of :func:`to_unitary_circuit`'s walk.
    Classically-controlled operations are replaced by quantum-controlled
    operations on the qubits that source the respective classical bits.  The
    circuit must not contain resets (run :func:`substitute_resets` first) and
    a measured qubit must not be acted on afterwards — both conditions hold by
    construction for circuits produced by :func:`substitute_resets`.

    Returns the deferred circuit and the mapping ``classical bit -> measured
    qubit`` of the final measurement layer.
    """
    if circuit.num_resets:
        raise TransformationError(
            "defer_measurements requires a reset-free circuit; run substitute_resets first"
        )
    deferred, sources, _ = _rebuild(circuit, defer=True)
    return deferred, sources


def _classical_to_quantum_control(
    instruction: Instruction, wires: tuple[int, ...], source: dict[int, int]
) -> list[Instruction]:
    """Convert one classically-controlled instruction, on ``wires``, into
    quantum-controlled ones.

    Returns an empty list when the condition can never be satisfied (it
    requires a classical bit that has not been written to be 1).  A
    controlled *composite* (multi-qubit base gate, e.g. the conditioned SWAP
    of a conditioned reset) is factored through the
    :data:`~repro.circuit.equivalence_library.StandardEquivalenceLibrary`
    into controlled single-qubit gates every backend accepts natively.
    """
    condition = instruction.condition
    assert condition is not None
    gate = instruction.operation
    if not isinstance(gate, Gate):
        raise TransformationError(
            f"cannot defer the non-gate conditioned operation {instruction!r}"
        )

    # Bit k of ctrl_state is the value control k must hold.
    controls: list[int] = []
    ctrl_state = 0
    for position, clbit in enumerate(condition.clbits):
        required = (condition.value >> position) & 1
        control = source.get(clbit)
        if control is None:
            if required:
                # The classical bit is still 0 and the condition requires 1:
                # the operation is never executed.
                return []
            # required == 0 on an unwritten bit is trivially satisfied.
            continue
        ctrl_state |= required << len(controls)
        controls.append(control)

    if not controls:
        return [Instruction.prevalidated(gate, wires, instruction.clbits)]

    conflict = set(controls).intersection(wires)
    if conflict:
        raise TransformationError(
            f"cannot convert condition into controls: qubit(s) {sorted(conflict)} would be "
            "both control and target"
        )
    if len(set(controls)) != len(controls):
        raise TransformationError(
            "condition references the same source qubit twice; cannot convert to controls"
        )

    controlled = gate.control(len(controls), ctrl_state)
    operands = tuple(controls) + wires
    if controlled.base_gate.num_qubits > 1:
        from repro.circuit.equivalence_library import StandardEquivalenceLibrary

        factored = StandardEquivalenceLibrary.controlled_factoring(controlled)
        if factored is not None:
            return [
                Instruction.prevalidated(
                    sub_gate, tuple([operands[index] for index in local])
                )
                for sub_gate, local in factored
            ]
    return [Instruction.prevalidated(controlled, operands)]


def to_unitary_circuit(circuit: QuantumCircuit) -> TransformationResult:
    """Full unitary reconstruction: resets rewired and measurements deferred
    in one walk over ``circuit``."""
    start = time.perf_counter()
    rebuilt, sources, num_added = _rebuild(circuit, defer=True)
    return TransformationResult(
        circuit=rebuilt,
        num_original_qubits=circuit.num_qubits,
        num_added_qubits=num_added,
        measurement_sources=sources,
        time_taken=time.perf_counter() - start,
    )


def permute_qubits(circuit: QuantumCircuit, permutation: dict[int, int]) -> QuantumCircuit:
    """Relabel the qubits of ``circuit`` according to ``permutation``.

    ``permutation[old] = new`` must be a bijection on ``range(num_qubits)``.
    This is useful when comparing a reconstructed dynamic circuit with a
    static counterpart whose qubits are ordered differently.
    """
    num_qubits = circuit.num_qubits
    if sorted(permutation.keys()) != list(range(num_qubits)) or sorted(
        permutation.values()
    ) != list(range(num_qubits)):
        raise TransformationError(
            f"permutation must be a bijection on range({num_qubits}), got {permutation}"
        )
    result = QuantumCircuit(
        QuantumRegister(num_qubits, "q"),
        *[ClassicalRegister(reg.size, reg.name) for reg in circuit.cregs],
        name=f"{circuit.name}_permuted",
    )
    for instruction in circuit:
        mapped = tuple(permutation[q] for q in instruction.qubits)
        result.append_instruction(
            Instruction(instruction.operation, mapped, instruction.clbits, instruction.condition)
        )
    return result
