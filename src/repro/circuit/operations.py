"""Circuit instructions: an operation bound to qubits, clbits and an optional
classical condition.

A *classical condition* is what turns an ordinary gate into a
classically-controlled operation — one of the three dynamic-circuit primitives
discussed in the paper (together with mid-circuit measurement and reset).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.circuit.gates import Barrier, Gate, Measure, Operation, Reset
from repro.exceptions import CircuitError
from repro.utils.bits import int_to_bits

__all__ = ["ClassicalCondition", "Instruction"]


@dataclass(frozen=True)
class ClassicalCondition:
    """Condition ``clbits == value`` attached to an instruction.

    ``clbits`` are circuit-level classical bit indices, least significant
    first; ``value`` is the integer the bits must equal for the operation to
    be applied.
    """

    clbits: tuple[int, ...]
    value: int

    def __post_init__(self) -> None:
        if not self.clbits:
            raise CircuitError("a classical condition needs at least one classical bit")
        if len(set(self.clbits)) != len(self.clbits):
            raise CircuitError(f"duplicate classical bits in condition: {self.clbits}")
        if not 0 <= self.value < (1 << len(self.clbits)):
            raise CircuitError(
                f"condition value {self.value} out of range for {len(self.clbits)} bit(s)"
            )

    @property
    def bit_values(self) -> tuple[int, ...]:
        """Required value of each condition bit, aligned with ``clbits``."""
        return tuple(int_to_bits(self.value, len(self.clbits)))

    def is_satisfied(self, classical_values: Sequence[int]) -> bool:
        """Evaluate the condition against a full classical-bit assignment."""
        for clbit, required in zip(self.clbits, self.bit_values):
            if classical_values[clbit] != required:
                return False
        return True


class Instruction:
    """An operation applied to specific circuit qubits/clbits.

    Attributes
    ----------
    operation:
        The underlying :class:`~repro.circuit.gates.Operation`.
    qubits:
        Circuit-level qubit indices, in the operation's operand order.
    clbits:
        Circuit-level classical bit indices (only measurements use these).
    condition:
        Optional :class:`ClassicalCondition`; when present the operation is a
        classically-controlled operation.
    """

    __slots__ = ("operation", "qubits", "clbits", "condition")

    def __init__(
        self,
        operation: Operation,
        qubits: Sequence[int],
        clbits: Sequence[int] = (),
        condition: ClassicalCondition | None = None,
    ) -> None:
        qubits = tuple(int(q) for q in qubits)
        clbits = tuple(int(c) for c in clbits)
        if len(qubits) != operation.num_qubits:
            raise CircuitError(
                f"operation {operation.name!r} expects {operation.num_qubits} qubit(s), "
                f"got {len(qubits)}"
            )
        if len(set(qubits)) != len(qubits):
            raise CircuitError(f"duplicate qubits in instruction: {qubits}")
        if len(clbits) != operation.num_clbits:
            raise CircuitError(
                f"operation {operation.name!r} expects {operation.num_clbits} clbit(s), "
                f"got {len(clbits)}"
            )
        if condition is not None and not (operation.is_unitary or isinstance(operation, Reset)):
            # OpenQASM 2 allows ``if (c == v)`` on any quantum operation; of
            # the non-unitary primitives only the conditioned *reset* has
            # well-defined semantics here (measure-into-a-bit under a
            # condition on that very register is ill-specified).
            raise CircuitError(
                f"only unitary operations and resets may carry a classical "
                f"condition, got {operation.name!r}"
            )
        self.operation = operation
        self.qubits = qubits
        self.clbits = clbits
        self.condition = condition

    @classmethod
    def prevalidated(
        cls,
        operation: Operation,
        qubits: tuple[int, ...],
        clbits: tuple[int, ...] = (),
        condition: ClassicalCondition | None = None,
    ) -> "Instruction":
        """An instruction built without the checks of ``__init__``.

        Only for operands derived from validated instructions (qubits rewired
        through an injective map, controls already checked for conflicts):
        ``qubits`` and ``clbits`` must be int tuples of the operation's arity
        without duplicates, and ``condition`` one ``__init__`` would accept.
        """
        instruction = object.__new__(cls)
        instruction.operation = operation
        instruction.qubits = qubits
        instruction.clbits = clbits
        instruction.condition = condition
        return instruction

    # -- classification helpers used throughout the core package ------------

    @property
    def is_gate(self) -> bool:
        """True if the underlying operation is a unitary gate."""
        return isinstance(self.operation, Gate)

    @property
    def is_measurement(self) -> bool:
        """True for measurement instructions."""
        return isinstance(self.operation, Measure)

    @property
    def is_reset(self) -> bool:
        """True for reset instructions."""
        return isinstance(self.operation, Reset)

    @property
    def is_barrier(self) -> bool:
        """True for barrier pseudo-instructions."""
        return isinstance(self.operation, Barrier)

    @property
    def is_classically_controlled(self) -> bool:
        """True if the instruction carries a classical condition."""
        return self.condition is not None

    @property
    def is_dynamic(self) -> bool:
        """True if this is one of the dynamic-circuit (non-unitary) primitives."""
        return self.is_measurement or self.is_reset or self.is_classically_controlled

    def replace(
        self,
        operation: Operation | None = None,
        qubits: Sequence[int] | None = None,
        clbits: Sequence[int] | None = None,
        condition: ClassicalCondition | None = None,
        *,
        drop_condition: bool = False,
    ) -> "Instruction":
        """Return a copy with selected fields replaced."""
        return Instruction(
            operation if operation is not None else self.operation,
            qubits if qubits is not None else self.qubits,
            clbits if clbits is not None else self.clbits,
            None if drop_condition else (condition if condition is not None else self.condition),
        )

    def __reduce__(self):
        # Rebuild through __init__ (instead of restoring raw slots) so that an
        # unpickled instruction has passed the same operand validation as one
        # built directly — important for circuits shipped to worker processes.
        return (Instruction, (self.operation, self.qubits, self.clbits, self.condition))

    def __repr__(self) -> str:
        parts = [f"{self.operation.name}", f"qubits={list(self.qubits)}"]
        if self.clbits:
            parts.append(f"clbits={list(self.clbits)}")
        if self.condition is not None:
            parts.append(f"if c{list(self.condition.clbits)}=={self.condition.value}")
        return f"Instruction({', '.join(parts)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instruction):
            return NotImplemented
        return (
            self.operation == other.operation
            and self.qubits == other.qubits
            and self.clbits == other.clbits
            and self.condition == other.condition
        )

    def __hash__(self) -> int:
        return hash((self.operation, self.qubits, self.clbits, self.condition))
