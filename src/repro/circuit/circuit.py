"""The :class:`QuantumCircuit` intermediate representation.

The circuit is a flat list of :class:`~repro.circuit.operations.Instruction`
objects over integer-indexed qubits and classical bits, optionally grouped
into named registers.  It supports both *static* circuits (unitary gates plus
final measurements) and *dynamic* circuits containing the non-unitary
primitives the paper is concerned with: mid-circuit measurements, resets, and
classically-controlled operations.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence

from repro.circuit.gates import (
    Barrier,
    CCXGate,
    CCZGate,
    CHGate,
    CPhaseGate,
    CRXGate,
    CRYGate,
    CRZGate,
    CSwapGate,
    CUGate,
    CXGate,
    CYGate,
    CZGate,
    Gate,
    GlobalPhaseGate,
    HGate,
    IGate,
    MCPhaseGate,
    MCXGate,
    Measure,
    Operation,
    PhaseGate,
    RXGate,
    RYGate,
    RZGate,
    Reset,
    SdgGate,
    SGate,
    SwapGate,
    SXdgGate,
    SXGate,
    TdgGate,
    TGate,
    U2Gate,
    UGate,
    XGate,
    YGate,
    ZGate,
    iSwapGate,
)
from repro.circuit.operations import ClassicalCondition, Instruction
from repro.circuit.registers import ClassicalRegister, Clbit, QuantumRegister, Qubit
from repro.exceptions import CircuitError

__all__ = ["QuantumCircuit"]

QubitSpecifier = "int | Qubit"
ClbitSpecifier = "int | Clbit"


class QuantumCircuit:
    """A quantum circuit over named quantum and classical registers.

    Parameters
    ----------
    *regs:
        Any mix of :class:`QuantumRegister`, :class:`ClassicalRegister` and
        plain integers.  An integer adds an anonymous register of that size —
        the first integer a quantum register named ``"q"``, the second a
        classical register named ``"c"`` (mirroring the common two-integer
        constructor ``QuantumCircuit(n, m)``).
    name:
        Optional circuit name (used in exports and reports).

    Examples
    --------
    >>> qc = QuantumCircuit(2, 2, name="bell")
    >>> qc.h(0)
    >>> qc.cx(0, 1)
    >>> qc.measure(0, 0)
    >>> qc.measure(1, 1)
    >>> qc.num_qubits, qc.num_clbits, qc.size
    (2, 2, 4)
    """

    def __init__(self, *regs: QuantumRegister | ClassicalRegister | int, name: str = "circuit"):
        self.name = name
        self._qregs: list[QuantumRegister] = []
        self._cregs: list[ClassicalRegister] = []
        self._qubits: list[Qubit] = []
        self._clbits: list[Clbit] = []
        self._qubit_indices: dict[Qubit, int] = {}
        self._clbit_indices: dict[Clbit, int] = {}
        self._data: list[Instruction] = []
        # The answer of is_dynamic, computed on first use.  Every write to
        # the _data of an existing circuit resets it to None; a new circuit
        # starts at None.
        self._dynamic: bool | None = None
        # Fingerprint form texts by kind, filled by repro.service.fingerprint
        # on first use.  Cleared wherever _dynamic is reset and by
        # add_register (the bit counts are part of every form); never
        # pickled.
        self._forms: dict[str, str | None] = {}

        int_count = 0
        for reg in regs:
            if isinstance(reg, QuantumRegister):
                self.add_register(reg)
            elif isinstance(reg, ClassicalRegister):
                self.add_register(reg)
            elif isinstance(reg, int):
                if int_count == 0:
                    self.add_register(QuantumRegister(reg, "q"))
                elif int_count == 1:
                    self.add_register(ClassicalRegister(reg, "c"))
                else:
                    raise CircuitError(
                        "at most two integer register sizes may be given "
                        "(quantum and classical)"
                    )
                int_count += 1
            else:
                raise CircuitError(f"unsupported register specifier: {reg!r}")

    # ------------------------------------------------------------------
    # registers and bits
    # ------------------------------------------------------------------

    def add_register(self, register: QuantumRegister | ClassicalRegister) -> None:
        """Add a register (its bits are appended to the flat bit lists)."""
        self._forms.clear()
        if isinstance(register, QuantumRegister):
            if any(r.name == register.name for r in self._qregs):
                raise CircuitError(f"duplicate quantum register name {register.name!r}")
            self._qregs.append(register)
            for qubit in register:
                self._qubit_indices[qubit] = len(self._qubits)
                self._qubits.append(qubit)
        elif isinstance(register, ClassicalRegister):
            if any(r.name == register.name for r in self._cregs):
                raise CircuitError(f"duplicate classical register name {register.name!r}")
            self._cregs.append(register)
            for clbit in register:
                self._clbit_indices[clbit] = len(self._clbits)
                self._clbits.append(clbit)
        else:
            raise CircuitError(f"unsupported register type: {register!r}")

    @property
    def qregs(self) -> list[QuantumRegister]:
        """Quantum registers, in insertion order."""
        return list(self._qregs)

    @property
    def cregs(self) -> list[ClassicalRegister]:
        """Classical registers, in insertion order."""
        return list(self._cregs)

    @property
    def qubits(self) -> list[Qubit]:
        """Flat list of qubits (index = circuit qubit index)."""
        return list(self._qubits)

    @property
    def clbits(self) -> list[Clbit]:
        """Flat list of classical bits (index = circuit clbit index)."""
        return list(self._clbits)

    @property
    def num_qubits(self) -> int:
        """Number of qubits."""
        return len(self._qubits)

    @property
    def num_clbits(self) -> int:
        """Number of classical bits."""
        return len(self._clbits)

    def qubit_index(self, qubit: "int | Qubit") -> int:
        """Resolve a qubit specifier (index or :class:`Qubit`) to its index."""
        if isinstance(qubit, Qubit):
            try:
                return self._qubit_indices[qubit]
            except KeyError:
                raise CircuitError(f"{qubit!r} is not part of this circuit") from None
        index = int(qubit)
        if not 0 <= index < self.num_qubits:
            raise CircuitError(
                f"qubit index {index} out of range (circuit has {self.num_qubits} qubits)"
            )
        return index

    def clbit_index(self, clbit: "int | Clbit") -> int:
        """Resolve a classical-bit specifier to its index."""
        if isinstance(clbit, Clbit):
            try:
                return self._clbit_indices[clbit]
            except KeyError:
                raise CircuitError(f"{clbit!r} is not part of this circuit") from None
        index = int(clbit)
        if not 0 <= index < self.num_clbits:
            raise CircuitError(
                f"clbit index {index} out of range (circuit has {self.num_clbits} clbits)"
            )
        return index

    def _resolve_condition(
        self, condition: "tuple | ClassicalCondition | None"
    ) -> ClassicalCondition | None:
        if condition is None or isinstance(condition, ClassicalCondition):
            return condition
        try:
            target, value = condition
        except (TypeError, ValueError):
            raise CircuitError(
                f"condition must be a (clbits, value) pair, got {condition!r}"
            ) from None
        if isinstance(target, ClassicalRegister):
            clbits = tuple(self.clbit_index(bit) for bit in target)
        elif isinstance(target, (list, tuple)):
            clbits = tuple(self.clbit_index(bit) for bit in target)
        else:
            clbits = (self.clbit_index(target),)
        return ClassicalCondition(clbits, int(value))

    # ------------------------------------------------------------------
    # instruction access
    # ------------------------------------------------------------------

    @property
    def data(self) -> list[Instruction]:
        """The instruction list (a copy; use :meth:`append` to modify)."""
        return list(self._data)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __getitem__(self, index):
        return self._data[index]

    @property
    def size(self) -> int:
        """Total number of instructions excluding barriers (``|G|`` in the paper)."""
        return sum(1 for inst in self._data if not inst.is_barrier)

    def count_ops(self) -> Counter:
        """Histogram of operation names."""
        return Counter(inst.operation.name for inst in self._data)

    @property
    def num_measurements(self) -> int:
        """Number of measurement instructions."""
        return sum(1 for inst in self._data if inst.is_measurement)

    @property
    def num_resets(self) -> int:
        """Number of reset instructions."""
        return sum(1 for inst in self._data if inst.is_reset)

    @property
    def num_classically_controlled(self) -> int:
        """Number of classically-controlled operations."""
        return sum(1 for inst in self._data if inst.is_classically_controlled)

    @property
    def is_dynamic(self) -> bool:
        """Whether the circuit contains any dynamic (non-unitary) primitive
        other than measurements at the very end.

        Measurements are allowed at the tail of a circuit without making it
        dynamic: a trailing measurement layer is the conventional read-out of
        a static circuit.  Everything else — resets, classically-controlled
        operations, or measurements followed by further quantum operations on
        the measured qubit — makes the circuit dynamic.  The answer is
        computed once and kept until the instruction list changes.
        """
        if self._dynamic is None:
            self._dynamic = self._scan_dynamic()
        return self._dynamic

    def _scan_dynamic(self) -> bool:
        measured: set[int] = set()
        for inst in self._data:
            if inst.is_barrier:
                continue
            if inst.is_reset or inst.is_classically_controlled:
                return True
            if inst.is_measurement:
                measured.add(inst.qubits[0])
                continue
            if measured.intersection(inst.qubits):
                return True
        return False

    @property
    def contains_non_unitaries(self) -> bool:
        """Whether the circuit contains any non-unitary instruction at all."""
        return any(inst.is_measurement or inst.is_reset for inst in self._data) or any(
            inst.is_classically_controlled for inst in self._data
        )

    def depth(self) -> int:
        """Circuit depth (longest path over shared qubits/clbits), ignoring barriers."""
        levels: dict[str, int] = {}
        depth = 0
        for inst in self._data:
            if inst.is_barrier:
                continue
            wires = [f"q{q}" for q in inst.qubits] + [f"c{c}" for c in inst.clbits]
            if inst.condition is not None:
                wires.extend(f"c{c}" for c in inst.condition.clbits)
            level = 1 + max((levels.get(w, 0) for w in wires), default=0)
            for w in wires:
                levels[w] = level
            depth = max(depth, level)
        return depth

    # ------------------------------------------------------------------
    # building
    # ------------------------------------------------------------------

    def append(
        self,
        operation: Operation,
        qubits: Sequence["int | Qubit"] = (),
        clbits: Sequence["int | Clbit"] = (),
        condition: "tuple | ClassicalCondition | None" = None,
    ) -> Instruction:
        """Append ``operation`` acting on the given qubits/clbits.

        Returns the created :class:`Instruction`.
        """
        qubit_indices = tuple(self.qubit_index(q) for q in qubits)
        clbit_indices = tuple(self.clbit_index(c) for c in clbits)
        instruction = Instruction(
            operation, qubit_indices, clbit_indices, self._resolve_condition(condition)
        )
        self._data.append(instruction)
        self._dynamic = None
        self._forms.clear()
        return instruction

    def append_instruction(self, instruction: Instruction) -> Instruction:
        """Append a pre-built instruction (indices must already be resolved)."""
        for q in instruction.qubits:
            self.qubit_index(q)
        for c in instruction.clbits:
            self.clbit_index(c)
        if instruction.condition is not None:
            for c in instruction.condition.clbits:
                self.clbit_index(c)
        self._data.append(instruction)
        self._dynamic = None
        self._forms.clear()
        return instruction

    # -- single-qubit gates -------------------------------------------------

    def i(self, qubit, condition=None) -> Instruction:
        """Apply the identity gate."""
        return self.append(IGate(), [qubit], condition=condition)

    def x(self, qubit, condition=None) -> Instruction:
        """Apply the Pauli-X gate."""
        return self.append(XGate(), [qubit], condition=condition)

    def y(self, qubit, condition=None) -> Instruction:
        """Apply the Pauli-Y gate."""
        return self.append(YGate(), [qubit], condition=condition)

    def z(self, qubit, condition=None) -> Instruction:
        """Apply the Pauli-Z gate."""
        return self.append(ZGate(), [qubit], condition=condition)

    def h(self, qubit, condition=None) -> Instruction:
        """Apply the Hadamard gate."""
        return self.append(HGate(), [qubit], condition=condition)

    def s(self, qubit, condition=None) -> Instruction:
        """Apply the S gate."""
        return self.append(SGate(), [qubit], condition=condition)

    def sdg(self, qubit, condition=None) -> Instruction:
        """Apply the S-dagger gate."""
        return self.append(SdgGate(), [qubit], condition=condition)

    def t(self, qubit, condition=None) -> Instruction:
        """Apply the T gate."""
        return self.append(TGate(), [qubit], condition=condition)

    def tdg(self, qubit, condition=None) -> Instruction:
        """Apply the T-dagger gate."""
        return self.append(TdgGate(), [qubit], condition=condition)

    def sx(self, qubit, condition=None) -> Instruction:
        """Apply the sqrt(X) gate."""
        return self.append(SXGate(), [qubit], condition=condition)

    def sxdg(self, qubit, condition=None) -> Instruction:
        """Apply the sqrt(X)-dagger gate."""
        return self.append(SXdgGate(), [qubit], condition=condition)

    def rx(self, theta, qubit, condition=None) -> Instruction:
        """Apply an X rotation by ``theta``."""
        return self.append(RXGate(theta), [qubit], condition=condition)

    def ry(self, theta, qubit, condition=None) -> Instruction:
        """Apply a Y rotation by ``theta``."""
        return self.append(RYGate(theta), [qubit], condition=condition)

    def rz(self, theta, qubit, condition=None) -> Instruction:
        """Apply a Z rotation by ``theta``."""
        return self.append(RZGate(theta), [qubit], condition=condition)

    def p(self, theta, qubit, condition=None) -> Instruction:
        """Apply a phase gate ``p(theta)``."""
        return self.append(PhaseGate(theta), [qubit], condition=condition)

    def u(self, theta, phi, lam, qubit, condition=None) -> Instruction:
        """Apply the generic single-qubit gate ``U(theta, phi, lam)``."""
        return self.append(UGate(theta, phi, lam), [qubit], condition=condition)

    def u2(self, phi, lam, qubit, condition=None) -> Instruction:
        """Apply the legacy ``u2(phi, lam)`` gate."""
        return self.append(U2Gate(phi, lam), [qubit], condition=condition)

    def global_phase(self, phase) -> Instruction:
        """Multiply the overall state by ``exp(i*phase)``."""
        return self.append(GlobalPhaseGate(phase), [])

    # -- two-qubit gates ------------------------------------------------------

    def cx(self, control, target, condition=None) -> Instruction:
        """Apply a CNOT gate."""
        return self.append(CXGate(), [control, target], condition=condition)

    def cy(self, control, target, condition=None) -> Instruction:
        """Apply a controlled-Y gate."""
        return self.append(CYGate(), [control, target], condition=condition)

    def cz(self, control, target, condition=None) -> Instruction:
        """Apply a controlled-Z gate."""
        return self.append(CZGate(), [control, target], condition=condition)

    def ch(self, control, target, condition=None) -> Instruction:
        """Apply a controlled-Hadamard gate."""
        return self.append(CHGate(), [control, target], condition=condition)

    def cp(self, theta, control, target, condition=None) -> Instruction:
        """Apply a controlled phase gate ``cp(theta)``."""
        return self.append(CPhaseGate(theta), [control, target], condition=condition)

    def crx(self, theta, control, target, condition=None) -> Instruction:
        """Apply a controlled X rotation."""
        return self.append(CRXGate(theta), [control, target], condition=condition)

    def cry(self, theta, control, target, condition=None) -> Instruction:
        """Apply a controlled Y rotation."""
        return self.append(CRYGate(theta), [control, target], condition=condition)

    def crz(self, theta, control, target, condition=None) -> Instruction:
        """Apply a controlled Z rotation."""
        return self.append(CRZGate(theta), [control, target], condition=condition)

    def cu(self, theta, phi, lam, control, target, condition=None) -> Instruction:
        """Apply a controlled ``U(theta, phi, lam)`` gate."""
        return self.append(CUGate(theta, phi, lam), [control, target], condition=condition)

    def swap(self, qubit1, qubit2, condition=None) -> Instruction:
        """Apply a SWAP gate."""
        return self.append(SwapGate(), [qubit1, qubit2], condition=condition)

    def iswap(self, qubit1, qubit2, condition=None) -> Instruction:
        """Apply an iSWAP gate."""
        return self.append(iSwapGate(), [qubit1, qubit2], condition=condition)

    # -- three-qubit and multi-controlled gates -------------------------------

    def ccx(self, control1, control2, target, condition=None) -> Instruction:
        """Apply a Toffoli gate."""
        return self.append(CCXGate(), [control1, control2, target], condition=condition)

    def ccz(self, control1, control2, target, condition=None) -> Instruction:
        """Apply a doubly-controlled Z gate."""
        return self.append(CCZGate(), [control1, control2, target], condition=condition)

    def cswap(self, control, target1, target2, condition=None) -> Instruction:
        """Apply a Fredkin (controlled-SWAP) gate."""
        return self.append(CSwapGate(), [control, target1, target2], condition=condition)

    def mcx(self, controls: Sequence, target, condition=None) -> Instruction:
        """Apply a multi-controlled X gate."""
        controls = list(controls)
        return self.append(MCXGate(len(controls)), [*controls, target], condition=condition)

    def mcp(self, theta, controls: Sequence, target, condition=None) -> Instruction:
        """Apply a multi-controlled phase gate."""
        controls = list(controls)
        return self.append(
            MCPhaseGate(theta, len(controls)), [*controls, target], condition=condition
        )

    # -- non-unitary operations -----------------------------------------------

    def measure(self, qubit, clbit) -> Instruction:
        """Measure ``qubit`` into ``clbit``."""
        return self.append(Measure(), [qubit], [clbit])

    def measure_all(self) -> list[Instruction]:
        """Measure qubit ``k`` into classical bit ``k`` for every qubit.

        Requires at least as many classical bits as qubits.
        """
        if self.num_clbits < self.num_qubits:
            raise CircuitError(
                f"measure_all needs {self.num_qubits} classical bits, "
                f"circuit has {self.num_clbits}"
            )
        return [self.measure(q, q) for q in range(self.num_qubits)]

    def reset(self, qubit, condition=None) -> Instruction:
        """Reset ``qubit`` to |0> (optionally classically conditioned)."""
        return self.append(Reset(), [qubit], condition=condition)

    def barrier(self, *qubits) -> Instruction:
        """Insert a barrier (over all qubits when none are given)."""
        if not qubits:
            qubits = tuple(range(self.num_qubits))
        return self.append(Barrier(len(qubits)), list(qubits))

    # ------------------------------------------------------------------
    # whole-circuit transformations
    # ------------------------------------------------------------------

    def copy(self, name: str | None = None) -> "QuantumCircuit":
        """Return a shallow copy (instructions are immutable, so this is safe)."""
        other = QuantumCircuit(name=name or self.name)
        for reg in self._qregs:
            other.add_register(reg)
        for reg in self._cregs:
            other.add_register(reg)
        other._data = list(self._data)
        return other

    def copy_empty(self, name: str | None = None) -> "QuantumCircuit":
        """Return a copy with the same registers but no instructions."""
        other = self.copy(name=name)
        other._data = []
        return other

    def inverse(self, name: str | None = None) -> "QuantumCircuit":
        """Return the inverse circuit.

        Only defined for circuits consisting purely of unitary gates (no
        measurements, resets or classical conditions).
        """
        other = self.copy_empty(name=name or f"{self.name}_dg")
        for inst in reversed(self._data):
            if inst.is_barrier:
                other._data.append(inst)
                continue
            if not inst.is_gate or inst.condition is not None:
                raise CircuitError(
                    "cannot invert a circuit containing non-unitary operations; "
                    "transform it with repro.core.to_unitary_circuit first"
                )
            gate = inst.operation
            assert isinstance(gate, Gate)
            other._data.append(Instruction(gate.inverse(), inst.qubits))
        return other

    def compose(
        self,
        other: "QuantumCircuit",
        qubits: Sequence[int] | None = None,
        clbits: Sequence[int] | None = None,
    ) -> "QuantumCircuit":
        """Return a new circuit with ``other`` appended onto this one.

        ``qubits``/``clbits`` map the other circuit's bit index ``k`` to
        ``qubits[k]`` of this circuit (identity mapping by default).
        """
        if qubits is None:
            qubits = list(range(other.num_qubits))
        if clbits is None:
            clbits = list(range(other.num_clbits))
        if len(qubits) != other.num_qubits:
            raise CircuitError(
                f"qubit mapping has {len(qubits)} entries, other circuit has "
                f"{other.num_qubits} qubits"
            )
        if len(clbits) != other.num_clbits:
            raise CircuitError(
                f"clbit mapping has {len(clbits)} entries, other circuit has "
                f"{other.num_clbits} clbits"
            )
        result = self.copy()
        for inst in other._data:
            mapped_qubits = tuple(qubits[q] for q in inst.qubits)
            mapped_clbits = tuple(clbits[c] for c in inst.clbits)
            condition = inst.condition
            if condition is not None:
                condition = ClassicalCondition(
                    tuple(clbits[c] for c in condition.clbits), condition.value
                )
            result.append_instruction(
                Instruction(inst.operation, mapped_qubits, mapped_clbits, condition)
            )
        return result

    def remove_barriers(self) -> "QuantumCircuit":
        """Return a copy without barrier instructions."""
        other = self.copy_empty()
        other._data = [inst for inst in self._data if not inst.is_barrier]
        return other

    @property
    def free_parameters(self) -> frozenset:
        """The symbolic parameters the circuit's gates still depend on."""
        names: set = set()
        for inst in self._data:
            names |= inst.operation.free_parameters
        return frozenset(names)

    def bind_parameters(self, mapping) -> "QuantumCircuit":
        """Substitute symbolic parameter values, returning a new circuit.

        ``mapping`` maps :class:`~repro.circuit.parameter.Parameter` objects
        (or their names) to numeric values.  Gates without free parameters
        are shared unchanged; parameterized gates are rebuilt through their
        constructors so binding re-runs full validation.
        """
        other = self.copy_empty()
        other._data = [
            inst.replace(operation=inst.operation.bind_parameters(mapping))
            if inst.operation.free_parameters
            else inst
            for inst in self._data
        ]
        return other

    def readout_positions(self) -> set[int]:
        """Positions in :attr:`data` of the read-out measurements.

        A measurement is a read-out one when no later instruction other than
        a barrier or a measurement acts on its qubit and no later classical
        condition reads its bit.  Every measurement of a qubit read into
        several bits at the end is one; a measurement whose bit a later
        condition reads is not.  This is the one place the rule lives:
        :meth:`remove_final_measurements`, Scheme 1's gate streams and
        routing's read-out tail all use it.
        """
        positions: set[int] = set()
        used_later: set[int] = set()
        read_later: set[int] = set()
        for position in range(len(self._data) - 1, -1, -1):
            inst = self._data[position]
            if inst.is_barrier:
                continue
            if inst.is_measurement:
                if inst.qubits[0] not in used_later and inst.clbits[0] not in read_later:
                    positions.add(position)
                continue
            used_later.update(inst.qubits)
            if inst.condition is not None:
                read_later.update(inst.condition.clbits)
        return positions

    def remove_final_measurements(self) -> "QuantumCircuit":
        """Return a copy without its read-out measurements
        (see :meth:`readout_positions`)."""
        readout = self.readout_positions()
        other = self.copy_empty()
        other._data = [inst for position, inst in enumerate(self._data) if position not in readout]
        return other

    def gate_instructions(self) -> Iterator[Instruction]:
        """Iterate over unitary, unconditioned gate instructions (skip barriers).

        Raises if a dynamic primitive is encountered — callers that need to
        handle dynamic circuits must transform or branch first.
        """
        for inst in self._data:
            if inst.is_barrier:
                continue
            if not inst.is_gate or inst.condition is not None:
                raise CircuitError(
                    f"circuit contains non-unitary instruction {inst!r}; "
                    "use repro.core.to_unitary_circuit or the extraction scheme"
                )
            yield inst

    def used_qubits(self) -> set[int]:
        """Indices of qubits touched by at least one instruction."""
        used: set[int] = set()
        for inst in self._data:
            if inst.is_barrier:
                continue
            used.update(inst.qubits)
        return used

    # ------------------------------------------------------------------
    # pickling
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Pickle only the structural state: registers and instruction stream.

        The index maps ``_qubit_indices``/``_clbit_indices`` are keyed by bits
        that hash by register *identity*; serializing them would bake in
        memory addresses.  They are derived state and are rebuilt from the
        registers on unpickling, so circuits round-trip through ``pickle``
        (e.g. into a ``ProcessPoolExecutor``) with an identical instruction
        stream and internally consistent bit bookkeeping.
        """
        return {
            "name": self.name,
            "qregs": self._qregs,
            "cregs": self._cregs,
            "data": self._data,
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(name=state["name"])
        for register in state["qregs"]:
            self.add_register(register)
        for register in state["cregs"]:
            self.add_register(register)
        self._data = list(state["data"])

    # ------------------------------------------------------------------
    # presentation
    # ------------------------------------------------------------------

    def to_qasm(self) -> str:
        """Export the circuit as OpenQASM 2 (with ``if`` for classical control)."""
        from repro.circuit.qasm import circuit_to_qasm

        return circuit_to_qasm(self)

    @staticmethod
    def from_qasm(text: str) -> "QuantumCircuit":
        """Parse an OpenQASM 2 string produced by :meth:`to_qasm` (or similar)."""
        from repro.circuit.qasm import circuit_from_qasm

        return circuit_from_qasm(text)

    def draw(self) -> str:
        """Render a plain-text drawing of the circuit."""
        from repro.circuit.drawer import draw_circuit

        return draw_circuit(self)

    def summary(self) -> str:
        """One-line summary used in logs and benchmark tables."""
        return (
            f"{self.name}: {self.num_qubits} qubits, {self.num_clbits} clbits, "
            f"{self.size} ops (measure={self.num_measurements}, reset={self.num_resets}, "
            f"classically-controlled={self.num_classically_controlled})"
        )

    def __repr__(self) -> str:
        return f"<QuantumCircuit {self.summary()}>"
