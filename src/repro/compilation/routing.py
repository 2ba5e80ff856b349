"""Qubit routing (mapping) onto a coupling map.

The router maps logical qubits onto the physical qubits of a device and
inserts SWAP gates whenever a two-qubit gate acts on non-adjacent physical
qubits (shortest-path routing).  By default the logical-to-physical layout is
restored at the end of the circuit, so the routed circuit is *strictly*
functionally equivalent to the original one padded to the device size — the
property the equivalence checker is then used to verify.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gates import SwapGate
from repro.circuit.operations import Instruction
from repro.circuit.registers import ClassicalRegister, QuantumRegister
from repro.compilation.coupling import CouplingMap
from repro.exceptions import CompilationError

__all__ = ["RoutingResult", "pad_circuit", "route_circuit"]


@dataclass
class RoutingResult:
    """Routed circuit plus layout bookkeeping."""

    circuit: QuantumCircuit
    initial_layout: list[int]
    final_layout: list[int]
    num_swaps: int = 0
    details: dict = field(default_factory=dict)


def pad_circuit(circuit: QuantumCircuit, num_qubits: int) -> QuantumCircuit:
    """Return a copy of ``circuit`` extended with idle qubits up to ``num_qubits``.

    Used to compare an ``n``-qubit logical circuit against its realization on
    a device with more physical qubits.
    """
    if num_qubits < circuit.num_qubits:
        raise CompilationError(
            f"cannot pad a {circuit.num_qubits}-qubit circuit down to {num_qubits} qubits"
        )
    if num_qubits == circuit.num_qubits:
        return circuit.copy()
    result = QuantumCircuit(
        QuantumRegister(num_qubits, "q"),
        *[ClassicalRegister(reg.size, reg.name) for reg in circuit.cregs],
        name=f"{circuit.name}_padded",
    )
    for instruction in circuit:
        result.append_instruction(instruction)
    return result


class _Layout:
    """Bidirectional logical <-> physical qubit assignment."""

    def __init__(self, logical_to_physical: list[int], num_physical: int):
        self.logical_to_physical = list(logical_to_physical)
        self.physical_to_logical: list[int | None] = [None] * num_physical
        for logical, physical in enumerate(self.logical_to_physical):
            if self.physical_to_logical[physical] is not None:
                raise CompilationError(f"physical qubit {physical} assigned twice in layout")
            self.physical_to_logical[physical] = logical

    def physical(self, logical: int) -> int:
        return self.logical_to_physical[logical]

    def swap_physical(self, a: int, b: int) -> None:
        """Record that physical qubits ``a`` and ``b`` exchanged their contents."""
        logical_a = self.physical_to_logical[a]
        logical_b = self.physical_to_logical[b]
        self.physical_to_logical[a], self.physical_to_logical[b] = logical_b, logical_a
        if logical_a is not None:
            self.logical_to_physical[logical_a] = b
        if logical_b is not None:
            self.logical_to_physical[logical_b] = a


def route_circuit(
    circuit: QuantumCircuit,
    coupling_map: CouplingMap,
    initial_layout: list[int] | None = None,
    *,
    restore_layout: bool = True,
) -> RoutingResult:
    """Map ``circuit`` onto ``coupling_map`` by inserting SWAP gates.

    Parameters
    ----------
    circuit:
        The logical circuit; only single- and two-qubit gates are supported
        (run the basis decomposition first).
    coupling_map:
        Device connectivity.
    initial_layout:
        ``initial_layout[logical] = physical``; defaults to the identity.
    restore_layout:
        Append SWAPs at the end so that the final layout equals the initial
        one, making the routed circuit strictly equivalent to the (padded)
        original.
    """
    num_logical = circuit.num_qubits
    num_physical = coupling_map.num_qubits
    if num_logical > num_physical:
        raise CompilationError(
            f"circuit needs {num_logical} qubits but the device only has {num_physical}"
        )
    if not coupling_map.is_connected():
        raise CompilationError("the coupling map is not connected")
    if initial_layout is None:
        initial_layout = list(range(num_logical))
    if sorted(set(initial_layout)) != sorted(initial_layout) or any(
        not 0 <= p < num_physical for p in initial_layout
    ):
        raise CompilationError(f"invalid initial layout {initial_layout}")

    layout = _Layout(initial_layout, num_physical)
    routed = QuantumCircuit(
        QuantumRegister(num_physical, "q"),
        *[ClassicalRegister(reg.size, reg.name) for reg in circuit.cregs],
        name=f"{circuit.name}_routed",
    )
    num_swaps = 0

    def insert_swap(a: int, b: int) -> None:
        nonlocal num_swaps
        routed.append_instruction(Instruction(SwapGate(), (a, b)))
        layout.swap_physical(a, b)
        num_swaps += 1

    # Split off the read-out measurements: the layout is restored *before*
    # them, so that the routed circuit never operates on a qubit after it
    # has been measured (which would make it dynamic).  A measurement whose
    # bit a later condition reads stays in the body.
    instructions = list(circuit)
    readout = circuit.readout_positions()
    body = [inst for position, inst in enumerate(instructions) if position not in readout]
    tail = [inst for position, inst in enumerate(instructions) if position in readout]

    for instruction in body:
        if instruction.is_barrier:
            mapped = tuple(layout.physical(q) for q in instruction.qubits)
            routed.append_instruction(instruction.replace(qubits=mapped))
            continue
        physical_qubits = tuple(layout.physical(q) for q in instruction.qubits)
        if len(physical_qubits) > 2:
            raise CompilationError(
                f"routing requires <= 2-qubit operations, got {instruction!r}; "
                "run decompose_to_cx_and_single_qubit first"
            )
        if len(physical_qubits) == 2 and not coupling_map.are_adjacent(*physical_qubits):
            path = coupling_map.shortest_path(*physical_qubits)
            # Move the first operand along the path until it neighbours the second.
            for hop in range(len(path) - 2):
                insert_swap(path[hop], path[hop + 1])
            physical_qubits = tuple(layout.physical(q) for q in instruction.qubits)
        routed.append_instruction(instruction.replace(qubits=physical_qubits))

    final_before_restore = list(layout.logical_to_physical)
    if restore_layout:
        for logical in range(num_logical):
            target = initial_layout[logical]
            while layout.physical(logical) != target:
                current = layout.physical(logical)
                path = coupling_map.shortest_path(current, target)
                insert_swap(path[0], path[1])

    for instruction in tail:
        mapped = tuple(layout.physical(q) for q in instruction.qubits)
        routed.append_instruction(instruction.replace(qubits=mapped))

    return RoutingResult(
        circuit=routed,
        initial_layout=list(initial_layout),
        final_layout=list(layout.logical_to_physical),
        num_swaps=num_swaps,
        details={"layout_before_restore": final_before_restore},
    )
