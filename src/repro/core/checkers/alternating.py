"""The alternating (QCEC-style) equivalence checker.

Keeps the product ``E = U * U'^dagger`` close to the identity by interleaving
gate applications from both circuits at a rate proportional to their gate
counts; see :mod:`repro.core.strategies`.  The DD and dense backends share
that one schedule.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from repro.core.checkers.base import (
    Checker,
    CheckerOutcome,
    criterion_from_matrix,
    criterion_from_scalar,
    gate_lists,
    inverse_instruction,
    register,
)
from repro.core.strategies import LEFT, alternating_schedule
from repro.dd.circuits import instruction_to_dd
from repro.dd.package import DDPackage
from repro.simulators.unitary import embed_gate_matrix

if TYPE_CHECKING:  # pragma: no cover
    from repro.circuit.circuit import QuantumCircuit
    from repro.core.configuration import Configuration

__all__ = ["AlternatingChecker"]


class AlternatingChecker(Checker):
    """Prove or refute equivalence via the alternating scheme."""

    name: ClassVar[str] = "alternating"
    role: ClassVar[str] = "prover"

    def check(
        self,
        first: "QuantumCircuit",
        second: "QuantumCircuit",
        configuration: "Configuration",
        *,
        interrupt: Callable[[], bool] | None = None,
    ) -> CheckerOutcome:
        return self.drain(self.steps(first, second, configuration), interrupt)

    def steps(
        self,
        first: "QuantumCircuit",
        second: "QuantumCircuit",
        configuration: "Configuration",
        *,
        interrupt: Callable[[], bool] | None = None,
    ) -> Generator[int, None, CheckerOutcome]:
        """One step per applied gate (cost 1)."""
        if configuration.backend == "dd":
            return self._steps_dd(first, second, configuration)
        return self._steps_dense(first, second, configuration)

    def _steps_dd(
        self,
        first: "QuantumCircuit",
        second: "QuantumCircuit",
        config: "Configuration",
    ) -> Generator[int, None, CheckerOutcome]:
        num_qubits = first.num_qubits
        package = DDPackage(num_qubits, gate_cache_size=config.gate_cache_size)
        left, right = gate_lists(first, second)
        # Node counts memoized by root node: nodes are immutable, so a
        # root's count never changes, and a product often returns to a root
        # it had before (the identity above all).
        counts: dict = {}

        def count_nodes(edge) -> int:
            count = counts.get(edge.node)
            if count is None:
                count = counts[edge.node] = package.count_nodes(edge)
            return count

        product = package.identity()
        max_nodes = count_nodes(product)
        remaining = len(left) + len(right)
        left_gates = iter(left)
        right_gates = iter(right)
        for token in alternating_schedule(len(left), len(right)):
            if token == LEFT:
                gate_dd = instruction_to_dd(package, next(left_gates))
                product = package.multiply_matrices(gate_dd, product)
            else:
                gate_dd = instruction_to_dd(package, inverse_instruction(next(right_gates)))
                product = package.multiply_matrices(product, gate_dd)
            max_nodes = max(max_nodes, count_nodes(product))
            remaining -= 1
            if remaining:
                yield 1

        scalar = package.identity_scalar(product, config.tolerance)
        details = {
            "max_nodes": max_nodes,
            "final_nodes": count_nodes(product),
            "num_gates_first": len(left),
            "num_gates_second": len(right),
            "dd_statistics": package.statistics(),
        }
        return CheckerOutcome(criterion_from_scalar(scalar, config.tolerance), details)

    def _steps_dense(
        self,
        first: "QuantumCircuit",
        second: "QuantumCircuit",
        config: "Configuration",
    ) -> Generator[int, None, CheckerOutcome]:
        num_qubits = first.num_qubits
        dim = 1 << num_qubits
        left, right = gate_lists(first, second)
        product = np.eye(dim, dtype=complex)
        remaining = len(left) + len(right)

        left_matrices = (_dense_gate(inst, num_qubits) for inst in left)
        right_matrices = (
            _dense_gate(inverse_instruction(inst), num_qubits) for inst in right
        )
        for token in alternating_schedule(len(left), len(right)):
            if token == LEFT:
                product = next(left_matrices) @ product
            else:
                product = product @ next(right_matrices)
            remaining -= 1
            if remaining:
                yield 1

        details = {"num_gates_first": len(left), "num_gates_second": len(right)}
        return CheckerOutcome(criterion_from_matrix(product, config.tolerance), details)


def _dense_gate(instruction, num_qubits: int) -> np.ndarray:
    gate = instruction.operation
    if gate.num_qubits == 0:
        return complex(gate.matrix[0, 0]) * np.eye(1 << num_qubits, dtype=complex)
    return embed_gate_matrix(gate.matrix, instruction.qubits, num_qubits)


register(AlternatingChecker)
