"""The construction equivalence checker.

Builds both system matrices in full — as decision diagrams or dense numpy
arrays — and compares them.  Conceptually the simplest prover, and the most
memory-hungry: the alternating scheme exists precisely to avoid materializing
both unitaries.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING, ClassVar

from repro.core.checkers.base import (
    Checker,
    CheckerOutcome,
    criterion_from_matrix,
    criterion_from_scalar,
    register,
)
from repro.dd.package import DDPackage
from repro.simulators.unitary import circuit_unitary

if TYPE_CHECKING:  # pragma: no cover
    from repro.circuit.circuit import QuantumCircuit
    from repro.core.configuration import Configuration

__all__ = ["ConstructionChecker"]


class ConstructionChecker(Checker):
    """Prove or refute equivalence by building both unitaries outright."""

    name: ClassVar[str] = "construction"
    role: ClassVar[str] = "prover"

    def check(
        self,
        first: "QuantumCircuit",
        second: "QuantumCircuit",
        configuration: "Configuration",
        *,
        interrupt: Callable[[], bool] | None = None,
    ) -> CheckerOutcome:
        config = configuration
        if config.backend == "dd":
            package = DDPackage(first.num_qubits, gate_cache_size=config.gate_cache_size)
            from repro.dd.circuits import circuit_to_unitary_dd

            unitary_first = circuit_to_unitary_dd(package, first, interrupt=interrupt)
            unitary_second_inverse = circuit_to_unitary_dd(
                package,
                second.remove_final_measurements().inverse(),
                interrupt=interrupt,
            )
            self.check_interrupt(interrupt)
            product = package.multiply_matrices(unitary_first, unitary_second_inverse)
            scalar = package.identity_scalar(product, config.tolerance)
            details = {
                "nodes_first": package.count_nodes(unitary_first),
                "nodes_second": package.count_nodes(unitary_second_inverse),
                "final_nodes": package.count_nodes(product),
                "dd_statistics": package.statistics(),
            }
            return CheckerOutcome(criterion_from_scalar(scalar, config.tolerance), details)

        unitary_first = circuit_unitary(first, interrupt=interrupt)
        unitary_second = circuit_unitary(second, interrupt=interrupt)
        self.check_interrupt(interrupt)
        product = unitary_first @ unitary_second.conj().T
        return CheckerOutcome(criterion_from_matrix(product, config.tolerance))


register(ConstructionChecker)
