"""The construction equivalence checker.

Builds both system matrices in full — as decision diagrams or dense numpy
arrays — and compares them.  Conceptually the simplest prover, and the most
memory-hungry: the alternating scheme exists precisely to avoid materializing
both unitaries.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from typing import TYPE_CHECKING, ClassVar

from repro.core.checkers.base import (
    Checker,
    CheckerOutcome,
    criterion_from_matrix,
    criterion_from_scalar,
    dd_work,
    register,
)
from repro.dd.circuits import circuit_to_unitary_dd_steps
from repro.dd.package import DDPackage
from repro.simulators.unitary import circuit_unitary_steps

if TYPE_CHECKING:  # pragma: no cover
    from repro.circuit.circuit import QuantumCircuit
    from repro.core.configuration import Configuration

__all__ = ["ConstructionChecker"]


class ConstructionChecker(Checker):
    """Prove or refute equivalence by building both unitaries outright."""

    name: ClassVar[str] = "construction"
    role: ClassVar[str] = "prover"

    def steps(
        self,
        first: "QuantumCircuit",
        second: "QuantumCircuit",
        configuration: "Configuration",
    ) -> Generator[int, None, CheckerOutcome]:
        """One step per gate while it builds ``U1`` and then ``U2'^dagger``.

        On the DD backend a gate costs ``1 +`` the nodes the package created
        since the previous step (the first also pays for the identity); on
        the dense backend every gate costs 1.  The step that multiplies the
        two unitaries and compares the product with the identity returns
        the verdict.
        """
        config = configuration
        if config.backend == "dd":
            package = DDPackage(first.num_qubits, gate_cache_size=config.gate_cache_size)
            work = dd_work(package)
            unitary_first = yield from _charged(
                circuit_to_unitary_dd_steps(package, first), work
            )
            unitary_second_inverse = yield from _charged(
                circuit_to_unitary_dd_steps(
                    package, second.remove_final_measurements().inverse()
                ),
                work,
            )
            product = package.multiply_matrices(unitary_first, unitary_second_inverse)
            scalar = package.identity_scalar(product, config.tolerance)
            details = {
                "nodes_first": package.count_nodes(unitary_first),
                "nodes_second": package.count_nodes(unitary_second_inverse),
                "final_nodes": package.count_nodes(product),
                "dd_statistics": package.statistics(),
            }
            return CheckerOutcome(criterion_from_scalar(scalar, config.tolerance), details)

        unitary_first = yield from _charged(circuit_unitary_steps(first), lambda: 1)
        unitary_second = yield from _charged(circuit_unitary_steps(second), lambda: 1)
        product = unitary_first @ unitary_second.conj().T
        return CheckerOutcome(criterion_from_matrix(product, config.tolerance))


def _charged(build: Generator, cost: Callable[[], int]) -> Generator[int, None, object]:
    """Re-yield every step of ``build`` at ``cost()`` and return its result."""
    while True:
        try:
            next(build)
        except StopIteration as stop:
            return stop.value
        yield cost()


register(ConstructionChecker)
