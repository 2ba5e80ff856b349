"""The alternating (QCEC-style) equivalence checker.

Keeps the product ``E = U * U'^dagger`` close to the identity by applying
matched frontier gates of both circuits as pairs and otherwise interleaving
them at a rate proportional to their gate counts; see
:func:`repro.core.strategies.matched_schedule`.  The DD and dense backends
walk that one schedule.

The DD backend first puts the gates without an identical partner on the
other side into canonical form (:func:`repro.core.strategies.
canonical_matching`), so a circuit and its translation to another gate set
match gate by gate; pairs that share every gate walk unchanged.  It
*cancels* a matched pair ``(g, g')`` while the product is a scalar multiple
of the identity (its root node carries the ``identity`` flag) and the two
unquantized gate matrices agree entry by entry within ``epsilon =
tolerance / (16 * gates)``: ``g * (w * I) * g'^-1`` is then ``w * I``
exactly, or within ``2 * epsilon`` (the gates that may differ are 2x2 or
1x1), so it builds no gate DD and multiplies nothing, and the product stays
the same edge.  Even if every pair cancelled at the bound, the skipped
deviation stays below ``tolerance / 8``: quantization never decides a
verdict.  A cancelled pair is a step of cost 0;
``details["cancelled_pairs"]`` counts them.  They pair the gates the walk
matched, ``details["num_walked_first"]`` and ``["num_walked_second"]`` per
side: a translated gate walks as its canonical gates, so a translated pair
may cancel more pairs than either circuit has gates.  An applied gate costs
its DD work, ``1 +`` the nodes it created.  On the paper's static vs. reconstructed
BV, QFT and QPE pairs every gate cancels, and so does a translation of
either side.  The dense backend walks the raw gates and applies every one;
the tests use it as ground truth.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from repro.core.checkers.base import (
    Checker,
    CheckerOutcome,
    criterion_from_matrix,
    criterion_from_scalar,
    dd_work,
    gate_lists,
    inverse_instruction,
    register,
)
from repro.core.strategies import canonical_matching, matched_schedule
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

    def check(self, first, second, configuration) -> CheckerOutcome:
        # The seam perfbench/spans.py wraps; Checker.check drains the steps.
        return super().check(first, second, configuration)

    def steps(
        self,
        first: "QuantumCircuit",
        second: "QuantumCircuit",
        configuration: "Configuration",
    ) -> Generator[int, None, CheckerOutcome]:
        """One step per applied gate or cancelled pair.

        On the DD backend an applied gate costs ``1 +`` the nodes the
        package created since the previous step (its gate DD and the
        product's new nodes; the first also pays for the identity), and a
        cancelled pair costs 0.  On the dense backend every gate costs 1.
        """
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
        raw_left, raw_right = gate_lists(first, second)
        left, right, keys = canonical_matching(raw_left, raw_right)
        epsilon = config.tolerance / (16 * max(len(left), len(right), 1))
        # Node counts memoized by root node: nodes are immutable, so a
        # root's count never changes, and a product often returns to a root
        # it had before (the identity above all).
        counts: dict = {}

        def count_nodes(edge) -> int:
            count = counts.get(edge.node)
            if count is None:
                count = counts[edge.node] = package.count_nodes(edge)
            return count

        work = dd_work(package)
        product = package.identity()
        max_nodes = count_nodes(product)
        cancelled = 0
        remaining = len(left) + len(right)
        for gate, partner in matched_schedule(left, right, keys=keys):
            node = product.node
            if (
                gate is not None
                and partner is not None
                and (node is None or node.identity)
                and _agree(gate.operation, partner.operation, epsilon)
            ):
                # g * (w * I) * g'^-1 == w * I within epsilon (a terminal root
                # is a scalar too): nothing to build, multiply or count.
                cancelled += 1
                remaining -= 2
                if remaining:
                    yield 0
                continue
            if gate is not None:
                product = package.multiply_matrices(instruction_to_dd(package, gate), product)
                max_nodes = max(max_nodes, count_nodes(product))
                remaining -= 1
                if remaining:
                    yield work()
            if partner is not None:
                gate_dd = instruction_to_dd(package, inverse_instruction(partner))
                product = package.multiply_matrices(product, gate_dd)
                max_nodes = max(max_nodes, count_nodes(product))
                remaining -= 1
                if remaining:
                    yield work()

        scalar = package.identity_scalar(product, config.tolerance)
        details = {
            "max_nodes": max_nodes,
            "final_nodes": count_nodes(product),
            "num_gates_first": len(raw_left),
            "num_gates_second": len(raw_right),
            "num_walked_first": len(left),
            "num_walked_second": len(right),
            "cancelled_pairs": cancelled,
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
        for gate, partner in matched_schedule(left, right):
            if gate is not None:
                product = _dense_gate(gate, num_qubits) @ product
                remaining -= 1
                if remaining:
                    yield 1
            if partner is not None:
                product = product @ _dense_gate(inverse_instruction(partner), num_qubits)
                remaining -= 1
                if remaining:
                    yield 1

        details = {
            "num_gates_first": len(left),
            "num_gates_second": len(right),
            "num_walked_first": len(left),
            "num_walked_second": len(right),
            "cancelled_pairs": 0,
        }
        return CheckerOutcome(criterion_from_matrix(product, config.tolerance), details)


def _agree(gate, partner, epsilon: float) -> bool:
    """Whether two gates with the same match key may cancel.

    Equal keys mean equal operations up to their parameters (a translated
    gate's key holds its quantized form), so bitwise-equal parameters mean
    the same gate; otherwise the matrices decide.
    """
    if gate.params == partner.params:
        return True
    return float(np.max(np.abs(gate.matrix - partner.matrix))) <= epsilon


def _dense_gate(instruction, num_qubits: int) -> np.ndarray:
    gate = instruction.operation
    if gate.num_qubits == 0:
        return complex(gate.matrix[0, 0]) * np.eye(1 << num_qubits, dtype=complex)
    return embed_gate_matrix(gate.matrix, instruction.qubits, num_qubits)


register(AlternatingChecker)
