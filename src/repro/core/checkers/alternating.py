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
either side.

The *settled suffix* is the schedule's trailing run of matched pairs whose
two gates have bitwise-equal parameters: the condition under which a pair
is one gate ``g`` on both sides, so it only conjugates the product, ``E ->
g * E * g^-1``.  When the walk reaches that suffix holding a product whose
root is not a scalar (an ``rz`` mutant, just after its ``rz``), it reads
``tau = |tr E| / 2^n`` once and answers ``NOT_EQUIVALENT`` if ``1 - tau^2 >
2^n * (2n * tolerance)^2``; otherwise it walks on.  The rule is sound:

1. ``identity_scalar`` accepts a product only within ``n * tolerance`` of
   ``c * I`` entry by entry (one tolerance per DD level), so an accepted
   final product has ``min_w ||E - w * I||_F <= 2^n * n * tolerance``.
2. For a unitary ``E`` that distance is ``sqrt(2^n - |tr E|^2 / 2^n)``, and
   conjugation leaves ``|tr E|`` unchanged, so the final product of a walk
   that would be accepted has ``1 - tau^2 <= 2^n * (n * tolerance)^2``.
3. The factor 2 on ``n * tolerance`` absorbs the DD's rounding.

``details["settled_pairs"]`` counts the pairs left unapplied (0 when the walk
ran to the end).  Near-tolerance mutants, registers of 35 qubits or more at
the default tolerance (where the bound reaches 1) and schedules ending in
an unpaired gate walk in full.  The dense backend walks the raw gates and
applies every one; the tests use it as ground truth.
"""

from __future__ import annotations

import math
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
        schedule = list(matched_schedule(left, right, keys=keys))
        # Found when the product first leaves the scalars: a product that
        # enters the suffix as a scalar cancels every pair of it and stays one.
        settle_at = None
        settled = 0
        for index, (gate, partner) in enumerate(schedule):
            node = product.node
            scalar_root = node is None or node.identity
            if not scalar_root:
                if settle_at is None:
                    settle_at = _settled_start(schedule)
                if index == settle_at and _far_from_scalar(
                    package, product, num_qubits, config.tolerance
                ):
                    # Only identical pairs remain: they conjugate the product,
                    # which keeps its distance from every c * I.
                    settled = len(schedule) - index
                    break
            if (
                gate is not None
                and partner is not None
                and scalar_root
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
            "settled_pairs": settled,
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


def _settled_start(schedule) -> int:
    """Index of the schedule's settled suffix: its trailing identical pairs.

    A pair whose two gates share a match key and bitwise-equal parameters
    is one gate ``g`` on both sides (the condition :func:`_agree` trusts to
    cancel a pair exactly), so it maps the product ``E`` to ``g * E * g^-1``.
    """
    start = len(schedule)
    while start:
        gate, partner = schedule[start - 1]
        if gate is None or partner is None or gate.operation.params != partner.operation.params:
            break
        start -= 1
    return start


def _far_from_scalar(package: DDPackage, product, num_qubits: int, tolerance: float) -> bool:
    """Whether ``1 - |tr E / 2^n|^2 > 2^n * (2n * tolerance)^2`` (``n >= 1``).

    Compared in logarithms, so no side forms ``2^n``: where the bound is at
    least 1 (from 35 qubits at the default tolerance) no product exceeds
    it, and the trace is not read.
    """
    log_bound = num_qubits * math.log(2) + 2 * math.log(2 * num_qubits * tolerance)
    if log_bound >= 0:
        return False
    tau = math.ldexp(abs(package.trace(product)), -num_qubits)
    return 1.0 - tau * tau > math.exp(log_bound)


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
