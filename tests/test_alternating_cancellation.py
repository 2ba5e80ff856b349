"""Tests for the cancellation of matched gate pairs in the alternating DD check.

While the product ``E`` is a multiple of the identity (its root node carries
the ``identity`` flag), a matched pair ``(g, g)`` leaves it unchanged:
``g * (w * I) * g^-1 == w * I``.  The DD backend then skips the pair — no
gate DD, no multiplication, a step of cost 0 — and counts it in
``details["cancelled_pairs"]``.  The dense backend applies every gate.
"""

import pytest

import repro.core.checkers.alternating as alternating_module
from repro.algorithms import (
    bernstein_vazirani_dynamic,
    bernstein_vazirani_static,
    iterative_qpe,
    qft_dynamic,
    qft_static_benchmark,
    qpe_static,
    running_example_lambda,
)
from repro.circuit import QuantumCircuit
from repro.core import (
    Configuration,
    EquivalenceCheckingManager,
    check_equivalence,
    to_unitary_circuit,
)
from repro.core.checkers.alternating import AlternatingChecker
from repro.core.checkers.base import CheckerInterrupted
from repro.dd.package import DDPackage


def _table1_pair(family: str) -> tuple[QuantumCircuit, QuantumCircuit]:
    """A static circuit and the unitary reconstruction of its dynamic twin."""
    if family == "bv-20":
        hidden = "10110111010011101101"
        static, dynamic = bernstein_vazirani_static(hidden), bernstein_vazirani_dynamic(hidden)
    elif family == "qft-10":
        static, dynamic = qft_static_benchmark(10), qft_dynamic(10)
    else:
        static = qpe_static(8, running_example_lambda)
        dynamic = iterative_qpe(8, running_example_lambda)
    return static, to_unitary_circuit(dynamic).circuit


@pytest.fixture()
def dd_work(monkeypatch):
    """Count the gate DDs the alternating check builds and the products it forms."""
    work = {"builds": 0, "multiplies": 0}
    build = alternating_module.instruction_to_dd
    multiply = DDPackage.multiply_matrices

    def counting_build(package, instruction):
        work["builds"] += 1
        return build(package, instruction)

    def counting_multiply(package, first, second):
        work["multiplies"] += 1
        return multiply(package, first, second)

    monkeypatch.setattr(alternating_module, "instruction_to_dd", counting_build)
    monkeypatch.setattr(DDPackage, "multiply_matrices", counting_multiply)
    return work


def _detour_pair(second_angle: float) -> tuple[QuantumCircuit, QuantumCircuit]:
    """Two circuits that share gates around a detour that leaves the identity.

    The first detours with ``rx(0.3) rx(-0.3)`` on qubit 1, the second with
    ``rz(0.2) rz(-second_angle)``; the gates before and after the detours
    are the same.  With ``second_angle == 0.2`` both detours are the
    identity, so the product returns to it and the pairs after it cancel.
    """
    circuits = []
    for detour in (((0.3, "rx"), (-0.3, "rx")), ((0.2, "rz"), (-second_angle, "rz"))):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        for angle, name in detour:
            getattr(circuit, name)(angle, 1)
        circuit.cx(0, 1)
        circuit.h(1)
        circuit.t(0)
        circuits.append(circuit)
    return circuits[0], circuits[1]


class TestCancelledPairs:
    @pytest.mark.parametrize("family", ["bv-20", "qft-10", "qpe-8"])
    def test_table1_pairs_build_and_multiply_nothing(self, dd_work, family):
        static, reconstructed = _table1_pair(family)
        result = check_equivalence(static, reconstructed)
        assert result.criterion.value == "equivalent"
        num_gates = result.details["num_gates_first"]
        assert num_gates == result.details["num_gates_second"] > 0
        assert result.details["cancelled_pairs"] == num_gates
        assert dd_work == {"builds": 0, "multiplies": 0}
        assert result.details["dd_statistics"]["gate_cache_misses"] == 0

    def test_product_that_returns_to_the_identity_cancels_again(self):
        first, second = _detour_pair(0.2)
        result = check_equivalence(first, second)
        assert result.criterion.value == "equivalent"
        # h and cx before the detours, then cx, h and t after them.
        assert result.details["cancelled_pairs"] == 5
        assert check_equivalence(first, second, backend="dense").criterion.value == "equivalent"

    def test_product_that_stays_off_the_identity_applies_every_gate(self, dd_work):
        first, second = _detour_pair(0.25)
        result = check_equivalence(first, second)
        assert result.criterion.value == "not_equivalent"
        assert result.details["cancelled_pairs"] == 2
        # Every gate but the four of the two cancelled pairs is built.
        assert dd_work["builds"] == 14 - 4
        assert check_equivalence(first, second, backend="dense").criterion.value == "not_equivalent"

    def test_dense_backend_applies_every_gate(self):
        static, reconstructed = _table1_pair("qpe-8")
        result = check_equivalence(static, reconstructed, backend="dense")
        assert result.criterion.value == "equivalent"
        assert result.details["cancelled_pairs"] == 0


class TestCancelledPairSteps:
    def test_each_cancelled_pair_is_a_step_of_cost_zero(self):
        first = qft_static_benchmark(6)
        steps = AlternatingChecker().steps(first, first.copy(), Configuration())
        costs = []
        while True:
            try:
                costs.append(next(steps))
            except StopIteration as stop:
                outcome = stop.value
                break
        # One step per pair; the last one returns the outcome instead.
        num_gates = outcome.details["num_gates_first"]
        assert costs == [0] * (num_gates - 1)
        assert outcome.details["cancelled_pairs"] == num_gates
        assert outcome.criterion.value == "equivalent"

    @pytest.mark.parametrize("family", ["bv-20", "qft-10", "qpe-8"])
    def test_applied_gates_cost_their_dd_work(self, monkeypatch, family):
        # A mutant: pairs cancel up to the rx inserted before a two-qubit
        # gate in the second half, then gates are applied.  Each applied
        # gate costs 1 + the nodes created since the previous applied gate
        # (the first also pays for the identity); a cancelled pair costs 0
        # and creates nothing.
        static, reconstructed = _table1_pair(family)
        data = list(static)
        position = next(
            index
            for index in range(len(data) // 2, len(data))
            if len(data[index].qubits) == 2
        )
        mutant = static.copy_empty()
        for index, instruction in enumerate(data):
            if index == position:
                mutant.rx(0.7, instruction.qubits[-1])
            mutant.append_instruction(instruction)
        packages = []

        def recording_package(*args, **kwargs):
            packages.append(DDPackage(*args, **kwargs))
            return packages[-1]

        monkeypatch.setattr(alternating_module, "DDPackage", recording_package)
        steps = AlternatingChecker().steps(mutant, reconstructed, Configuration())
        costs, charged, previous = [], 0, None
        while True:
            try:
                cost = next(steps)
            except StopIteration as stop:
                outcome = stop.value
                break
            created = packages[0].nodes_created
            if cost == 0:
                assert previous is None or created == previous
            else:
                assert cost == 1 + created - charged
                charged = created
            costs.append(cost)
            previous = created
        assert costs.count(0) == outcome.details["cancelled_pairs"] > 0
        assert any(cost > 1 for cost in costs)
        assert outcome.criterion.value == "not_equivalent"

    def test_budget_stops_a_long_identical_pair_between_steps(self):
        first = qft_static_benchmark(64)
        manager = EquivalenceCheckingManager(
            portfolio=("alternating",), checker_timeout=1e-6, verdict_cache=False
        )
        result = manager.run(first, first.copy())
        attempt = result.attempts[0]
        assert attempt.status == "timeout"
        assert "budget" in attempt.error
        assert result.decided_by is None

    def test_interrupt_stops_a_long_identical_pair_between_steps(self):
        first = qft_static_benchmark(64)
        polls = []

        def interrupt():
            polls.append(None)
            return len(polls) > 3

        with pytest.raises(CheckerInterrupted):
            AlternatingChecker().check(first, first.copy(), Configuration(), interrupt=interrupt)
        assert len(polls) == 4
