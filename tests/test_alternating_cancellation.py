"""Tests for the cancellation of matched gate pairs in the alternating DD check.

While the product ``E`` is a multiple of the identity (its root node carries
the ``identity`` flag), a matched pair ``(g, g)`` leaves it unchanged:
``g * (w * I) * g^-1 == w * I``.  The DD backend then skips the pair — no
gate DD, no multiplication, a step of cost 0 — and counts it in
``details["cancelled_pairs"]``.  Gates without an identical partner on the
other side are matched on their canonical form and cancel only when their
exact matrices agree.  Once every remaining item is an identical pair, a
product far from every ``c * I`` is refuted on the spot and the pairs left
unapplied are counted in ``details["settled_pairs"]``.  The dense backend
applies every gate.
"""

import math

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
from repro.algorithms import ghz_ladder
from repro.circuit import QuantumCircuit
from repro.compilation import decompose_to_cx_and_single_qubit, rewrite_single_qubit_to_u
from repro.core import (
    Configuration,
    EquivalenceCheckingManager,
    check_equivalence,
    to_unitary_circuit,
)
from repro.core.checkers.alternating import AlternatingChecker
from repro.compilation import canonical
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
        # h and cx before the detours, then cx, h and t after them.  The
        # detours have no partner on the other side, so each side's merges
        # into one identity run, and these runs and the two sides' phase
        # residues cancel as two more pairs.
        assert result.details["cancelled_pairs"] == 5 + 2
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

    def test_every_cancelled_pair_is_a_step_a_budget_can_stop_after(self):
        # Budgets are checked between steps only, so a long run of cancelled
        # pairs must still yield once per pair; a closed generator stops.
        first = qft_static_benchmark(64)
        steps = AlternatingChecker().steps(first, first.copy(), Configuration())
        assert [next(steps) for _ in range(4)] == [0, 0, 0, 0]
        steps.close()
        with pytest.raises(StopIteration):
            next(steps)


def _translated(circuit: QuantumCircuit) -> QuantumCircuit:
    """``circuit`` in the ``u``/``cx`` basis."""
    return rewrite_single_qubit_to_u(decompose_to_cx_and_single_qubit(circuit))


def _both_backends(first, second, **overrides):
    return (
        check_equivalence(first, second, **overrides),
        check_equivalence(first, second, backend="dense", **overrides),
    )


@pytest.fixture()
def translations(monkeypatch):
    """Count the canonical passes the alternating check runs."""
    calls = []
    original = canonical.canonical_forms

    def counting(gates, translate=None):
        calls.append(sum(translate))
        return original(gates, translate)

    monkeypatch.setattr(canonical, "canonical_forms", counting)
    return calls


class TestTranslatedPairs:
    @pytest.mark.parametrize("family", ["bv-20", "qft-10", "qpe-8"])
    def test_translated_table1_pair_cancels_every_canonical_pair(self, dd_work, family):
        static, reconstructed = _table1_pair(family)
        result = check_equivalence(_translated(static), reconstructed)
        assert result.criterion.value == "equivalent"
        assert result.details["cancelled_pairs"] > 0
        assert dd_work == {"builds": 0, "multiplies": 0}

    @pytest.mark.parametrize("family", ["bv-20", "qft-10", "qpe-8"])
    def test_table1_pairs_pay_no_canonicalization(self, translations, family):
        assert check_equivalence(*_table1_pair(family)).criterion.value == "equivalent"
        assert translations == []

    def test_a_gate_only_one_side_has_is_not_translated(self, translations):
        # A mutant's extra gate has nothing to match on the other side.
        static, reconstructed = _table1_pair("qft-10")
        mutant = static.copy_empty()
        mutant.rz(1.0, 0)
        mutant = mutant.compose(static)
        result = check_equivalence(mutant, reconstructed)
        assert result.criterion.value == "not_equivalent"
        assert translations == []

    def test_only_unpartnered_gates_are_translated(self, translations):
        first = ghz_ladder(3)
        first.rz(0.4, 1)
        second = ghz_ladder(3)
        second.p(0.4, 1)
        result = check_equivalence(first, second)
        assert result.criterion.value == "equivalent_up_to_global_phase"
        assert translations == [1, 1]
        # Every gate pairs; the phase residue of rz is applied.
        assert result.details["cancelled_pairs"] == len(first)

    def test_global_phase_difference_is_classified(self):
        # rz and p differ by a phase: their U forms cancel, the phases do not.
        first = QuantumCircuit(2)
        first.h(0)
        first.rz(0.7, 0)
        first.cx(0, 1)
        second = QuantumCircuit(2)
        second.h(0)
        second.p(0.7, 0)
        second.cx(0, 1)
        for result in _both_backends(first, second):
            assert result.criterion.value == "equivalent_up_to_global_phase"

    def test_commuted_cx_pair_is_proved(self):
        first = QuantumCircuit(4)
        first.cx(0, 1)
        first.cx(2, 3)
        second = QuantumCircuit(4)
        second.cx(2, 3)
        second.cx(0, 1)
        dd, dense = _both_backends(first, second)
        assert dd.criterion.value == dense.criterion.value == "equivalent"
        assert dd.details["cancelled_pairs"] == 2

    def test_translated_gates_walk_and_cancel_as_their_canonical_gates(self):
        # Neither cp has a partner, so both sides walk in canonical form: the
        # count of cancelled pairs is bounded by the walked gates and exceeds
        # the single raw gate of the second circuit.
        first = QuantumCircuit(3)
        first.cp(0.5, 0, 1)
        for _ in range(3):
            first.h(0)
        second = QuantumCircuit(3)
        second.cp(0.5, 0, 2)
        dd, dense = _both_backends(first, second)
        assert dd.criterion.value == dense.criterion.value == "not_equivalent"
        assert (dd.details["num_gates_first"], dd.details["num_gates_second"]) == (4, 1)
        walked = (dd.details["num_walked_first"], dd.details["num_walked_second"])
        assert dd.details["num_gates_second"] < dd.details["cancelled_pairs"] <= min(walked)

    def test_pair_sharing_every_gate_walks_its_raw_gates(self):
        first = ghz_ladder(4)
        second = ghz_ladder(4)
        second.x(3)
        for result in _both_backends(first, second):
            assert result.criterion.value == "not_equivalent"
            walked = (result.details["num_walked_first"], result.details["num_walked_second"])
            assert walked == (len(first), len(second))

    def test_inequivalent_translated_pair_is_refuted(self):
        first = ghz_ladder(3)
        second = _translated(ghz_ladder(3))
        second.x(0)
        for result in _both_backends(first, second):
            assert result.criterion.value == "not_equivalent"

    def test_dense_backend_walks_the_raw_gates(self):
        first = qft_static_benchmark(4)
        result = check_equivalence(first, _translated(first), backend="dense")
        assert result.criterion.value == "equivalent"
        assert result.details["cancelled_pairs"] == 0


def _rz_ladder(angles) -> QuantumCircuit:
    """``rz`` rotations on qubit 0, separated by CNOTs so that none merge."""
    circuit = QuantumCircuit(2)
    for angle in angles:
        circuit.rz(angle, 0)
        circuit.cx(0, 1)
    return circuit


class TestQuantizationNeverDecides:
    """Canonical keys are quantized to 1e-9; cancellation needs exact agreement."""

    def test_drift_below_the_grid_is_applied_and_refuted(self):
        # Each angle differs by 3e-10, inside one grid cell, so every pair
        # matches; together they leave rz(-3e-8) on qubit 0, whose diagonal
        # is 1.5e-8 off the identity: past a 1e-8 tolerance, within 1e-7.
        angles = [0.25 + index / 64 for index in range(100)]
        first = _rz_ladder(angles)
        second = _rz_ladder([angle + 3e-10 for angle in angles])
        tight = check_equivalence(first, second, tolerance=1e-8)
        assert tight.criterion.value == "not_equivalent"
        # The first rz pair disagrees, so nothing after it cancels.
        assert tight.details["cancelled_pairs"] == 0
        loose = check_equivalence(first, second, tolerance=1e-7)
        assert loose.criterion.value == "equivalent"

    def test_exact_angles_cancel_every_pair(self):
        angles = [0.25 + index / 64 for index in range(100)]
        first = _rz_ladder(angles)
        second = _rz_ladder(angles)
        # Equal gates: no translation, every pair cancels.
        assert check_equivalence(first, second).details["cancelled_pairs"] == 200

    def test_float_noise_between_translations_still_cancels(self):
        # rz(a) rz(b) vs rz(a + b): merged runs differ by float noise only.
        first = QuantumCircuit(1)
        second = QuantumCircuit(1)
        for index in range(20):
            first.rz(math.pi / (3 + index), 0)
            first.rz(math.e / (5 + index), 0)
            first.h(0)
            second.rz(math.pi / (3 + index) + math.e / (5 + index), 0)
            second.h(0)
        result = check_equivalence(first, second)
        assert result.criterion.value == "equivalent"
        assert result.details["cancelled_pairs"] == 2 * 20 + 1


def _rz_first(circuit: QuantumCircuit, angle: float = 1.0) -> QuantumCircuit:
    """``circuit`` with ``rz(angle)`` on qubit 0 before its first gate."""
    mutant = circuit.copy_empty()
    mutant.rz(angle, 0)
    return mutant.compose(circuit)


class TestSettledSuffix:
    """Identical pairs only conjugate the product: ``E -> g * E * g^-1``."""

    @pytest.mark.parametrize("family", ["bv-20", "qft-10", "qpe-8"])
    def test_mutant_is_refuted_where_only_identical_pairs_remain(self, dd_work, family):
        static, reconstructed = _table1_pair(family)
        result = check_equivalence(_rz_first(static), reconstructed)
        assert result.criterion.value == "not_equivalent"
        # The pairs before the rz cancel; the rz is the one gate built.
        assert dd_work == {"builds": 1, "multiplies": 1}
        details = result.details
        assert details["settled_pairs"] > 0
        assert details["cancelled_pairs"] + details["settled_pairs"] == details["num_walked_second"]

    @pytest.mark.parametrize("num_qubits, settles", [(34, True), (35, False)])
    def test_wide_registers_walk_in_full_without_reading_the_trace(
        self, monkeypatch, num_qubits, settles
    ):
        # 2^n * (2n * tolerance)^2 reaches 1 at 35 qubits under the default
        # tolerance: no product exceeds it, so the trace is not even read.
        # rz(pi) makes |tr E| = 0, the farthest a product can be.
        traced = []
        trace = DDPackage.trace

        def recording(package, matrix):
            traced.append(matrix)
            return trace(package, matrix)

        monkeypatch.setattr(DDPackage, "trace", recording)
        first = _rz_first(ghz_ladder(num_qubits), math.pi)
        result = check_equivalence(first, ghz_ladder(num_qubits))
        assert result.criterion.value == "not_equivalent"
        assert (result.details["settled_pairs"] > 0) is settles
        assert bool(traced) is settles

    def test_near_tolerance_mutant_walks_in_full(self):
        # 1 - |tr E / 2^n|^2 = sin(5e-6)^2 is below 2^n * (2n * tolerance)^2,
        # about 4e-9 on 10 qubits; the full walk still refutes it.
        static, reconstructed = _table1_pair("qft-10")
        result = check_equivalence(_rz_first(static, 1e-5), reconstructed)
        assert result.criterion.value == "not_equivalent"
        assert result.details["settled_pairs"] == 0

    def test_unpaired_last_item_leaves_nothing_to_settle(self):
        # Each side ends with its own phase residue, which has no partner.
        result = check_equivalence(*_detour_pair(0.25))
        assert result.criterion.value == "not_equivalent"
        assert result.details["settled_pairs"] == 0

    def test_refuting_mutant_steps_end_after_the_rz(self):
        static, reconstructed = _table1_pair("qft-10")
        steps = AlternatingChecker().steps(_rz_first(static), reconstructed, Configuration())
        costs = []
        while True:
            try:
                costs.append(next(steps))
            except StopIteration as stop:
                outcome = stop.value
                break
        # One applied gate, then the verdict: no pair of the suffix is a step.
        assert len(costs) == 1 + outcome.details["cancelled_pairs"]
        assert outcome.criterion.value == "not_equivalent"
