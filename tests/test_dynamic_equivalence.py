"""Integration tests: verifying dynamic circuits against their static counterparts.

These tests exercise the full flow of the paper on the three benchmark
families (Bernstein-Vazirani, QFT, QPE): Scheme 1 (unitary reconstruction +
functional check) and Scheme 2 (distribution extraction + behavioural check),
plus negative cases where the dynamic realization is deliberately broken.
"""

import math

import pytest

from repro.algorithms import (
    bernstein_vazirani_dynamic,
    bernstein_vazirani_static,
    iterative_qpe,
    qft_dynamic,
    qft_static_benchmark,
    qpe_static,
    running_example_lambda,
    teleportation_dynamic,
    teleportation_static,
)
from repro.circuit import QuantumCircuit
from repro.circuit.random_circuits import random_dynamic_circuit
from repro.core import (
    EquivalenceCriterion,
    check_behavioural_equivalence,
    check_equivalence,
    extract_distribution,
    to_unitary_circuit,
)
from repro.core.distributions import total_variation_distance
from repro.exceptions import EquivalenceCheckingError


class TestScheme1FunctionalVerification:
    @pytest.mark.parametrize("hidden", ["1", "101", "11011"])
    def test_bernstein_vazirani(self, hidden):
        static = bernstein_vazirani_static(hidden)
        dynamic = bernstein_vazirani_dynamic(hidden)
        result = check_equivalence(static, dynamic)
        assert result.equivalent
        if dynamic.is_dynamic:
            assert result.time_transformation > 0.0

    @pytest.mark.parametrize("num_qubits", [2, 3, 4])
    def test_qft(self, num_qubits):
        static = qft_static_benchmark(num_qubits)
        dynamic = qft_dynamic(num_qubits)
        assert check_equivalence(static, dynamic).equivalent

    @pytest.mark.parametrize("num_bits", [2, 3, 4])
    def test_qpe(self, num_bits):
        static = qpe_static(num_bits, running_example_lambda)
        dynamic = iterative_qpe(num_bits, running_example_lambda)
        assert check_equivalence(static, dynamic).equivalent

    def test_qpe_with_random_phase(self):
        lam = 2.0 * math.pi * 0.2371
        assert check_equivalence(qpe_static(3, lam), iterative_qpe(3, lam)).equivalent

    def test_teleportation(self):
        assert check_equivalence(teleportation_static(), teleportation_dynamic()).equivalent

    @pytest.mark.parametrize("backend", ["dd", "dense"])
    @pytest.mark.parametrize(
        "family",
        [
            lambda: (qpe_static(3, running_example_lambda), iterative_qpe(3, running_example_lambda)),
            lambda: (bernstein_vazirani_static("1011"), bernstein_vazirani_dynamic("1011")),
            lambda: (qft_static_benchmark(4), qft_dynamic(4)),
            lambda: (teleportation_static(), teleportation_dynamic()),
        ],
        ids=["qpe", "bv", "qft", "teleportation"],
    )
    def test_backends_agree_on_dynamic_input(self, family, backend):
        static, dynamic = family()
        result = check_equivalence(static, dynamic, backend=backend)
        assert result.equivalent
        assert result.time_transformation > 0.0

    def test_wrong_hidden_string_detected(self):
        static = bernstein_vazirani_static("101")
        dynamic = bernstein_vazirani_dynamic("111")
        result = check_equivalence(static, dynamic)
        assert result.criterion is EquivalenceCriterion.NOT_EQUIVALENT

    def test_wrong_phase_detected(self):
        static = qpe_static(3, running_example_lambda)
        dynamic = iterative_qpe(3, running_example_lambda + 0.01)
        assert not check_equivalence(static, dynamic).equivalent

    def test_missing_correction_rotation_detected(self):
        """Dropping one classically-controlled correction breaks equivalence."""
        static = qpe_static(3, running_example_lambda)
        dynamic = iterative_qpe(3, running_example_lambda)
        stripped = dynamic.copy_empty()
        removed = False
        for instruction in dynamic:
            if not removed and instruction.is_classically_controlled:
                removed = True
                continue
            stripped.append_instruction(instruction)
        assert not check_equivalence(static, stripped).equivalent

    def test_dynamic_vs_dynamic(self):
        first = iterative_qpe(3, running_example_lambda)
        second = iterative_qpe(3, running_example_lambda)
        assert check_equivalence(first, second).equivalent

    def test_qubit_count_mismatch_after_transformation(self):
        # 3-bit static QPE vs 2-bit dynamic QPE: different primary inputs.
        with pytest.raises(EquivalenceCheckingError):
            check_equivalence(qpe_static(3), iterative_qpe(2))


def _read_twice(mutant: bool = False) -> QuantumCircuit:
    """``h q0`` read into two bits at the end (an ``x`` first for the mutant)."""
    circuit = QuantumCircuit(1, 2)
    circuit.h(0)
    if mutant:
        circuit.x(0)
    circuit.measure(0, 0)
    circuit.measure(0, 1)
    return circuit


class TestQubitReadIntoSeveralBits:
    """Every measurement after a qubit's last other instruction is read-out."""

    def test_equivalent_pair(self):
        result = check_equivalence(_read_twice(), _read_twice())
        assert result.criterion is EquivalenceCriterion.EQUIVALENT

    def test_mutant_is_refuted(self):
        result = check_equivalence(_read_twice(), _read_twice(mutant=True))
        assert result.criterion is EquivalenceCriterion.NOT_EQUIVALENT

    def test_default_manager_proves_it_through_alternating(self):
        from repro.core import EquivalenceCheckingManager

        result = EquivalenceCheckingManager(seed=0).run(_read_twice(), _read_twice())
        assert result.criterion is EquivalenceCriterion.EQUIVALENT
        assert result.decided_by == "alternating"

    def test_remove_final_measurements_strips_every_read(self):
        circuit = _read_twice()
        assert [inst.operation.name for inst in circuit.remove_final_measurements()] == ["h"]
        # A measurement followed by a gate on its qubit stays.
        circuit.x(0)
        assert [
            inst.operation.name for inst in circuit.remove_final_measurements()
        ] == ["h", "measure", "measure", "x"]

    def test_rebuild_that_emits_a_double_read(self):
        # The condition reads c0, so the rebuild defers both measurements of
        # q0 to its end: q0 is read into c0 and c1 there.
        dynamic = QuantumCircuit(2, 2)
        dynamic.h(0)
        dynamic.measure(0, 0)
        dynamic.measure(0, 1)
        dynamic.x(1, condition=(0, 1))
        rebuilt = to_unitary_circuit(dynamic).circuit
        tail = [(inst.operation.name, inst.qubits) for inst in rebuilt][-2:]
        assert tail == [("measure", (0,)), ("measure", (0,))]
        static = QuantumCircuit(2, 2)
        static.h(0)
        static.cx(0, 1)
        static.measure(0, 0)
        static.measure(0, 1)
        assert check_equivalence(static, dynamic).criterion is EquivalenceCriterion.EQUIVALENT
        wrong = static.copy()
        wrong.x(1)
        assert check_equivalence(wrong, dynamic).criterion is EquivalenceCriterion.NOT_EQUIVALENT


class TestScheme2BehaviouralVerification:
    @pytest.mark.parametrize("hidden", ["1", "101", "1101"])
    def test_bernstein_vazirani(self, hidden):
        result = check_behavioural_equivalence(
            bernstein_vazirani_static(hidden), bernstein_vazirani_dynamic(hidden)
        )
        assert result.equivalent
        assert result.details["total_variation_distance"] < 1e-9

    @pytest.mark.parametrize("num_qubits", [2, 3])
    def test_qft(self, num_qubits):
        result = check_behavioural_equivalence(
            qft_static_benchmark(num_qubits), qft_dynamic(num_qubits)
        )
        assert result.equivalent

    @pytest.mark.parametrize("num_bits", [2, 3, 4])
    def test_qpe(self, num_bits):
        result = check_behavioural_equivalence(
            qpe_static(num_bits, running_example_lambda),
            iterative_qpe(num_bits, running_example_lambda),
        )
        assert result.equivalent
        assert result.details["classical_fidelity"] == pytest.approx(1.0)

    def test_teleportation(self):
        assert check_behavioural_equivalence(
            teleportation_static(), teleportation_dynamic()
        ).equivalent

    def test_dd_backend(self):
        result = check_behavioural_equivalence(
            qpe_static(3, running_example_lambda),
            iterative_qpe(3, running_example_lambda),
            backend="dd",
        )
        assert result.equivalent
        assert result.backend == "dd"

    def test_wrong_phase_detected(self):
        result = check_behavioural_equivalence(
            qpe_static(3, running_example_lambda),
            iterative_qpe(3, running_example_lambda + 0.5),
        )
        assert not result.equivalent

    def test_clbit_mismatch_raises(self):
        with pytest.raises(EquivalenceCheckingError):
            check_behavioural_equivalence(qpe_static(3), iterative_qpe(2))


class TestSchemesAgree:
    """Scheme 1 and Scheme 2 must agree whenever both are applicable."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_dynamic_circuit_against_its_reconstruction(self, seed):
        dynamic = random_dynamic_circuit(3, 6, seed=seed, num_measurements=2)
        reconstructed = to_unitary_circuit(dynamic).circuit
        functional = check_equivalence(reconstructed, dynamic)
        behavioural = check_behavioural_equivalence(reconstructed, dynamic)
        assert functional.equivalent
        assert behavioural.equivalent

    @pytest.mark.parametrize("seed", range(3))
    def test_reconstruction_preserves_distribution(self, seed):
        dynamic = random_dynamic_circuit(3, 5, seed=seed, num_measurements=3)
        reconstructed = to_unitary_circuit(dynamic).circuit
        original = extract_distribution(dynamic).distribution
        deferred = extract_distribution(reconstructed).distribution
        assert total_variation_distance(original, deferred) < 1e-9

    def test_behavioural_equivalence_without_functional_equivalence(self):
        """The GHZ ladder/fan-out pair: same behaviour on |0...0>, different unitaries."""
        from repro.algorithms import ghz_fanout, ghz_ladder

        ladder = ghz_ladder(3, measure=True)
        fanout = ghz_fanout(3, measure=True)
        assert not check_equivalence(ladder, fanout).equivalent
        assert check_behavioural_equivalence(ladder, fanout).equivalent


class TestPaperTableShape:
    """Sanity checks of the qualitative claims behind Table 1 (small scale)."""

    def test_transformation_cost_is_negligible(self):
        # On the equivalent pair the check cancels every matched gate pair
        # and costs about what the transformation does; an rz before the
        # first gate keeps the product off the identity, so the check
        # multiplies gate DDs as the paper's checker does.
        static = qpe_static(8, running_example_lambda)
        mutant = static.copy_empty()
        mutant.rz(1.0, 0)
        mutant = mutant.compose(static)
        dynamic = iterative_qpe(8, running_example_lambda)
        result = check_equivalence(mutant, dynamic)
        assert result.criterion.value == "not_equivalent"
        # t_trans is orders of magnitude below t_ver for QPE (Table 1).
        assert result.time_transformation < result.time_check

    def test_extraction_explores_single_path_for_bv(self):
        result = extract_distribution(bernstein_vazirani_dynamic("1" * 10))
        assert result.num_paths == 1

    def test_extraction_explores_exponentially_many_paths_for_qft(self):
        result = extract_distribution(qft_dynamic(5))
        assert result.num_paths == 2**5

    def test_gate_counts_dynamic_larger_than_static(self):
        # |G| of the dynamic circuit exceeds the static one (as in Table 1).
        static = qpe_static(6, running_example_lambda)
        dynamic = iterative_qpe(6, running_example_lambda)
        assert dynamic.size > 0.8 * static.size
