"""Tests for Scheme 2: measurement-outcome distribution extraction."""

import math
import time

import pytest

from repro.algorithms import (
    bernstein_vazirani_dynamic,
    iterative_qpe,
    qft_dynamic,
    running_example_lambda,
    teleportation_dynamic,
)
from repro.circuit import QuantumCircuit
from repro.core.distributions import total_variation_distance
from repro.core.extraction import extract_distribution, extraction_steps
from repro.exceptions import ExtractionError
from repro.simulators.density_matrix import DensityMatrixSimulator


class TestConditionedReset:
    def _circuit(self, ctrl_value: int) -> QuantumCircuit:
        """|1> is measured into c0, then q0 is reset iff c0 == ctrl_value."""
        circuit = QuantumCircuit(1, 2)
        circuit.x(0)
        circuit.measure(0, 0)
        circuit.reset(0, condition=(0, ctrl_value))
        circuit.measure(0, 1)
        return circuit

    @pytest.mark.parametrize("backend", ["statevector", "dd"])
    def test_satisfied_condition_applies_reset(self, backend):
        distribution = extract_distribution(self._circuit(1), backend=backend).distribution
        # c0 = 1 always; condition fires, so the second measurement reads 0.
        assert distribution == pytest.approx({"01": 1.0})

    @pytest.mark.parametrize("backend", ["statevector", "dd"])
    def test_unsatisfied_condition_skips_reset(self, backend):
        distribution = extract_distribution(self._circuit(0), backend=backend).distribution
        # Condition never fires: an unconditional-reset miscompile would
        # read 0 here instead of the surviving 1.
        assert distribution == pytest.approx({"11": 1.0})

    def test_density_matrix_simulator_agrees(self):
        fired = DensityMatrixSimulator().run(self._circuit(1))
        skipped = DensityMatrixSimulator().run(self._circuit(0))
        assert fired == pytest.approx({"01": 1.0})
        assert skipped == pytest.approx({"11": 1.0})

    def test_stochastic_simulator_agrees(self):
        from repro.simulators.stochastic import StochasticSimulator

        counts = StochasticSimulator(seed=5).run(self._circuit(0), shots=16)
        assert counts == {"11": 16}


class TestBasics:
    def test_static_circuit_with_final_measurements(self):
        circuit = QuantumCircuit(2, 2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.measure_all()
        result = extract_distribution(circuit)
        assert result.distribution == pytest.approx({"00": 0.5, "11": 0.5})
        assert result.num_branch_points == 2

    def test_no_classical_bits_raises(self):
        with pytest.raises(ExtractionError):
            extract_distribution(QuantumCircuit(1))

    def test_unknown_backend_raises(self):
        circuit = QuantumCircuit(1, 1)
        circuit.measure(0, 0)
        with pytest.raises(ExtractionError):
            extract_distribution(circuit, backend="tensor-network")

    def test_total_probability_is_one(self):
        result = extract_distribution(iterative_qpe(3))
        assert result.total_probability() == pytest.approx(1.0)

    def test_initial_state_options(self):
        circuit = QuantumCircuit(1, 1)
        circuit.measure(0, 0)
        assert extract_distribution(circuit, "1").distribution == pytest.approx({"1": 1.0})
        assert extract_distribution(circuit, 1).distribution == pytest.approx({"1": 1.0})

    @pytest.mark.parametrize("backend", ["statevector", "dd"])
    def test_steps_yield_per_instruction_and_time_only_themselves(self, backend):
        circuit = bernstein_vazirani_dynamic("110")
        steps = extraction_steps(circuit, backend=backend)
        taken = 0
        while True:
            try:
                cost = next(steps)
            except StopIteration as stop:
                result = stop.value
                break
            assert cost >= 1
            taken += 1
            time.sleep(0.002)  # the caller's time between steps is not extraction time
        assert taken == sum(1 for instruction in circuit if not instruction.is_barrier)
        assert result.distribution == extract_distribution(circuit, backend=backend).distribution
        assert result.time_taken < 0.002 * taken

    def test_probability_accessor(self):
        result = extract_distribution(bernstein_vazirani_dynamic("110"))
        assert result.probability("110") == pytest.approx(1.0)
        assert result.probability("000") == 0.0


class TestFigure4:
    """The running example of the paper: IQPE with U = p(3*pi/8), m = 3."""

    @pytest.fixture()
    def result(self):
        return extract_distribution(iterative_qpe(3, running_example_lambda))

    def test_most_probable_outcomes(self, result):
        # theta = 3/16 is not exactly representable with 3 bits; |001> and
        # |010> are the two most probable outcomes (Example 1 of the paper).
        ordered = sorted(result.distribution, key=result.distribution.get, reverse=True)
        assert set(ordered[:2]) == {"001", "010"}

    def test_probability_of_001_matches_paper(self, result):
        # The paper quotes 1/2 * 0.85 * 0.96 ~ 0.408 from rounded checkpoint
        # probabilities; the exact value is ~0.411.
        assert result.probability("001") == pytest.approx(0.411, abs=0.005)

    def test_first_checkpoint_probability_is_half(self):
        # After the first round the measurement is unbiased (Fig. 4: 1/2 - 1/2).
        circuit = iterative_qpe(1, running_example_lambda)
        result = extract_distribution(circuit)
        # One-bit IQPE applies the largest power of U; probability of |1> here
        # is not 1/2, so instead check the 3-bit circuit's first branch point by
        # extracting the marginal of c0.
        full = extract_distribution(iterative_qpe(3, running_example_lambda))
        probability_c0_one = sum(
            value for key, value in full.distribution.items() if key[-1] == "1"
        )
        assert probability_c0_one == pytest.approx(0.5, abs=1e-9)
        assert result.total_probability() == pytest.approx(1.0)

    def test_num_paths_bounded_by_two_to_the_m(self, result):
        assert result.num_paths <= 2**3
        assert result.num_branch_points == 3 + 2  # 3 measurements + 2 resets

    def test_success_probability_above_four_over_pi_squared(self, result):
        # QPE succeeds (within +-1 ulp of the best 3-bit estimate) with
        # probability > 4/pi^2 ~ 0.405 (Section 2.2 of the paper).
        best = max(result.distribution.values())
        assert best > 4 / math.pi**2


class TestAgainstGroundTruth:
    @pytest.mark.parametrize(
        "circuit_factory",
        [
            lambda: iterative_qpe(3, running_example_lambda),
            lambda: bernstein_vazirani_dynamic("101"),
            lambda: qft_dynamic(3),
            teleportation_dynamic,
        ],
        ids=["iqpe", "bv", "qft", "teleport"],
    )
    def test_matches_density_matrix_simulation(self, circuit_factory):
        circuit = circuit_factory()
        extracted = extract_distribution(circuit).distribution
        reference = DensityMatrixSimulator().run(circuit)
        assert total_variation_distance(extracted, reference) < 1e-9

    def test_dd_backend_matches_statevector_backend(self):
        for circuit in (iterative_qpe(3, running_example_lambda), qft_dynamic(3)):
            dense = extract_distribution(circuit, backend="statevector").distribution
            dd = extract_distribution(circuit, backend="dd").distribution
            assert total_variation_distance(dense, dd) < 1e-9


class TestPruningAndSharing:
    def test_deterministic_circuit_has_single_path(self):
        """BV produces a deterministic outcome, so pruning collapses the tree."""
        result = extract_distribution(bernstein_vazirani_dynamic("11011"))
        assert result.num_paths == 1
        assert result.num_pruned > 0

    def test_dense_circuit_explores_all_paths(self):
        """The dynamic QFT on |0...0> yields a uniform (dense) distribution."""
        result = extract_distribution(qft_dynamic(4))
        assert result.num_paths == 2**4
        assert all(value == pytest.approx(1 / 16) for value in result.distribution.values())

    def test_max_paths_limit(self):
        with pytest.raises(ExtractionError):
            extract_distribution(qft_dynamic(4), max_paths=7)

    def test_aggressive_pruning_threshold_raises(self):
        circuit = QuantumCircuit(1, 1)
        circuit.h(0)
        circuit.measure(0, 0)
        with pytest.raises(ExtractionError):
            extract_distribution(circuit, prune_threshold=0.9)

    def test_standalone_reset_branches_and_merges(self):
        """A reset without a preceding measurement still yields a valid result."""
        circuit = QuantumCircuit(2, 1)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.reset(0)
        circuit.measure(1, 0)
        result = extract_distribution(circuit)
        assert result.distribution == pytest.approx({"0": 0.5, "1": 0.5})

    def test_classically_controlled_operations_respected(self):
        circuit = QuantumCircuit(2, 2)
        circuit.h(0)
        circuit.measure(0, 0)
        circuit.x(1, condition=(0, 1))
        circuit.measure(1, 1)
        result = extract_distribution(circuit)
        assert result.distribution == pytest.approx({"00": 0.5, "11": 0.5})
