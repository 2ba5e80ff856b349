"""Tests for the equivalence-checking engine on static circuits."""

import math

import pytest

from repro.algorithms import ghz_fanout, ghz_ladder
from repro.circuit import QuantumCircuit
from repro.circuit.random_circuits import random_static_circuit
from repro.core import (
    Configuration,
    EquivalenceChecker,
    EquivalenceCriterion,
    check_equivalence,
    verify,
)
from repro.core.transformation import permute_qubits
from repro.exceptions import EquivalenceCheckingError


def two_realizations_of_swap() -> tuple[QuantumCircuit, QuantumCircuit]:
    direct = QuantumCircuit(2)
    direct.swap(0, 1)
    decomposed = QuantumCircuit(2)
    decomposed.cx(0, 1)
    decomposed.cx(1, 0)
    decomposed.cx(0, 1)
    return direct, decomposed


class TestConfiguration:
    def test_defaults(self):
        config = Configuration()
        assert config.method == "alternating"
        assert config.backend == "dd"

    def test_has_no_strategy_option(self):
        # The alternating scheme has one (proportional) application schedule.
        with pytest.raises(TypeError):
            Configuration(strategy="proportional")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"method": "guessing"},
            {"backend": "gpu"},
            {"tolerance": -1.0},
            {"tolerance": math.nan},
            {"tolerance": math.inf},
            {"tolerance": 1.0},
            {"timeout": math.nan},
            {"timeout": math.inf},
            {"checker_timeout": math.nan},
            {"breaker_cooldown": math.nan},
            {"breaker_cooldown": math.inf},
            {"num_simulations": 0},
            {"stimuli_type": "stabilizer"},
        ],
    )
    def test_invalid_values_raise(self, kwargs):
        with pytest.raises(EquivalenceCheckingError):
            Configuration(**kwargs)

    def test_updated_returns_new_configuration(self):
        config = Configuration()
        updated = config.updated(backend="dense")
        assert updated.backend == "dense"
        assert config.backend == "dd"


class TestPositiveCases:
    def test_identical_circuits(self):
        circuit = ghz_ladder(3)
        result = check_equivalence(circuit, circuit)
        assert result.criterion is EquivalenceCriterion.EQUIVALENT
        assert result.equivalent

    def test_swap_realizations(self):
        direct, decomposed = two_realizations_of_swap()
        assert check_equivalence(direct, decomposed).equivalent

    def test_global_phase_difference_is_reported(self):
        first = QuantumCircuit(1)
        first.rz(math.pi / 2, 0)
        second = QuantumCircuit(1)
        second.p(math.pi / 2, 0)
        result = check_equivalence(first, second)
        assert result.criterion is EquivalenceCriterion.EQUIVALENT_UP_TO_GLOBAL_PHASE
        assert result.equivalent

    def test_final_measurements_are_ignored(self):
        first = ghz_ladder(3, measure=True)
        second = ghz_ladder(3)
        assert check_equivalence(first, second).equivalent

    def test_inverse_composition_is_identity(self):
        circuit = random_static_circuit(3, 5, seed=9)
        identity = QuantumCircuit(3)
        assert check_equivalence(circuit.compose(circuit.inverse()), identity).equivalent

    def test_verify_alias(self):
        circuit = ghz_fanout(2)
        assert verify(circuit, circuit).equivalent

    @pytest.mark.parametrize("method", ["alternating", "construction", "simulation"])
    def test_all_methods_agree(self, method):
        direct, decomposed = two_realizations_of_swap()
        result = check_equivalence(direct, decomposed, method=method, seed=1)
        assert result.equivalent
        assert result.method == method

    @pytest.mark.parametrize("backend", ["dd", "dense"])
    def test_both_backends_agree(self, backend):
        direct, decomposed = two_realizations_of_swap()
        assert check_equivalence(direct, decomposed, backend=backend).equivalent

    def test_qubit_permutation_option(self):
        circuit = QuantumCircuit(3)
        circuit.h(0)
        circuit.cx(0, 2)
        permuted = permute_qubits(circuit, {0: 2, 1: 1, 2: 0})
        assert not check_equivalence(circuit, permuted).equivalent
        assert check_equivalence(circuit, permuted, qubit_permutation={2: 0, 1: 1, 0: 2}).equivalent


class TestNegativeCases:
    def test_different_circuits(self):
        first = QuantumCircuit(1)
        first.x(0)
        second = QuantumCircuit(1)
        second.h(0)
        result = check_equivalence(first, second)
        assert result.criterion is EquivalenceCriterion.NOT_EQUIVALENT
        assert not result.equivalent

    def test_single_missing_gate_detected(self):
        circuit = random_static_circuit(3, 4, seed=2)
        broken = circuit.copy()
        broken.rx(0.3, 1)
        assert not check_equivalence(circuit, broken).equivalent

    def test_ladder_vs_fanout_not_functionally_equivalent(self):
        assert not check_equivalence(ghz_ladder(3), ghz_fanout(3)).equivalent

    @pytest.mark.parametrize("method", ["alternating", "construction", "simulation"])
    def test_negative_verdict_across_methods(self, method):
        first = QuantumCircuit(2)
        first.cx(0, 1)
        second = QuantumCircuit(2)
        second.cx(1, 0)
        result = check_equivalence(first, second, method=method, seed=0)
        assert not result.equivalent

    def test_dense_backend_negative(self):
        first = QuantumCircuit(2)
        first.cz(0, 1)
        second = QuantumCircuit(2)
        assert not check_equivalence(first, second, backend="dense").equivalent

    def test_qubit_count_mismatch_raises(self):
        with pytest.raises(EquivalenceCheckingError):
            check_equivalence(QuantumCircuit(2), QuantumCircuit(3))


class TestResultBookkeeping:
    def test_timings_are_recorded(self):
        direct, decomposed = two_realizations_of_swap()
        result = check_equivalence(direct, decomposed)
        assert result.time_check > 0.0
        assert result.time_transformation == 0.0
        assert result.total_time == result.time_check

    def test_details_contain_dd_statistics(self):
        direct, decomposed = two_realizations_of_swap()
        result = check_equivalence(direct, decomposed)
        assert result.details["num_gates_first"] == 1
        assert result.details["num_gates_second"] == 3
        assert result.details["max_nodes"] >= 1

    def test_str_representation(self):
        direct, decomposed = two_realizations_of_swap()
        text = str(check_equivalence(direct, decomposed))
        assert "equivalent" in text
        assert "t_check" in text

    def test_checker_object_reuse(self):
        checker = EquivalenceChecker(Configuration(backend="dense"))
        direct, decomposed = two_realizations_of_swap()
        assert checker.run(direct, decomposed).equivalent
        assert checker.run(decomposed, direct).equivalent

    def test_checker_overrides(self):
        checker = EquivalenceChecker(method="construction")
        assert checker.configuration.method == "construction"

    def test_random_circuit_self_equivalence_across_seeds(self):
        for seed in range(4):
            circuit = random_static_circuit(4, 5, seed=seed)
            assert check_equivalence(circuit, circuit.copy()).equivalent
