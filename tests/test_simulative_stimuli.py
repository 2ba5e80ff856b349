"""Tests of the simulative check's DD path: stimuli built directly as vector
DDs, gate DDs built once per check, and agreement with a per-stimulus
simulation of the stimulus-prepending circuits."""

import random

import numpy as np
import pytest

from repro.algorithms import (
    bernstein_vazirani_dynamic,
    bernstein_vazirani_static,
    ghz_ladder,
    iterative_qpe,
    qft_dynamic,
    qft_static_benchmark,
    qpe_static,
)
from repro.core import EquivalenceCheckingManager, EquivalenceCriterion, simulative
from repro.core.checkers.base import CheckerInterrupted
from repro.core.simulative import (
    _product_state_dd,
    _random_basis_stimulus,
    _random_product_angles,
    _random_product_circuit,
    run_simulative_check,
)
from repro.core.transformation import to_unitary_circuit
from repro.dd import circuits as dd_circuits
from repro.dd.package import DDPackage
from repro.simulators.dd_simulator import DDSimulator
from repro.simulators.statevector import StatevectorSimulator

STIMULI_TYPES = ("product", "basis")


def _table1_pair(family: str, n: int):
    """(static, unitary reconstruction of the dynamic) realization of one algorithm."""
    if family == "qft":
        static, dynamic = qft_static_benchmark(n), qft_dynamic(n)
    elif family == "qpe":
        static, dynamic = qpe_static(n), iterative_qpe(n)
    else:
        hidden = "1011010110"[:n]
        static, dynamic = bernstein_vazirani_static(hidden), bernstein_vazirani_dynamic(hidden)
    return static, to_unitary_circuit(dynamic).circuit


def _with_rz(circuit, seed: int):
    """``circuit`` with a seeded ``rz`` inserted before its first gate on a seeded qubit."""
    rng = random.Random(seed)
    theta = rng.uniform(np.pi / 4, 7 * np.pi / 4)
    qubit = rng.randrange(circuit.num_qubits)
    data = list(circuit)
    position = rng.randint(0, next(i for i, inst in enumerate(data) if inst.is_measurement))
    result = circuit.copy_empty()
    for index, instruction in enumerate(data):
        if index == position:
            result.rz(theta, qubit)
        result.append_instruction(instruction)
    return result


def _per_stimulus_reference(first, second, *, num_simulations, stimuli_type, seed, tolerance=1e-7):
    """Simulate each stimulus-prepending circuit from |0...0> (or the basis
    stimulus) with :class:`DDSimulator`, one shared package per check."""
    rng = random.Random(seed)
    num_qubits = first.num_qubits
    package = DDPackage(num_qubits)
    min_fidelity = 1.0
    for run in range(num_simulations):
        if stimuli_type == "basis":
            stimulus = _random_basis_stimulus(num_qubits, rng)
            circuit_one, circuit_two, initial = first, second, stimulus
        else:
            stimulus = None
            preparation = _random_product_circuit(num_qubits, rng)
            circuit_one = preparation.compose(first.remove_final_measurements())
            circuit_two = preparation.compose(second.remove_final_measurements())
            initial = None
        state_one = DDSimulator().run(circuit_one, initial, package=package)
        state_two = DDSimulator().run(circuit_two, initial, package=package)
        fidelity = state_one.fidelity(state_two)
        min_fidelity = min(min_fidelity, fidelity)
        if fidelity < 1.0 - tolerance:
            return False, run, stimulus, min_fidelity
    return True, None, None, min_fidelity


class TestProductStimulus:
    @pytest.mark.parametrize("num_qubits", range(1, 7))
    @pytest.mark.parametrize("seed", [0, 1, 17, 2024])
    def test_matches_the_dense_preparation_circuit(self, num_qubits, seed):
        package = DDPackage(num_qubits)
        edge = _product_state_dd(package, _random_product_angles(num_qubits, random.Random(seed)))
        preparation = _random_product_circuit(num_qubits, random.Random(seed))
        dense = StatevectorSimulator().run(preparation).data
        assert np.allclose(package.vector_to_numpy(edge), dense, atol=1e-12)
        assert package.count_nodes(edge) == num_qubits

    @pytest.mark.parametrize("num_qubits", [300, 600])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_wide_stimulus_keeps_unit_norm(self, num_qubits, seed):
        # The per-qubit pivots multiply to far below the tolerance at these
        # widths; applied to the children they would zero the stimulus.
        package = DDPackage(num_qubits)
        edge = _product_state_dd(package, _random_product_angles(num_qubits, random.Random(seed)))
        assert package.count_nodes(edge) == num_qubits
        assert package.norm_squared(edge) == pytest.approx(1.0, abs=1e-9)

    def test_angles_draw_like_the_preparation_circuit(self):
        # The DD path must consume the random stream exactly as the dense
        # path does, so both backends see the same stimuli for a seed.
        first, second = random.Random(5), random.Random(5)
        _random_product_angles(4, first)
        _random_product_circuit(4, second)
        assert first.random() == second.random()


PAIRS = [
    ("qft", 4), ("qft", 6), ("qpe", 4), ("qpe", 5), ("bv", 6), ("bv", 8),
]


class TestAgreesWithPerStimulusSimulation:
    @pytest.mark.parametrize("stimuli_type", STIMULI_TYPES)
    @pytest.mark.parametrize("family, n", PAIRS)
    @pytest.mark.parametrize("mutant", [False, True], ids=["equivalent", "rz-mutant"])
    def test_same_verdict_run_counterexample_and_fidelity(self, family, n, mutant, stimuli_type):
        first, second = _table1_pair(family, n)
        if mutant:
            first = _with_rz(first, seed=n)
        for seed in (1, 3):
            passed, details = run_simulative_check(
                first, second, num_simulations=8, stimuli_type=stimuli_type, seed=seed
            )
            expected, failed_run, counterexample, min_fidelity = _per_stimulus_reference(
                first, second, num_simulations=8, stimuli_type=stimuli_type, seed=seed
            )
            assert passed is expected
            assert details.get("failed_run") == failed_run
            assert details.get("counterexample") == counterexample
            assert details["min_fidelity"] == pytest.approx(min_fidelity, abs=1e-9)
            if not mutant:
                assert passed

    @pytest.mark.parametrize("stimuli_type", STIMULI_TYPES)
    def test_later_failing_runs_match(self, stimuli_type):
        # A Toffoli in front only shows on stimuli with both controls set, so
        # basis stimuli fail on later runs (or not at all) depending on seed.
        first, second = _table1_pair("qft", 5)
        mutant = first.copy_empty()
        mutant.ccx(0, 1, 2)
        for instruction in first:
            mutant.append_instruction(instruction)
        failed_runs = set()
        for seed in range(6):
            passed, details = run_simulative_check(
                mutant, second, num_simulations=8, stimuli_type=stimuli_type, seed=seed
            )
            expected, failed_run, counterexample, min_fidelity = _per_stimulus_reference(
                mutant, second, num_simulations=8, stimuli_type=stimuli_type, seed=seed
            )
            assert (passed, details.get("failed_run"), details.get("counterexample")) == (
                expected, failed_run, counterexample
            )
            assert details["min_fidelity"] == pytest.approx(min_fidelity, abs=1e-9)
            failed_runs.add(failed_run)
        if stimuli_type == "basis":
            assert None in failed_runs and any(run and run > 0 for run in failed_runs)


class TestWideRegisters:
    """A wide circuit is equivalent to itself on every entry point."""

    def test_simulative_check_passes_a_300_qubit_self_pair(self):
        passed, details = run_simulative_check(
            ghz_ladder(300, measure=False), ghz_ladder(300, measure=False),
            num_simulations=2, seed=1,
        )
        assert passed
        assert details["min_fidelity"] == pytest.approx(1.0, abs=1e-9)

    def test_default_manager_does_not_refute_a_250_qubit_self_pair(self):
        result = EquivalenceCheckingManager(seed=1).run(
            ghz_ladder(250, measure=False), ghz_ladder(250, measure=False)
        )
        assert result.criterion is not EquivalenceCriterion.NOT_EQUIVALENT


class _CountingBuild:
    def __init__(self):
        self.calls = 0
        self._build = dd_circuits.instruction_to_dd

    def __call__(self, package, instruction):
        self.calls += 1
        return self._build(package, instruction)


class TestPerCheckWork:
    @pytest.mark.parametrize("num_simulations", [1, 4, 16])
    @pytest.mark.parametrize("stimuli_type", STIMULI_TYPES)
    def test_gate_dds_are_built_once_per_check(self, monkeypatch, num_simulations, stimuli_type):
        first, second = _table1_pair("qpe", 4)
        counter = _CountingBuild()
        monkeypatch.setattr(dd_circuits, "instruction_to_dd", counter)
        passed, _ = run_simulative_check(
            first, second, num_simulations=num_simulations, stimuli_type=stimuli_type, seed=2
        )
        assert passed
        gate_count = sum(
            1
            for circuit in (first, second)
            for inst in circuit
            if not (inst.is_barrier or inst.is_measurement)
        )
        assert counter.calls == gate_count

    def test_interrupt_is_polled_before_every_stimulus(self, monkeypatch):
        first, second = _table1_pair("qft", 4)
        starts = []
        product_state = simulative._product_state_dd

        def recording(package, angles):
            starts.append(len(polls))
            return product_state(package, angles)

        monkeypatch.setattr(simulative, "_product_state_dd", recording)
        polls = []
        run_simulative_check(first, second, num_simulations=5, seed=4, interrupt=lambda: polls.append(1))
        # One poll right before each of the five stimuli, none elsewhere.
        assert starts == [1, 2, 3, 4, 5]
        assert len(polls) == 5

        for fire_at in (1, 3, 5):
            starts.clear()
            polls.clear()

            def interrupt():
                polls.append(1)
                return len(polls) == fire_at

            with pytest.raises(CheckerInterrupted):
                run_simulative_check(first, second, num_simulations=5, seed=4, interrupt=interrupt)
            assert len(starts) == fire_at - 1
