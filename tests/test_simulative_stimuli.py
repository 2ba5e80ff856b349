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
from repro.core.simulative import (
    _product_state_dd,
    _random_basis_stimulus,
    _random_product_angles,
    _random_product_circuit,
    run_simulative_check,
    simulative_check_steps,
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


def _bv_mutant(hidden: str, position: int, qubit: int, theta: float):
    """Static BV with ``rz(theta)`` at ``position`` on ``qubit``, and dynamic BV."""
    static = bernstein_vazirani_static(hidden)
    mutant = static.copy_empty()
    for index, instruction in enumerate(static):
        if index == position:
            mutant.rz(theta, qubit)
        mutant.append_instruction(instruction)
    return mutant, bernstein_vazirani_dynamic(hidden)


# perfbench's ``table1-scheme1`` seed-1 BV-40 mutants (block 0 pair 8, block 1
# pair 14).  Before turns were charged by DD work, the falsifier's first
# product stimulus on them took a minute and over 2 GB.
_BV40_MUTANTS = {
    "block0-pair8": ("1011010010011011100010110111000000001100", 31, 39, 3.4868606789254306),
    "block1-pair14": ("1100001110111011010100010010111110111101", 4, 2, 3.2312228844427646),
}


class TestDefaultManagerOnWidePairs:
    """The prover decides wide pairs before the falsifier has applied a few gates."""

    def test_qpe_16_is_proved_with_simulation_skipped(self, counted_products):
        result = EquivalenceCheckingManager(seed=0, verdict_cache=False).run(
            qpe_static(16), iterative_qpe(16)
        )
        assert result.criterion is EquivalenceCriterion.EQUIVALENT
        assert result.decided_by == "alternating"
        statuses = [(attempt.method, attempt.status) for attempt in result.attempts]
        assert statuses == [("alternating", "completed"), ("simulation", "skipped")]
        assert counted_products.products == 0

    @pytest.mark.parametrize("mutant", sorted(_BV40_MUTANTS))
    def test_bv_40_mutant_is_refuted_by_the_prover(self, counted_products, mutant):
        result = EquivalenceCheckingManager(seed=0, verdict_cache=False).run(
            *_bv_mutant(*_BV40_MUTANTS[mutant])
        )
        assert result.criterion is EquivalenceCriterion.NOT_EQUIVALENT
        assert result.decided_by == "alternating"
        statuses = {attempt.method: attempt.status for attempt in result.attempts}
        assert statuses == {"simulation": "preempted", "alternating": "completed"}
        assert 1 <= counted_products.products <= 4


class _CountingBuild:
    def __init__(self):
        self.calls = 0
        self._build = dd_circuits.instruction_to_dd

    def __call__(self, package, instruction):
        self.calls += 1
        return self._build(package, instruction)


class _CountingPackage(DDPackage):
    """A package that counts its top-level matrix-vector products."""

    products = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._depth = 0

    def multiply_matrix_vector(self, matrix, vector):
        # The kernel recurses through this method; count the outer call only.
        if not self._depth:
            _CountingPackage.products += 1
        self._depth += 1
        try:
            return super().multiply_matrix_vector(matrix, vector)
        finally:
            self._depth -= 1


@pytest.fixture()
def counted_products(monkeypatch):
    """Count the simulation falsifier's top-level matrix-vector products."""
    monkeypatch.setattr(_CountingPackage, "products", 0)
    monkeypatch.setattr(simulative, "DDPackage", _CountingPackage)
    return _CountingPackage


def _steps(generator):
    """Drive a step generator: ``(costs, returned value)``."""
    costs = []
    while True:
        try:
            costs.append(next(generator))
        except StopIteration as stop:
            return costs, stop.value


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

    def test_a_dd_step_is_one_matrix_vector_product(self, counted_products):
        first, second = _table1_pair("qft", 4)
        steps = simulative_check_steps(first, second, num_simulations=3, seed=4)
        products = []
        while True:
            try:
                cost = next(steps)
            except StopIteration as stop:
                passed, _ = stop.value
                break
            assert cost >= 1
            products.append(counted_products.products)
        assert passed
        # 20 gates a stimulus, each its own step; the last step only
        # compares the final stimulus's states.
        assert products == list(range(1, 61))

    def test_step_cost_is_one_plus_the_nodes_created(self, monkeypatch):
        packages = []

        def recording_package(*args, **kwargs):
            packages.append(DDPackage(*args, **kwargs))
            return packages[-1]

        monkeypatch.setattr(simulative, "DDPackage", recording_package)
        first, second = _table1_pair("bv", 8)
        steps = simulative_check_steps(first, second, num_simulations=2, seed=4)
        charged = 0
        for cost in steps:
            created = packages[0].nodes_created
            assert cost == 1 + created - charged
            charged = created

    def test_a_mutant_refuted_in_stimulus_zero_builds_only_applied_gates(self, monkeypatch):
        first, second = _table1_pair("qpe", 5)
        mutant = _with_rz(first, seed=3)
        counter = _CountingBuild()
        monkeypatch.setattr(dd_circuits, "instruction_to_dd", counter)
        steps = simulative_check_steps(mutant, second, seed=4)
        for applied in range(1, 6):
            next(steps)
            # Gate DDs are built lazily, in the step that first applies them.
            assert counter.calls == applied
        costs, (passed, details) = _steps(steps)
        assert not passed and details["failed_run"] == 0
        gate_count = sum(
            1
            for circuit in (mutant, second)
            for inst in circuit
            if not (inst.is_barrier or inst.is_measurement)
        )
        assert counter.calls == gate_count == 5 + len(costs)

    def test_a_caller_can_stop_between_any_two_steps(self, monkeypatch):
        first, second = _table1_pair("qft", 4)
        starts = []
        taken = []
        product_state = simulative._product_state_dd

        def recording(package, angles):
            starts.append(len(taken))
            return product_state(package, angles)

        monkeypatch.setattr(simulative, "_product_state_dd", recording)
        for _ in simulative_check_steps(first, second, num_simulations=5, seed=4):
            taken.append(1)
        # A DD step is one gate application: 20 per stimulus on QFT-4 (10
        # gates a side), and the step after the last gate, which compares the
        # last stimulus, returns.  Each stimulus starts in the step after the
        # previous one's last gate.
        assert starts == [0, 20, 40, 60, 80]
        assert len(taken) == 100

        # Budgets are checked between steps: closing the generator after k
        # steps starts no further stimulus.
        for stop_after, started in ((0, 0), (1, 1), (20, 1), (21, 2), (80, 4)):
            starts.clear()
            steps = simulative_check_steps(first, second, num_simulations=5, seed=4)
            for _ in range(stop_after):
                next(steps)
            steps.close()
            assert len(starts) == started
