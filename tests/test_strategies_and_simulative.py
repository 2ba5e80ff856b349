"""Tests for the alternating-scheme schedule and the simulative checker."""

import pytest

from repro.algorithms import ghz_fanout, ghz_ladder, ghz_with_bug
from repro.circuit import QuantumCircuit
from repro.core.simulative import run_simulative_check
from repro.core.strategies import LEFT, RIGHT, alternating_schedule
from repro.exceptions import EquivalenceCheckingError


class TestSchedules:
    @pytest.mark.parametrize(
        "num_left,num_right",
        [(5, 5), (3, 9), (9, 3), (0, 4), (4, 0), (1, 1), (0, 0), (2, 7), (16, 59), (59, 16)],
    )
    def test_schedule_covers_all_gates(self, num_left, num_right):
        tokens = list(alternating_schedule(num_left, num_right))
        assert tokens.count(LEFT) == num_left
        assert tokens.count(RIGHT) == num_right

    def test_equal_counts_alternate(self):
        tokens = list(alternating_schedule(3, 3))
        assert tokens == [LEFT, RIGHT] * 3

    def test_one_sided_counts_run_in_order(self):
        assert list(alternating_schedule(2, 0)) == [LEFT, LEFT]
        assert list(alternating_schedule(0, 3)) == [RIGHT, RIGHT, RIGHT]

    def test_proportional_interleaving_ratio(self):
        tokens = list(alternating_schedule(2, 6))
        # After every prefix the applied ratio should track 2:6 within one gate.
        left_seen = 0
        right_seen = 0
        for token in tokens:
            if token == LEFT:
                left_seen += 1
            else:
                right_seen += 1
            assert abs(right_seen - 3 * left_seen) <= 3
        assert left_seen == 2 and right_seen == 6

    def test_negative_counts_raise(self):
        with pytest.raises(EquivalenceCheckingError):
            list(alternating_schedule(-1, 1))


class TestSimulativeCheck:
    def test_equal_circuits_pass(self):
        passed, details = run_simulative_check(ghz_ladder(3), ghz_ladder(3), seed=7)
        assert passed
        assert details["min_fidelity"] == pytest.approx(1.0)

    def test_product_stimuli_distinguish_ladder_and_fanout(self):
        # Ladder and fan-out GHZ preparations differ as unitaries; random
        # product-state stimuli expose the difference.
        passed, _ = run_simulative_check(
            ghz_ladder(3), ghz_fanout(3), stimuli_type="product", num_simulations=8, seed=11
        )
        assert not passed

    def test_basis_stimuli(self):
        passed, details = run_simulative_check(
            ghz_fanout(3), ghz_with_bug(3), stimuli_type="basis", num_simulations=8, seed=3
        )
        # The bug is a relative phase, invisible in basis-state fidelities of
        # single runs only if the state stays a basis state; the H makes it
        # visible through interference for stimuli with qubit 0 set... either
        # verdict is acceptable here, but the call must succeed and report a
        # minimum fidelity.
        assert "min_fidelity" in details or "counterexample" in details

    def test_dense_backend(self):
        passed, _ = run_simulative_check(
            ghz_ladder(3), ghz_ladder(3), backend="dense", num_simulations=4, seed=5
        )
        assert passed

    def test_qubit_mismatch_raises(self):
        with pytest.raises(EquivalenceCheckingError):
            run_simulative_check(ghz_ladder(3), ghz_ladder(4))

    def test_dynamic_circuit_raises(self):
        dynamic = QuantumCircuit(1, 1)
        dynamic.measure(0, 0)
        dynamic.x(0, condition=(0, 1))
        with pytest.raises(EquivalenceCheckingError):
            run_simulative_check(dynamic, dynamic)

    def test_unknown_stimuli_type_raises(self):
        with pytest.raises(EquivalenceCheckingError):
            run_simulative_check(ghz_ladder(2), ghz_ladder(2), stimuli_type="ghz")

    def test_unknown_backend_raises(self):
        with pytest.raises(EquivalenceCheckingError):
            run_simulative_check(ghz_ladder(2), ghz_ladder(2), backend="tensor")
