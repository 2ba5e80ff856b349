"""Tests for the alternating-scheme schedule and the simulative checker."""

import pytest

from repro.algorithms import ghz_fanout, ghz_ladder, ghz_with_bug
from repro.circuit import QuantumCircuit
from repro.circuit.gates import RZGate
from repro.circuit.operations import Instruction
from repro.core.simulative import run_simulative_check
from repro.core.strategies import matched_schedule
from repro.exceptions import EquivalenceCheckingError

LEFT, RIGHT = "L", "R"


def _flatten(items) -> list[tuple[str, Instruction]]:
    """``(side, instruction)`` per gate, a matched pair's left gate first."""
    return [
        (side, instruction)
        for item in items
        for side, instruction in zip((LEFT, RIGHT), item)
        if instruction is not None
    ]


def _distinct_gates(count: int, offset: float) -> list[Instruction]:
    """``count`` pairwise-distinct rotations; no two offsets share a gate."""
    return [Instruction(RZGate(offset + 0.01 * k), (k % 3,)) for k in range(count)]


def _tokens(num_left: int, num_right: int) -> list[str]:
    """Tokens for two gate lists that share no gate (nothing to pair)."""
    left, right = _distinct_gates(num_left, 0.1), _distinct_gates(num_right, 5.0)
    return [side for side, _ in _flatten(matched_schedule(left, right))]


class TestSchedules:
    @pytest.mark.parametrize(
        "num_left,num_right",
        [(5, 5), (3, 9), (9, 3), (0, 4), (4, 0), (1, 1), (0, 0), (2, 7), (16, 59), (59, 16)],
    )
    def test_schedule_covers_all_gates(self, num_left, num_right):
        tokens = _tokens(num_left, num_right)
        assert tokens.count(LEFT) == num_left
        assert tokens.count(RIGHT) == num_right

    def test_equal_counts_alternate(self):
        tokens = _tokens(3, 3)
        assert tokens == [LEFT, RIGHT] * 3

    def test_one_sided_counts_run_in_order(self):
        assert _tokens(2, 0) == [LEFT, LEFT]
        assert _tokens(0, 3) == [RIGHT, RIGHT, RIGHT]

    def test_proportional_interleaving_ratio(self):
        tokens = _tokens(2, 6)
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

    def test_identical_frontier_gates_are_paired(self):
        """Gates held in a commuted order are still applied back to back."""
        first = QuantumCircuit(2)
        first.h(0)
        first.x(1)
        first.cx(0, 1)
        second = QuantumCircuit(2)
        second.x(1)
        second.h(0)
        second.cx(0, 1)
        emitted = [
            (side, instruction.operation.name)
            for side, instruction in _flatten(matched_schedule(first.data, second.data))
        ]
        assert emitted == [
            (LEFT, "h"), (RIGHT, "h"), (LEFT, "x"), (RIGHT, "x"), (LEFT, "cx"), (RIGHT, "cx"),
        ]

    def test_matched_gates_come_out_as_one_item(self):
        first = QuantumCircuit(2)
        first.h(0)
        first.cx(0, 1)
        second = QuantumCircuit(2)
        second.x(1)
        second.h(0)
        second.cx(0, 1)
        items = [
            tuple(None if gate is None else gate.operation.name for gate in item)
            for item in matched_schedule(first.data, second.data)
        ]
        assert items == [("h", "h"), (None, "x"), ("cx", "cx")]


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
