"""Regression tests for the gate order of the alternating DD check.

The alternating check applies the gates of the first circuit from the left
and the inverted gates of the second circuit from the right, in the order
:func:`~repro.core.strategies.matched_schedule` emits.  Its bookkeeping is
simple but load-bearing: a gate skipped, built twice or taken out of order on
one of its qubits silently corrupts the verdict.  These tests pin the order
via a spy on ``instruction_to_dd`` plus verdict checks, and the ``max_nodes``
running-maximum reporting, and pin the verdict and node counts of the
Table-1 pairs and a compiled pair.
"""

import random

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
from repro.compilation import compile_circuit, ibmq_london
from repro.core import check_equivalence, to_unitary_circuit
from repro.core.checkers.base import inverse_instruction as _inverse_instruction


def _equivalent_pair() -> tuple[QuantumCircuit, QuantumCircuit]:
    """An equivalent pair with different, pairwise-distinct gate lists.

    The second circuit starts with self-cancelling rotation pairs with
    distinct angles and then repeats the first, so every instruction (and
    every inverted instruction) is unique — which lets the spy map each
    build back to an unambiguous gate index.  The leading rotations keep the
    first circuit's gates ahead of their twins, so the product is never a
    multiple of the identity when a matched pair comes up and no pair is
    cancelled: every gate is built.
    """
    left = QuantumCircuit(3, name="left")
    left.h(0)
    left.cx(0, 1)
    left.t(1)
    left.cx(1, 2)
    left.h(2)

    right = QuantumCircuit(3, name="right")
    right.rx(0.3, 0)
    right.rx(-0.3, 0)
    right.rz(0.7, 1)
    right.rz(-0.7, 1)
    right.ry(0.2, 2)
    right.ry(-0.2, 2)
    right = right.compose(left)
    right.name = "right"
    return left, right


@pytest.fixture()
def build_spy(monkeypatch):
    """Record every instruction whose gate DD the alternating check builds."""
    calls = []
    original = alternating_module.instruction_to_dd

    def wrapper(package, instruction):
        calls.append(instruction)
        return original(package, instruction)

    monkeypatch.setattr(alternating_module, "instruction_to_dd", wrapper)
    return calls


class TestGateOrder:
    @pytest.mark.parametrize("swapped", [False, True], ids=["5-vs-11", "11-vs-5"])
    def test_every_gate_is_built_once_in_schedule_order(self, build_spy, swapped):
        left, right = _equivalent_pair()
        if swapped:
            left, right = right, left
        result = check_equivalence(left, right)
        assert result.criterion.value == "equivalent"
        assert result.details["cancelled_pairs"] == 0
        assert result.details["num_gates_first"] == len(left)
        assert result.details["num_gates_second"] == len(right)
        assert {len(left), len(right)} == {5, 11}

        left_list = list(left.remove_final_measurements().gate_instructions())
        right_list = list(right.remove_final_measurements().gate_instructions())
        inverse_right = [_inverse_instruction(instruction) for instruction in right_list]
        left_ids = {id(instruction): index for index, instruction in enumerate(left_list)}

        left_seq, right_seq = [], []
        for call in build_spy:
            if id(call) in left_ids:
                left_seq.append(left_ids[id(call)])
            else:
                right_seq.append(inverse_right.index(call))

        for gates, seq in ((left_list, left_seq), (right_list, right_seq)):
            assert sorted(seq) == list(range(len(gates)))
            for qubit in range(left.num_qubits):
                on_qubit = [index for index in seq if qubit in gates[index].qubits]
                assert on_qubit == sorted(on_qubit)

    def test_non_equivalent_pair_is_detected(self):
        left, right = _equivalent_pair()
        right.z(1)
        assert check_equivalence(left, right).criterion.value == "not_equivalent"

    @pytest.mark.parametrize("backend", ["dd", "dense"])
    def test_one_sided_pairs_exhaust_the_other_side(self, backend):
        """With one side empty, the schedule drains the other side's gates."""
        empty = QuantumCircuit(2, name="empty")
        cancelling = QuantumCircuit(2, name="cancelling")
        cancelling.cx(0, 1)
        cancelling.cx(0, 1)
        assert check_equivalence(empty, cancelling, backend=backend).equivalent
        assert check_equivalence(cancelling, empty, backend=backend).equivalent


class TestMaxNodesReporting:
    def test_max_nodes_is_a_running_maximum(self):
        left, right = _equivalent_pair()
        details = check_equivalence(left, right).details
        # The product starts as the identity (one node per qubit) and ends
        # there again for an equivalent pair; the running maximum must cover
        # both endpoints.
        assert details["max_nodes"] >= details["final_nodes"]
        assert details["max_nodes"] >= left.num_qubits


def _hidden_string(num_qubits: int) -> str:
    rng = random.Random(num_qubits)
    return "".join(rng.choice("01") for _ in range(num_qubits))


def _table1_pair(family: str, size: int) -> tuple[QuantumCircuit, QuantumCircuit]:
    if family == "bv":
        hidden = _hidden_string(size)
        return bernstein_vazirani_static(hidden), bernstein_vazirani_dynamic(hidden)
    if family == "qft":
        return qft_static_benchmark(size), qft_dynamic(size)
    return qpe_static(size, running_example_lambda), iterative_qpe(size, running_example_lambda)


class TestNodeCountsArePinned:
    """``criterion``, ``max_nodes`` and ``final_nodes`` of the default check.

    The values were measured with the matched schedule; a change to the gate
    order or the DD kernels that moves them shows up here.  Every gate of
    the Table-1 pairs is cancelled as part of a matched pair, so the
    product stays the initial identity (one node per qubit).
    """

    @pytest.mark.parametrize(
        "family,size,max_nodes,final_nodes",
        [
            ("bv", 20, 21, 21),
            ("bv", 40, 41, 41),
            ("bv", 60, 61, 61),
            ("qft", 10, 10, 10),
            ("qft", 13, 13, 13),
            ("qft", 16, 16, 16),
            ("qpe", 6, 7, 7),
            ("qpe", 8, 9, 9),
            ("qpe", 10, 11, 11),
        ],
    )
    def test_table1_pair(self, family, size, max_nodes, final_nodes):
        static, dynamic = _table1_pair(family, size)
        result = check_equivalence(static, to_unitary_circuit(dynamic).circuit)
        assert result.criterion.value == "equivalent"
        assert (result.details["max_nodes"], result.details["final_nodes"]) == (max_nodes, final_nodes)

    def test_compiled_qpe3_pair(self):
        compiled = compile_circuit(qpe_static(3, running_example_lambda), ibmq_london())
        result = check_equivalence(compiled.padded_original, compiled.circuit)
        assert result.criterion.value == "equivalent"
        assert (result.details["num_gates_first"], result.details["num_gates_second"]) == (13, 56)
        assert (result.details["max_nodes"], result.details["final_nodes"]) == (16, 5)
