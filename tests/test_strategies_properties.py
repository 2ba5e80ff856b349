"""Property-based tests (hypothesis) for the alternating application schedule.

The schedule drives the alternating equivalence-checking scheme: get it wrong
and gates of one circuit are skipped, applied twice or taken out of order on
a qubit, silently corrupting the verdict.  These properties pin the schedule
contract — every gate exactly once, per-qubit order kept, proportional
interleaving where nothing pairs — and check the verdicts it leads to against
dense ground-truth unitaries.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import iterative_qpe, qpe_static, running_example_lambda
from repro.circuit import QuantumCircuit
from repro.circuit.gates import (
    CPhaseGate,
    CXGate,
    CZGate,
    GlobalPhaseGate,
    HGate,
    RZGate,
    SGate,
    SwapGate,
    TGate,
    XGate,
)
from repro.circuit.operations import Instruction
from repro.core import check_equivalence, to_unitary_circuit
from repro.core.strategies import matched_schedule
from repro.simulators.unitary import circuit_unitary

counts = st.integers(min_value=0, max_value=200)
LEFT, RIGHT = "L", "R"

ONE_QUBIT = [HGate(), XGate(), SGate(), TGate(), RZGate(0.3), RZGate(1.1)]
TWO_QUBIT = [CXGate(), CZGate(), CPhaseGate(0.5), SwapGate()]


def _distinct_gates(count: int, offset: float) -> list[Instruction]:
    """``count`` pairwise-distinct rotations; no two offsets share a gate."""
    return [Instruction(RZGate(offset + 0.01 * k), (k % 3,)) for k in range(count)]


def _emitted(left, right) -> list[tuple[str, Instruction]]:
    """``(side, instruction)`` per gate, a matched pair's left gate first."""
    return [
        (side, instruction)
        for item in matched_schedule(left, right)
        for side, instruction in zip((LEFT, RIGHT), item)
        if instruction is not None
    ]


def _unpaired_tokens(num_left: int, num_right: int) -> list[str]:
    left, right = _distinct_gates(num_left, 0.1), _distinct_gates(num_right, 5.0)
    return [side for side, _ in _emitted(left, right)]


@st.composite
def gate_lists(draw, max_qubits: int = 5, max_gates: int = 24):
    """``(num_qubits, gates)`` over a small palette, 0-qubit phases included.

    The palette is small on purpose, so that identical gates recur on the
    same qubits and the schedule's pairing is exercised.
    """
    num_qubits = draw(st.integers(min_value=2, max_value=max_qubits))
    return num_qubits, _draw_gates(draw, num_qubits, max_gates)


def _draw_gates(draw, num_qubits: int, max_gates: int) -> list[Instruction]:
    gates = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_gates))):
        kind = draw(st.integers(min_value=0, max_value=9))
        if kind == 0:
            gates.append(Instruction(GlobalPhaseGate(0.4), ()))
        elif kind <= 5:
            qubit = draw(st.integers(min_value=0, max_value=num_qubits - 1))
            gates.append(Instruction(draw(st.sampled_from(ONE_QUBIT)), (qubit,)))
        else:
            pair = draw(st.permutations(range(num_qubits)))[:2]
            gates.append(Instruction(draw(st.sampled_from(TWO_QUBIT)), tuple(pair)))
    return gates


@st.composite
def shared_prefix_pairs(draw):
    """``(num_qubits, left, right)`` sharing a random prefix, then diverging.

    * ``tail``: each side continues with its own random gates;
    * ``mutant``: an ``rz`` is inserted into one side at a random position;
    * ``detour``: one side takes a random detour ``D D^-1`` at a random
      position, so the product leaves the identity and (up to rounding)
      returns to it, and later matched pairs may cancel again; half the
      time an ``rz`` after the detour makes the pair non-equivalent.
    """
    num_qubits = draw(st.integers(min_value=2, max_value=5))
    prefix = _draw_gates(draw, num_qubits, 16)
    left, right = list(prefix), list(prefix)
    shape = draw(st.sampled_from(("tail", "mutant", "detour")))
    if shape == "tail":
        left += _draw_gates(draw, num_qubits, 8)
        right += _draw_gates(draw, num_qubits, 8)
    else:
        side = draw(st.sampled_from((left, right)))
        position = draw(st.integers(min_value=0, max_value=len(side)))
        qubit = draw(st.integers(min_value=0, max_value=num_qubits - 1))
        if shape == "mutant":
            inserted = [Instruction(RZGate(0.5), (qubit,))]
        else:
            detour = _draw_gates(draw, num_qubits, 4)
            inserted = detour + [
                Instruction(instruction.operation.inverse(), instruction.qubits)
                for instruction in reversed(detour)
            ]
            if draw(st.booleans()):
                inserted.append(Instruction(RZGate(0.5), (qubit,)))
        side[position:position] = inserted
    return num_qubits, left, right


def _random_topological_order(gates: list[Instruction], seed: int) -> list[Instruction]:
    """Another topological order of the qubit-sharing DAG (same unitary)."""
    rng = random.Random(seed)
    remaining = list(range(len(gates)))
    order = []
    while remaining:
        ready = [
            index
            for position, index in enumerate(remaining)
            if not any(
                set(gates[earlier].qubits) & set(gates[index].qubits)
                for earlier in remaining[:position]
            )
        ]
        chosen = rng.choice(ready)
        remaining.remove(chosen)
        order.append(gates[chosen])
    return order


def _circuit(num_qubits: int, gates: list[Instruction]) -> QuantumCircuit:
    circuit = QuantumCircuit(num_qubits)
    for instruction in gates:
        circuit.append(instruction.operation, instruction.qubits)
    return circuit


def _ground_truth(first: QuantumCircuit, second: QuantumCircuit, tolerance: float) -> str:
    a, b = circuit_unitary(first), circuit_unitary(second)
    if np.allclose(a, b, atol=tolerance):
        return "equivalent"
    overlap = np.vdot(b.ravel(), a.ravel()) / a.shape[0]
    if abs(abs(overlap) - 1.0) <= tolerance and np.allclose(a, overlap * b, atol=tolerance):
        return "equivalent_up_to_global_phase"
    return "not_equivalent"


@settings(deadline=None)
@given(num_left=counts, num_right=counts)
def test_schedule_emits_exact_token_counts(num_left, num_right):
    tokens = _unpaired_tokens(num_left, num_right)
    assert tokens.count(LEFT) == num_left
    assert tokens.count(RIGHT) == num_right
    assert len(tokens) == num_left + num_right
    assert set(tokens) <= {LEFT, RIGHT}


@settings(deadline=None)
@given(num_left=counts, num_right=counts)
def test_schedule_never_overruns_either_circuit(num_left, num_right):
    """Prefix counts never exceed the available gates (no index overruns)."""
    left_done = right_done = 0
    for token in _unpaired_tokens(num_left, num_right):
        if token == LEFT:
            left_done += 1
        else:
            right_done += 1
        assert left_done <= num_left
        assert right_done <= num_right


@settings(deadline=None)
@given(
    num_left=st.integers(min_value=1, max_value=200),
    num_right=st.integers(min_value=1, max_value=200),
)
def test_proportional_prefixes_track_the_ideal_ratio(num_left, num_right):
    """With nothing to pair, after k steps k * num_left / total ± 1 LEFTs were emitted."""
    total = num_left + num_right
    left_done = 0
    for step, token in enumerate(_unpaired_tokens(num_left, num_right), 1):
        if token == LEFT:
            left_done += 1
        ideal = step * num_left / total
        assert abs(left_done - ideal) <= 1.0


def test_schedule_takes_no_strategy_argument():
    """The matched schedule is the only one; there is nothing to select."""
    with pytest.raises(TypeError):
        matched_schedule([], [], "proportional")


@settings(deadline=None, max_examples=60)
@given(first=gate_lists(), second=gate_lists(), seed=st.integers(0, 10_000))
def test_each_side_is_emitted_in_a_qubit_order_preserving_permutation(first, second, seed):
    _, left = first
    # Half the pairs share gates in a commuted order, so that pairs form.
    right = _random_topological_order(left, seed) if seed % 2 else second[1]
    emitted = {LEFT: [], RIGHT: []}
    for side, instruction in _emitted(left, right):
        emitted[side].append(instruction)
    for side, gates in ((LEFT, left), (RIGHT, right)):
        positions = {id(instruction): index for index, instruction in enumerate(gates)}
        order = [positions[id(instruction)] for instruction in emitted[side]]
        assert sorted(order) == list(range(len(gates)))
        for qubit in {qubit for instruction in gates for qubit in instruction.qubits}:
            on_qubit = [index for index in order if qubit in gates[index].qubits]
            assert on_qubit == sorted(on_qubit)


MUTATIONS = ("none", "reorder", "rotation", "phase", "drop")


@settings(deadline=None, max_examples=60)
@given(
    pair=gate_lists(),
    mutation=st.sampled_from(MUTATIONS),
    seed=st.integers(0, 10_000),
)
def test_dd_and_dense_backends_agree_with_ground_truth(pair, mutation, seed):
    num_qubits, gates = pair
    rng = random.Random(seed)
    other = _random_topological_order(gates, seed)
    if mutation == "rotation":
        other.insert(rng.randint(0, len(other)), Instruction(RZGate(0.5), (0,)))
    elif mutation == "phase":
        other.insert(rng.randint(0, len(other)), Instruction(GlobalPhaseGate(0.9), ()))
    elif mutation == "drop" and other:
        other.pop(rng.randrange(len(other)))
    elif mutation == "none":
        other = list(gates)
    first, second = _circuit(num_qubits, gates), _circuit(num_qubits, other)
    truth = _ground_truth(first, second, 1e-8)
    for backend in ("dd", "dense"):
        assert check_equivalence(first, second, backend=backend).criterion.value == truth


@settings(deadline=None, max_examples=80)
@given(pair=shared_prefix_pairs())
def test_cancelled_pairs_keep_the_dd_verdict_equal_to_dense_and_ground_truth(pair):
    """Skipping matched pairs while the product is ``w * I`` changes no verdict."""
    num_qubits, left, right = pair
    first, second = _circuit(num_qubits, left), _circuit(num_qubits, right)
    truth = _ground_truth(first, second, 1e-8)
    dd = check_equivalence(first, second, backend="dd")
    dense = check_equivalence(first, second, backend="dense")
    assert dd.criterion.value == dense.criterion.value == truth
    assert dense.details["cancelled_pairs"] == 0
    walked = (dd.details["num_walked_first"], dd.details["num_walked_second"])
    # A translated gate walks as its canonical gates, so the bound is on
    # the walked gates, not the raw ones.
    assert 0 <= dd.details["cancelled_pairs"] <= min(walked)


@pytest.mark.parametrize("size", [16, 24])
def test_qpe_peak_nodes_stay_linear(size):
    """Static and reconstructed iterative QPE hold the same gates in a commuted
    order; the matched schedule pairs them, so the product stays near the identity."""
    static = qpe_static(size, running_example_lambda)
    dynamic = to_unitary_circuit(iterative_qpe(size, running_example_lambda)).circuit
    result = check_equivalence(static, dynamic)
    assert result.criterion.value == "equivalent"
    assert result.details["max_nodes"] <= 2 * size + 1
