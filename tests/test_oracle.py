"""Verdict oracle: the alternating DD check against dense ground truth.

Random unitary circuits on up to five qubits are paired with their own
translation to the ``u``/``cx`` basis, fully or on a random subset of gates
(as perfbench's ``canonical`` requests are built), optionally in another
topological order (gates on disjoint qubits commuted), and with mutants of
that translation whose angle is perturbed 10x above or 10x below the
tolerance.  The translated gates reach the DD check in another gate set, so
it matches them on their quantized canonical form; the oracle checks that
quantization never turns into a verdict.  (A single angle moved by less
than the 1e-9 grid is always inside the tolerance, so drift that only adds
up past it is pinned in ``test_alternating_cancellation.py``.)

Ground truth is the dense product ``E = U1 * U2^dagger``, judged with a
margin of 2x around the tolerance: a pair clearly inside it must not be
refuted, a pair clearly outside it must not be proved.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import QuantumCircuit
from repro.compilation import decompose_to_cx_and_single_qubit, rewrite_single_qubit_to_u
from repro.core import EquivalenceCriterion, check_equivalence
from repro.simulators.unitary import circuit_unitary

TOLERANCE = 1e-7
MARGIN = 2.0

angles = st.floats(min_value=-3.2, max_value=3.2, allow_nan=False, allow_infinity=False)

ONE_QUBIT = ("h", "x", "s", "t", "sx")
ROTATIONS = ("rx", "ry", "rz", "p")
TWO_QUBIT = ("cx", "cz", "swap")
CONTROLLED_ROTATIONS = ("cp", "crz", "cry")


@st.composite
def circuits(draw, max_qubits: int = 5, max_gates: int = 14) -> QuantumCircuit:
    num_qubits = draw(st.integers(min_value=2, max_value=max_qubits))
    qubits = st.integers(min_value=0, max_value=num_qubits - 1)
    circuit = QuantumCircuit(num_qubits)
    for _ in range(draw(st.integers(min_value=1, max_value=max_gates))):
        kind = draw(st.integers(min_value=0, max_value=5))
        if kind <= 1:
            name = draw(st.sampled_from(ONE_QUBIT if kind == 0 else ROTATIONS))
            args = () if kind == 0 else (draw(angles),)
            getattr(circuit, name)(*args, draw(qubits))
        elif kind == 2:
            circuit.u(draw(angles), draw(angles), draw(angles), draw(qubits))
        else:
            control, target = draw(st.lists(qubits, min_size=2, max_size=2, unique=True))
            if kind == 3:
                getattr(circuit, draw(st.sampled_from(TWO_QUBIT)))(control, target)
            else:
                name = draw(st.sampled_from(CONTROLLED_ROTATIONS))
                getattr(circuit, name)(draw(angles), control, target)
    return circuit


def _translate_subset(circuit: QuantumCircuit, mask: int) -> QuantumCircuit:
    """``circuit`` with the gates whose bit is set in ``mask`` translated."""
    result = circuit.copy_empty()
    for index, instruction in enumerate(circuit):
        if not mask >> index & 1:
            result.append_instruction(instruction)
            continue
        single = circuit.copy_empty()
        single.append_instruction(instruction)
        if instruction.operation.num_qubits > 1:
            single = decompose_to_cx_and_single_qubit(single)
        for piece in rewrite_single_qubit_to_u(single):
            result.append_instruction(piece)
    return result


def _commuted(circuit: QuantumCircuit, rng: random.Random) -> QuantumCircuit:
    """``circuit`` in a random topological order of its qubit-sharing DAG."""
    pending = list(circuit)
    result = circuit.copy_empty()
    while pending:
        ready = []
        busy: set[int] = set()
        for index, instruction in enumerate(pending):
            if not busy.intersection(instruction.qubits):
                ready.append(index)
            busy.update(instruction.qubits)
        result.append_instruction(pending.pop(rng.choice(ready)))
    return result


def _perturbed(circuit: QuantumCircuit, choice: int, delta: float) -> QuantumCircuit | None:
    """``circuit`` with the first angle of one parameterized gate moved by ``delta``."""
    candidates = [
        index
        for index, instruction in enumerate(circuit)
        if instruction.operation.params
        and isinstance(instruction.operation.__reduce__()[1][0], float)
    ]
    if not candidates:
        return None
    target = candidates[choice % len(candidates)]
    result = circuit.copy_empty()
    for index, instruction in enumerate(circuit):
        if index == target:
            cls, args = instruction.operation.__reduce__()[:2]
            instruction = instruction.replace(operation=cls(args[0] + delta, *args[1:]))
        result.append_instruction(instruction)
    return result


def _distances(first: QuantumCircuit, second: QuantumCircuit) -> tuple[float, float]:
    """Max-entry distance of ``U1 U2^dagger`` from ``I`` and from ``s * I``."""
    product = circuit_unitary(first) @ circuit_unitary(second).conj().T
    identity = np.eye(product.shape[0])
    scalar = np.trace(product) / product.shape[0]
    scalar /= abs(scalar) or 1.0
    return (
        float(np.max(np.abs(product - identity))),
        float(np.max(np.abs(product - scalar * identity))),
    )


def _assert_agrees_with_ground_truth(first: QuantumCircuit, second: QuantumCircuit) -> None:
    exact, up_to_phase = _distances(first, second)
    criterion = check_equivalence(first, second, tolerance=TOLERANCE).criterion
    if exact <= TOLERANCE / MARGIN:
        assert criterion is EquivalenceCriterion.EQUIVALENT
    elif up_to_phase <= TOLERANCE / MARGIN:
        assert criterion is not EquivalenceCriterion.NOT_EQUIVALENT
    if exact > TOLERANCE * MARGIN:
        assert criterion is not EquivalenceCriterion.EQUIVALENT
    if up_to_phase > TOLERANCE * MARGIN:
        assert criterion is EquivalenceCriterion.NOT_EQUIVALENT


@settings(max_examples=40, deadline=None)
@given(
    circuit=circuits(),
    mask=st.integers(min_value=0, max_value=(1 << 14) - 1),
    full=st.booleans(),
    commuted=st.booleans(),
    choice=st.integers(min_value=0, max_value=63),
    rng=st.randoms(use_true_random=False),
)
def test_translated_pairs_and_their_mutants_match_dense_ground_truth(
    circuit, mask, full, commuted, choice, rng
):
    translated = _translate_subset(circuit, (1 << len(circuit)) - 1 if full else mask)
    if commuted:
        translated = _commuted(translated, rng)
    _assert_agrees_with_ground_truth(circuit, translated)
    for delta in (10 * TOLERANCE, TOLERANCE / 10):
        mutant = _perturbed(translated, choice, delta)
        if mutant is not None:
            _assert_agrees_with_ground_truth(circuit, mutant)
