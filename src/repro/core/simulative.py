"""Simulative (random-stimuli) equivalence checking.

Instead of comparing the full system matrices, both circuits are simulated on
a number of randomly chosen input states and the fidelity of the resulting
states is compared.  A single mismatch proves non-equivalence; agreeing on all
stimuli yields the verdict ``PROBABLY_EQUIVALENT``.  This mirrors the
simulation-based checks of QCEC and complements the functional schemes for
circuits whose ``U * U'^dagger`` diagram would grow too large.

On the DD backend both circuits are stripped to their gate instructions once
per check, and every gate DD is built (through
:func:`repro.dd.circuits.instruction_to_dd`) once, in the step that first
applies it, and reused by later stimuli.  Each stimulus is built directly as a
vector DD — a basis state, or a product state with one node per qubit — and
both gate lists are folded over it with matrix-vector multiplications.  One
multiplication is one step of :func:`simulative_check_steps`, the generator
the portfolio manager interleaves with the other checkers, and its cost is the
DD work it did: ``1 +`` the nodes the package created since the previous
step.  The dense backend simulates the stimulus-prepending circuits instead,
one stimulus per step.
"""

from __future__ import annotations

import math
import random
from collections.abc import Generator

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gates import RYGate, RZGate
from repro.dd import circuits as dd_circuits
from repro.dd.nodes import VEdge
from repro.dd.package import DDPackage
from repro.exceptions import EquivalenceCheckingError
from repro.simulators.statevector import StatevectorSimulator
from repro.utils.steps import drain

__all__ = ["run_simulative_check", "simulative_check_steps"]


def _random_basis_stimulus(num_qubits: int, rng: random.Random) -> str:
    return "".join(rng.choice("01") for _ in range(num_qubits))


def _random_product_angles(num_qubits: int, rng: random.Random) -> list[tuple[float, float]]:
    """Per qubit, the ``(ry, rz)`` angles of a random product-state stimulus."""
    return [
        (rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi))
        for _ in range(num_qubits)
    ]


def _random_product_circuit(num_qubits: int, rng: random.Random) -> QuantumCircuit:
    """A layer of random single-qubit rotations preparing a product state."""
    preparation = QuantumCircuit(num_qubits, name="stimulus")
    for qubit, (theta, phi) in enumerate(_random_product_angles(num_qubits, rng)):
        preparation.ry(theta, qubit)
        preparation.rz(phi, qubit)
    return preparation


def _product_state_dd(package: DDPackage, angles: list[tuple[float, float]]) -> VEdge:
    """The product state ``RZ(phi) RY(theta) |0>`` on every qubit, one node per qubit.

    Each level is built over the unit-weight edge to the level below, and
    the pivots the normalizer divides out are multiplied into one scale that
    is applied once, at the root.  Pushing the running root weight into the
    children instead would let it sink below ``tolerance`` (it is a product
    of per-qubit pivots, each as small as ``1/sqrt(2)``), and at a few
    hundred qubits the normalizer would then return the zero vector.
    """
    node = None
    scale = 1.0
    for qubit, (theta, phi) in enumerate(angles):
        low, high = map(complex, RZGate(phi).matrix @ RYGate(theta).matrix[:, 0])
        edge = package.make_vector_node(qubit, (VEdge(node, low), VEdge(node, high)))
        node = edge.node
        scale *= edge.weight
    return VEdge(node, scale)


def _gate_instructions(circuit: QuantumCircuit) -> list:
    """The gate instructions of a non-dynamic circuit (no barriers or read-out)."""
    return [inst for inst in circuit if not (inst.is_barrier or inst.is_measurement)]


def simulative_check_steps(
    first: QuantumCircuit,
    second: QuantumCircuit,
    *,
    backend: str = "dd",
    num_simulations: int = 16,
    stimuli_type: str = "product",
    tolerance: float = 1e-7,
    seed: int | None = None,
    gate_cache_size: int | None = None,
) -> Generator[int, None, tuple[bool, dict]]:
    """:func:`run_simulative_check` as a generator of cost-counted steps.

    On the DD backend a step is one matrix-vector multiplication, together
    with the gate DD it builds on first use and, at a stimulus's first
    gate, the stimulus and the previous stimulus's fidelity.  It yields
    ``1 + nodes created`` (the growth of :attr:`DDPackage.nodes_created`
    since the previous step), so a schedule driven by it is deterministic
    and charges a growing state vector for its size.  The dense backend
    yields ``G1 + G2`` (the gate counts of both circuits) after every
    stimulus that leaves stimuli to run, twice that after the first.  A
    mismatch or the last stimulus returns ``(no_counterexample_found,
    details)``.  Validation errors surface on the first step.
    """
    if first.num_qubits != second.num_qubits:
        raise EquivalenceCheckingError(
            f"circuits act on different numbers of qubits "
            f"({first.num_qubits} vs {second.num_qubits})"
        )
    if first.is_dynamic or second.is_dynamic:
        raise EquivalenceCheckingError(
            "the simulative check requires unitary circuits; transform dynamic circuits first"
        )
    if stimuli_type not in ("basis", "product"):
        raise EquivalenceCheckingError(f"unknown stimuli type {stimuli_type!r}")
    if backend not in ("dd", "dense"):
        raise EquivalenceCheckingError(f"unknown backend {backend!r}")
    from repro.core.checkers.base import dd_work  # the checkers import this module

    rng = random.Random(seed)
    num_qubits = first.num_qubits
    min_fidelity = 1.0
    details: dict = {"num_simulations": num_simulations, "stimuli_type": stimuli_type}
    instructions = (_gate_instructions(first), _gate_instructions(second))
    if backend == "dd":
        package = DDPackage(num_qubits, gate_cache_size=gate_cache_size)
        build = dd_circuits.instruction_to_dd
        multiply = package.multiply_matrix_vector
        gates: tuple[list, list] = ([], [])  # built on first use
        work = dd_work(package)
    else:
        step_cost = len(instructions[0]) + len(instructions[1])
        first = first.remove_final_measurements()
        second = second.remove_final_measurements()

    for run in range(num_simulations):
        if backend == "dense" and run:
            yield step_cost if run > 1 else 2 * step_cost
        if stimuli_type == "basis":
            stimulus = _random_basis_stimulus(num_qubits, rng)
        if backend == "dd":
            if stimuli_type == "basis":
                start = package.basis_state(int(stimulus, 2))
            else:
                start = _product_state_dd(package, _random_product_angles(num_qubits, rng))
            states = []
            for side, built in zip(instructions, gates):
                state = start
                for index, instruction in enumerate(side):
                    if index == len(built):
                        built.append(build(package, instruction))
                    state = multiply(built[index], state)
                    yield work()
                states.append(state)
            fidelity = package.fidelity(*states)
        else:
            if stimuli_type == "basis":
                circuit_one, circuit_two, initial = first, second, stimulus
            else:
                preparation = _random_product_circuit(num_qubits, rng)
                circuit_one = preparation.compose(first)
                circuit_two = preparation.compose(second)
                initial = None
            state_one = StatevectorSimulator().run(circuit_one, initial)
            state_two = StatevectorSimulator().run(circuit_two, initial)
            fidelity = state_one.fidelity(state_two)

        min_fidelity = min(min_fidelity, fidelity)
        if fidelity < 1.0 - tolerance:
            details["min_fidelity"] = min_fidelity
            details["failed_run"] = run
            if stimuli_type == "basis":
                details["counterexample"] = stimulus
            return False, details

    details["min_fidelity"] = min_fidelity
    return True, details


def run_simulative_check(
    first: QuantumCircuit, second: QuantumCircuit, **options
) -> tuple[bool, dict]:
    """Compare two unitary circuits on random stimuli.

    Returns ``(no_counterexample_found, details)``; ``details`` records the
    minimum fidelity observed and, for a failing run, the offending stimulus.
    ``options`` are the keyword arguments of :func:`simulative_check_steps`.
    """
    return drain(simulative_check_steps(first, second, **options))
