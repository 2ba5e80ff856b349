"""Simulative (random-stimuli) equivalence checking.

Instead of comparing the full system matrices, both circuits are simulated on
a number of randomly chosen input states and the fidelity of the resulting
states is compared.  A single mismatch proves non-equivalence; agreeing on all
stimuli yields the verdict ``PROBABLY_EQUIVALENT``.  This mirrors the
simulation-based checks of QCEC and complements the functional schemes for
circuits whose ``U * U'^dagger`` diagram would grow too large.

On the DD backend the per-check work runs once: both circuits are stripped to
their gate instructions and every gate DD is built (through
:func:`repro.dd.circuits.instruction_to_dd`) before the first stimulus.  Each
stimulus is then built directly as a vector DD — a basis state, or a product
state with one node per qubit — and both prebuilt gate lists are folded over
it with matrix-vector multiplications.  The dense backend simulates the
stimulus-prepending circuits instead.  On both backends one stimulus is one
step of :func:`simulative_check_steps`, the generator the portfolio manager
interleaves with the other checkers.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Generator

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gates import RYGate, RZGate
from repro.dd import circuits as dd_circuits
from repro.dd.nodes import V_ONE, VEdge
from repro.dd.package import DDPackage
from repro.exceptions import EquivalenceCheckingError
from repro.simulators.statevector import StatevectorSimulator

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
    """The product state ``RZ(phi) RY(theta) |0>`` on every qubit, one node per qubit."""
    edge = V_ONE
    for qubit, (theta, phi) in enumerate(angles):
        low, high = map(complex, RZGate(phi).matrix @ RYGate(theta).matrix[:, 0])
        weight = edge.weight
        edge = package.make_vector_node(
            qubit, (VEdge(edge.node, weight * low), VEdge(edge.node, weight * high))
        )
    return edge


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
    gate_cache: bool = True,
    gate_cache_size: int | None = None,
    gate_cache_ttl: float | None = None,
    dense_cutoff: int = 0,
) -> Generator[int, None, tuple[bool, dict]]:
    """:func:`run_simulative_check` as a generator of one step per stimulus.

    Yields ``G1 + G2`` (the gate counts of both circuits) after every
    stimulus that leaves stimuli to run; the first step, which also builds
    the gate DDs, yields twice that.  A mismatch or the last stimulus
    returns ``(no_counterexample_found, details)``.  Validation errors
    surface on the first step.
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
    rng = random.Random(seed)
    num_qubits = first.num_qubits
    min_fidelity = 1.0
    details: dict = {"num_simulations": num_simulations, "stimuli_type": stimuli_type}
    instructions_one = _gate_instructions(first)
    instructions_two = _gate_instructions(second)
    step_cost = len(instructions_one) + len(instructions_two)
    if backend == "dd":
        package = DDPackage(
            num_qubits,
            gate_cache=gate_cache,
            gate_cache_size=gate_cache_size,
            gate_cache_ttl=gate_cache_ttl,
            dense_cutoff=dense_cutoff,
        )
        build = dd_circuits.instruction_to_dd
        gates_one = [build(package, inst) for inst in instructions_one]
        gates_two = [build(package, inst) for inst in instructions_two]
        multiply = package.multiply_matrix_vector
    else:
        first = first.remove_final_measurements()
        second = second.remove_final_measurements()

    for run in range(num_simulations):
        if run:
            yield step_cost if run > 1 else 2 * step_cost
        if stimuli_type == "basis":
            stimulus = _random_basis_stimulus(num_qubits, rng)
        if backend == "dd":
            if stimuli_type == "basis":
                start = package.basis_state(int(stimulus, 2))
            else:
                start = _product_state_dd(package, _random_product_angles(num_qubits, rng))
            state_one = start
            for gate in gates_one:
                state_one = multiply(gate, state_one)
            state_two = start
            for gate in gates_two:
                state_two = multiply(gate, state_two)
            fidelity = package.fidelity(state_one, state_two)
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
    first: QuantumCircuit,
    second: QuantumCircuit,
    *,
    interrupt: "Callable[[], bool] | None" = None,
    **options,
) -> tuple[bool, dict]:
    """Compare two unitary circuits on random stimuli.

    Returns ``(no_counterexample_found, details)``; ``details`` records the
    minimum fidelity observed and, for a failing run, the offending stimulus.
    ``options`` are the keyword arguments of :func:`simulative_check_steps`.
    ``interrupt`` is an optional cancellation probe polled before every
    stimulus — a cancelled check raises
    :class:`~repro.core.checkers.base.CheckerInterrupted` instead of burning
    through the remaining stimuli.
    """
    from repro.core.checkers.base import Checker

    return Checker.drain(simulative_check_steps(first, second, **options), interrupt)
