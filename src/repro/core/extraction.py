"""Scheme 2: extracting the measurement-outcome distribution by simulation
(Section 5).

A dynamic circuit cannot be simulated deterministically in one go — each
measurement or reset is a non-unitary branching point.  The extraction scheme
simulates the circuit *once per branch*: at every mid-circuit measurement the
probabilities of the measured qubit are check-pointed and the simulation
splits into a |0>-successor and a |1>-successor; resets and
classically-controlled operations after the split become deterministic.  The
probability of a classical outcome is the product of the check-pointed
probabilities along its path (Fig. 4 of the paper).

Two properties keep this tractable in practice:

* branches whose check-pointed probability is (numerically) zero are pruned
  immediately, and
* the simulation prefix up to the k-th checkpoint is shared by all of its
  descendants — each instruction is applied once per *live* branch, never once
  per leaf.

Both the dense statevector backend and the decision-diagram backend can drive
the scheme; the DD backend is what makes the large sparse benchmark instances
(Bernstein-Vazirani, QPE) feasible.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.circuit.circuit import QuantumCircuit
from repro.exceptions import ExtractionError
from repro.simulators.dd_simulator import DDState
from repro.simulators.statevector import Statevector
from repro.utils.bits import format_bitstring

__all__ = ["ExtractionResult", "extract_distribution"]

_BACKENDS = ("statevector", "dd")


@dataclass
class ExtractionResult:
    """Outcome of :func:`extract_distribution`.

    Attributes
    ----------
    distribution:
        Maps most-significant-first classical bitstrings to probabilities.
    num_paths:
        Number of simulation paths that reached the end of the circuit (the
        ``2**m`` worst case of the paper, usually far fewer thanks to pruning).
    num_pruned:
        Number of branches discarded because their probability fell below the
        pruning threshold.
    num_branch_points:
        Number of measurement/reset branching points encountered.
    backend:
        ``statevector`` or ``dd``.
    time_taken:
        Wall-clock seconds (``t_extract`` in Table 1).
    """

    distribution: dict[str, float] = field(default_factory=dict)
    num_paths: int = 0
    num_pruned: int = 0
    num_branch_points: int = 0
    backend: str = "statevector"
    time_taken: float = 0.0

    def probability(self, bitstring: str) -> float:
        """Probability of one outcome (0.0 when absent)."""
        return self.distribution.get(bitstring, 0.0)

    def total_probability(self) -> float:
        """Sum of all extracted probabilities (should be ~1)."""
        return sum(self.distribution.values())


@dataclass
class _Branch:
    """One live simulation branch."""

    state: "Statevector | DDState"
    classical: list[int]
    probability: float


def _initial_state(
    backend: str, num_qubits: int, initial_state: "str | int | None"
) -> "Statevector | DDState":
    if backend == "statevector":
        if initial_state is None:
            return Statevector.zero_state(num_qubits)
        if isinstance(initial_state, str):
            return Statevector.from_bitstring(initial_state)
        return Statevector.basis_state(num_qubits, int(initial_state))
    if initial_state is None:
        return DDState.zero_state(num_qubits)
    if isinstance(initial_state, str):
        return DDState.from_bitstring(initial_state)
    return DDState.basis_state(num_qubits, int(initial_state))


def extract_distribution(
    circuit: QuantumCircuit,
    initial_state: "str | int | None" = None,
    *,
    backend: str = "statevector",
    prune_threshold: float = 1e-12,
    max_paths: int | None = None,
    interrupt: "Callable[[], bool] | None" = None,
) -> ExtractionResult:
    """Extract the complete measurement-outcome distribution of ``circuit``.

    Parameters
    ----------
    circuit:
        A static or dynamic circuit; its classical bits define the outcome
        bitstrings.
    initial_state:
        Fixed input state — ``None`` for |0...0>, an integer basis state, or a
        most-significant-first bitstring (e.g. ``"0001"`` for the IQPE running
        example whose eigenstate qubit is prepared in |1> by the circuit
        itself, so usually ``None`` suffices).
    backend:
        ``statevector`` (dense numpy) or ``dd`` (decision diagrams).
    prune_threshold:
        Branches whose accumulated probability drops below this value are
        discarded (the paper's "probability of zero" pruning, made robust
        against floating-point noise).
    max_paths:
        Optional safety limit on the number of live branches; exceeded limits
        raise :class:`~repro.exceptions.ExtractionError`.
    interrupt:
        Optional cancellation probe polled between instructions (see
        :class:`repro.core.checkers.base.Checker`); when it fires the
        extraction raises ``CheckerInterrupted`` instead of running past the
        checker's budget.

    Returns
    -------
    ExtractionResult
        The exact outcome distribution plus bookkeeping about the extraction.
    """
    if backend not in _BACKENDS:
        raise ExtractionError(f"unknown backend {backend!r}; choose from {_BACKENDS}")
    if circuit.num_clbits == 0:
        raise ExtractionError(
            "the circuit has no classical bits; there is no measurement-outcome "
            "distribution to extract"
        )

    start = time.perf_counter()
    branches = [
        _Branch(
            state=_initial_state(backend, circuit.num_qubits, initial_state),
            classical=[0] * circuit.num_clbits,
            probability=1.0,
        )
    ]
    num_pruned = 0
    num_branch_points = 0

    for instruction in circuit:
        if interrupt is not None and interrupt():
            from repro.core.checkers.base import CheckerInterrupted

            raise CheckerInterrupted
        if instruction.is_barrier:
            continue

        if instruction.is_measurement:
            num_branch_points += 1
            qubit = instruction.qubits[0]
            clbit = instruction.clbits[0]
            new_branches: list[_Branch] = []
            for branch in branches:
                probability_one = branch.state.probability_of_one(qubit)
                for outcome, outcome_probability in ((0, 1.0 - probability_one), (1, probability_one)):
                    path_probability = branch.probability * outcome_probability
                    if path_probability <= prune_threshold:
                        num_pruned += 1
                        continue
                    collapsed = branch.state.collapse(qubit, outcome, outcome_probability)
                    classical = list(branch.classical)
                    classical[clbit] = outcome
                    new_branches.append(_Branch(collapsed, classical, path_probability))
            branches = new_branches
        elif instruction.is_reset:
            num_branch_points += 1
            qubit = instruction.qubits[0]
            new_branches = []
            for branch in branches:
                # Each branch carries concrete classical values, so a
                # classically-conditioned reset simply applies per branch.
                if instruction.condition is not None and not instruction.condition.is_satisfied(
                    branch.classical
                ):
                    new_branches.append(branch)
                    continue
                for outcome_probability, reset_state in branch.state.reset_qubit_outcomes(qubit):
                    path_probability = branch.probability * outcome_probability
                    if path_probability <= prune_threshold:
                        num_pruned += 1
                        continue
                    new_branches.append(
                        _Branch(reset_state, list(branch.classical), path_probability)
                    )
            branches = new_branches
        else:
            for branch in branches:
                if instruction.condition is not None and not instruction.condition.is_satisfied(
                    branch.classical
                ):
                    continue
                if instruction.condition is not None:
                    unconditioned = instruction.replace(drop_condition=True)
                    branch.state = branch.state.apply_instruction(unconditioned)
                else:
                    branch.state = branch.state.apply_instruction(instruction)

        if max_paths is not None and len(branches) > max_paths:
            raise ExtractionError(
                f"extraction exceeded the configured limit of {max_paths} simulation paths"
            )
        if not branches:
            raise ExtractionError(
                "all simulation branches were pruned; the pruning threshold is too aggressive"
            )

    distribution: dict[str, float] = {}
    for branch in branches:
        key = format_bitstring(branch.classical)
        distribution[key] = distribution.get(key, 0.0) + branch.probability

    return ExtractionResult(
        distribution=distribution,
        num_paths=len(branches),
        num_pruned=num_pruned,
        num_branch_points=num_branch_points,
        backend=backend,
        time_taken=time.perf_counter() - start,
    )
