"""Equivalence checking of quantum circuits.

The functional flow mirrors QCEC: it decides whether two circuits realize the
same unitary ``U =? U'`` by building ``E = U * U'^dagger`` — either in one go
(``construction``) or gate by gate from both sides (``alternating``), keeping
``E`` close to the identity for equivalent circuits — or by comparing the
circuits on random stimuli (``simulation``) or on their measurement-outcome
distributions (``distribution``).

The strategies themselves live as pluggable :class:`~repro.core.checkers.base.Checker`
classes in :mod:`repro.core.checkers` and are resolved by name through the
checker registry — this module only orchestrates one run: Scheme-1
transformation of dynamic circuits (skipped for Scheme-2 checkers, which
handle dynamic primitives natively), qubit permutation, dispatch, timing and
result wrapping.

Dynamic circuits (containing resets, mid-circuit measurements or
classically-controlled operations) are handled exactly as the paper proposes:

* :func:`check_equivalence` first applies Scheme 1
  (:func:`~repro.core.transformation.to_unitary_circuit`) so that the
  functional flow can be used unchanged, and
* :func:`check_behavioural_equivalence` applies Scheme 2
  (:func:`~repro.core.extraction.extract_distribution`) and compares the
  measurement-outcome distributions for a fixed input state.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Generator

from repro.circuit.circuit import QuantumCircuit
from repro.core import checkers as checker_registry
from repro.core.configuration import Configuration
from repro.core.distributions import classical_fidelity, total_variation_distance
from repro.core.extraction import extract_distribution
from repro.core.results import EquivalenceCheckResult, EquivalenceCriterion
from repro.core.transformation import permute_qubits, to_unitary_circuit
from repro.exceptions import EquivalenceCheckingError

__all__ = [
    "EquivalenceChecker",
    "check_behavioural_equivalence",
    "check_equivalence",
    "verify",
]


class EquivalenceChecker:
    """Configurable equivalence checker for static and dynamic circuits.

    Resolves the configured ``method`` through the checker registry
    (:mod:`repro.core.checkers`), so registered third-party checkers work
    here exactly like the built-in ones.
    """

    def __init__(self, configuration: Configuration | None = None, **overrides):
        configuration = configuration or Configuration()
        if overrides:
            configuration = configuration.updated(**overrides)
        self.configuration = configuration

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run(
        self,
        first: QuantumCircuit,
        second: QuantumCircuit,
        *,
        qubit_permutation: dict[int, int] | None = None,
        interrupt: Callable[[], bool] | None = None,
    ) -> EquivalenceCheckResult:
        """Check whether ``first`` and ``second`` realize the same unitary.

        ``qubit_permutation`` optionally relabels the qubits of ``second``
        before the comparison (``{old: new}``) — useful when a reconstructed
        dynamic circuit enumerates its fresh qubits in a different order than
        the static reference.  ``interrupt`` is a cancellation probe polled
        by the checker between expensive steps (see
        :class:`~repro.core.checkers.base.Checker`).
        """
        checker_cls, first_prepared, second_prepared, time_transformation = (
            self._prepare(first, second, qubit_permutation)
        )
        start = time.perf_counter()
        outcome = checker_cls().check(
            first_prepared, second_prepared, self.configuration, interrupt=interrupt
        )
        return self._result(
            checker_cls, outcome, time_transformation, time.perf_counter() - start
        )

    def steps(
        self,
        first: QuantumCircuit,
        second: QuantumCircuit,
        *,
        qubit_permutation: dict[int, int] | None = None,
        interrupt: Callable[[], bool] | None = None,
    ) -> Generator[int, None, EquivalenceCheckResult]:
        """:meth:`run` as a generator of the checker's cost-counted steps.

        Yields what :meth:`~repro.core.checkers.base.Checker.steps` yields
        and returns the wrapped result; ``time_check`` counts only the time
        spent inside the steps, not the time the caller held between them.
        Preparation (Scheme-1 transformation, permutation, validation) runs
        on the first step.
        """
        checker_cls, first_prepared, second_prepared, time_transformation = (
            self._prepare(first, second, qubit_permutation)
        )
        steps = checker_cls().steps(
            first_prepared, second_prepared, self.configuration, interrupt=interrupt
        )
        time_check = 0.0
        while True:
            start = time.perf_counter()
            try:
                cost = next(steps)
            except StopIteration as stop:
                time_check += time.perf_counter() - start
                return self._result(
                    checker_cls, stop.value, time_transformation, time_check
                )
            time_check += time.perf_counter() - start
            yield cost

    def _prepare(
        self,
        first: QuantumCircuit,
        second: QuantumCircuit,
        qubit_permutation: dict[int, int] | None,
    ) -> tuple[type, QuantumCircuit, QuantumCircuit, float]:
        """Resolve the checker and bring both circuits into its input form."""
        config = self.configuration
        checker_cls = checker_registry.resolve(config.method)
        time_transformation = 0.0

        first_prepared = first
        second_prepared = second
        if not checker_cls.scheme_two and (first.is_dynamic or second.is_dynamic):
            if not config.transform_dynamic:
                raise EquivalenceCheckingError(
                    "the circuits contain non-unitary operations and transform_dynamic "
                    "is disabled; enable it or use check_behavioural_equivalence"
                )
            if first.is_dynamic:
                transformation = to_unitary_circuit(first)
                first_prepared = transformation.circuit
                time_transformation += transformation.time_taken
            if second.is_dynamic:
                transformation = to_unitary_circuit(second)
                second_prepared = transformation.circuit
                time_transformation += transformation.time_taken

        if qubit_permutation is not None:
            second_prepared = permute_qubits(second_prepared, qubit_permutation)

        if not checker_cls.scheme_two and (
            first_prepared.num_qubits != second_prepared.num_qubits
        ):
            raise EquivalenceCheckingError(
                "after unitary reconstruction the circuits act on different numbers of "
                f"qubits ({first_prepared.num_qubits} vs {second_prepared.num_qubits}); "
                "they do not have the same primary inputs/outputs"
            )
        return checker_cls, first_prepared, second_prepared, time_transformation

    def _result(
        self, checker_cls, outcome, time_transformation: float, time_check: float
    ) -> EquivalenceCheckResult:
        config = self.configuration
        return EquivalenceCheckResult(
            criterion=outcome.criterion,
            method=config.method,
            backend=config.backend,
            strategy=config.strategy if checker_cls.uses_strategy else None,
            time_transformation=time_transformation,
            time_check=time_check,
            details=outcome.details,
        )


def check_equivalence(
    first: QuantumCircuit,
    second: QuantumCircuit,
    configuration: Configuration | None = None,
    *,
    qubit_permutation: dict[int, int] | None = None,
    **overrides,
) -> EquivalenceCheckResult:
    """Check whether two circuits are functionally equivalent.

    Dynamic circuits are transformed to unitary circuits first (Scheme 1 of
    the paper).  Keyword overrides are forwarded to
    :class:`~repro.core.configuration.Configuration`.

    Examples
    --------
    >>> from repro.circuit import QuantumCircuit
    >>> bell = QuantumCircuit(2); _ = bell.h(0); _ = bell.cx(0, 1)
    >>> same = QuantumCircuit(2); _ = same.h(0); _ = same.cx(0, 1)
    >>> check_equivalence(bell, same).equivalent
    True
    """
    checker = EquivalenceChecker(configuration, **overrides)
    return checker.run(first, second, qubit_permutation=qubit_permutation)


#: Short alias mirroring the naming of the QCEC command-line tool.
verify = check_equivalence


def check_behavioural_equivalence(
    first: QuantumCircuit,
    second: QuantumCircuit,
    initial_state: "str | int | None" = None,
    *,
    backend: str = "statevector",
    tolerance: float = 1e-7,
    prune_threshold: float = 1e-12,
) -> EquivalenceCheckResult:
    """Check whether two circuits produce the same outcome distribution.

    This is Scheme 2 of the paper: for the fixed ``initial_state`` the
    complete measurement-outcome distribution of each circuit is extracted via
    branching classical simulation and the two distributions are compared by
    total-variation distance.  Both circuits may freely contain dynamic
    primitives; they must measure the same number of classical bits.

    The portfolio counterpart is the registered ``distribution`` checker
    (:class:`~repro.core.checkers.distribution.DistributionChecker`); this
    function additionally exposes the initial state, extraction backend and
    pruning knobs.
    """
    if first.num_clbits != second.num_clbits:
        raise EquivalenceCheckingError(
            "the circuits measure different numbers of classical bits "
            f"({first.num_clbits} vs {second.num_clbits})"
        )
    start = time.perf_counter()
    first_result = extract_distribution(
        first, initial_state, backend=backend, prune_threshold=prune_threshold
    )
    second_result = extract_distribution(
        second, initial_state, backend=backend, prune_threshold=prune_threshold
    )
    distance = total_variation_distance(first_result.distribution, second_result.distribution)
    fidelity = classical_fidelity(first_result.distribution, second_result.distribution)
    time_check = time.perf_counter() - start

    criterion = (
        EquivalenceCriterion.PROBABLY_EQUIVALENT
        if distance <= tolerance
        else EquivalenceCriterion.NOT_EQUIVALENT
    )
    details = {
        "total_variation_distance": distance,
        "classical_fidelity": fidelity,
        "distribution_first": first_result.distribution,
        "distribution_second": second_result.distribution,
        "num_paths_first": first_result.num_paths,
        "num_paths_second": second_result.num_paths,
        "time_extract_first": first_result.time_taken,
        "time_extract_second": second_result.time_taken,
    }
    return EquivalenceCheckResult(
        criterion=criterion,
        method="distribution",
        backend=backend,
        time_transformation=0.0,
        time_check=time_check,
        details=details,
    )
