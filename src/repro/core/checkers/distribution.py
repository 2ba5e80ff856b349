"""The distribution (Scheme-2) equivalence checker.

Compares the complete measurement-outcome distributions of the two circuits
for the all-zero input state via branching classical simulation
(:func:`~repro.core.extraction.extract_distribution`).  This is the only
checker that handles dynamic primitives *natively* — including the
classically-conditioned resets Scheme 1 cannot reconstruct into a unitary
circuit (a reset conditioned on its own qubit's measurement) — so the
adaptive scheduler routes such pairs here.

Like the simulative check it is behavioural, not functional: equal
distributions yield ``PROBABLY_EQUIVALENT``; a distribution mismatch is a
definitive ``NOT_EQUIVALENT`` (unitarily equivalent circuits can never
disagree behaviourally).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING, ClassVar

from repro.core.checkers.base import Checker, CheckerOutcome, register
from repro.core.distributions import classical_fidelity, total_variation_distance
from repro.core.extraction import extract_distribution
from repro.core.results import EquivalenceCriterion
from repro.exceptions import EquivalenceCheckingError

if TYPE_CHECKING:  # pragma: no cover
    from repro.circuit.circuit import QuantumCircuit
    from repro.core.configuration import Configuration

__all__ = ["DistributionChecker"]


class DistributionChecker(Checker):
    """Compare measurement-outcome distributions (Scheme 2 of the paper)."""

    name: ClassVar[str] = "distribution"
    role: ClassVar[str] = "falsifier"
    scheme_two: ClassVar[bool] = True

    def check(
        self,
        first: "QuantumCircuit",
        second: "QuantumCircuit",
        configuration: "Configuration",
        *,
        interrupt: Callable[[], bool] | None = None,
    ) -> CheckerOutcome:
        if first.num_clbits != second.num_clbits:
            raise EquivalenceCheckingError(
                "the distribution checker compares measurement outcomes; the "
                f"circuits measure different numbers of classical bits "
                f"({first.num_clbits} vs {second.num_clbits})"
            )
        if first.num_clbits == 0:
            raise EquivalenceCheckingError(
                "the distribution checker needs measured classical bits; "
                "neither circuit measures anything"
            )
        backend = "dd" if configuration.backend == "dd" else "statevector"
        first_result = extract_distribution(
            first, None, backend=backend, interrupt=interrupt
        )
        second_result = extract_distribution(
            second, None, backend=backend, interrupt=interrupt
        )
        self.check_interrupt(interrupt)
        distance = total_variation_distance(
            first_result.distribution, second_result.distribution
        )
        fidelity = classical_fidelity(
            first_result.distribution, second_result.distribution
        )
        criterion = (
            EquivalenceCriterion.PROBABLY_EQUIVALENT
            if distance <= configuration.tolerance
            else EquivalenceCriterion.NOT_EQUIVALENT
        )
        details = {
            "total_variation_distance": distance,
            "classical_fidelity": fidelity,
            "num_paths_first": first_result.num_paths,
            "num_paths_second": second_result.num_paths,
            "time_extract_first": first_result.time_taken,
            "time_extract_second": second_result.time_taken,
        }
        return CheckerOutcome(criterion, details)


register(DistributionChecker)
