"""The distribution (Scheme-2) equivalence checker.

Compares the complete measurement-outcome distributions of the two circuits
for the all-zero input state via branching classical simulation
(:func:`~repro.core.extraction.extraction_steps`).  This is the only
checker that handles dynamic primitives *natively* — including the
classically-conditioned resets Scheme 1 cannot reconstruct into a unitary
circuit (a reset conditioned on its own qubit's measurement) — so the
scheduler routes such pairs here.

Like the simulative check it is behavioural, not functional: equal
distributions yield ``PROBABLY_EQUIVALENT``; a distribution mismatch is a
definitive ``NOT_EQUIVALENT`` (unitarily equivalent circuits can never
disagree behaviourally).  :func:`compare_distributions` is the comparison
itself, shared with
:func:`~repro.core.equivalence.check_behavioural_equivalence`.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import TYPE_CHECKING, ClassVar

from repro.core.checkers.base import Checker, CheckerOutcome, register
from repro.core.distributions import classical_fidelity, total_variation_distance
from repro.core.extraction import extraction_steps
from repro.core.results import EquivalenceCriterion
from repro.exceptions import EquivalenceCheckingError
from repro.utils.steps import drain

if TYPE_CHECKING:  # pragma: no cover
    from repro.circuit.circuit import QuantumCircuit
    from repro.core.configuration import Configuration

__all__ = ["DistributionChecker", "compare_distributions", "compare_distributions_steps"]


def compare_distributions(
    first: "QuantumCircuit",
    second: "QuantumCircuit",
    initial_state: "str | int | None" = None,
    **options,
) -> tuple[EquivalenceCriterion, dict, tuple[dict, dict]]:
    """Scheme 2 on one input state: extract and compare both outcome distributions.

    Returns the criterion (``PROBABLY_EQUIVALENT`` when the total-variation
    distance is within ``tolerance``, else ``NOT_EQUIVALENT``), the details
    both Scheme-2 entry points report, and the two distributions.
    ``options`` are the keyword arguments of
    :func:`compare_distributions_steps`: ``backend``, ``tolerance`` and
    ``prune_threshold``.
    """
    return drain(compare_distributions_steps(first, second, initial_state, **options))


def compare_distributions_steps(
    first: "QuantumCircuit",
    second: "QuantumCircuit",
    initial_state: "str | int | None" = None,
    *,
    backend: str,
    tolerance: float,
    prune_threshold: float = 1e-12,
) -> Generator[int, None, tuple[EquivalenceCriterion, dict, tuple[dict, dict]]]:
    """:func:`compare_distributions` as a generator of steps.

    The steps are those of :func:`~repro.core.extraction.extraction_steps`
    on ``first`` and then on ``second``; the last one compares.
    """
    if first.num_clbits != second.num_clbits:
        raise EquivalenceCheckingError(
            "the circuits measure different numbers of classical bits "
            f"({first.num_clbits} vs {second.num_clbits})"
        )
    first_result = yield from extraction_steps(
        first, initial_state, backend=backend, prune_threshold=prune_threshold
    )
    second_result = yield from extraction_steps(
        second, initial_state, backend=backend, prune_threshold=prune_threshold
    )
    distributions = (first_result.distribution, second_result.distribution)
    distance = total_variation_distance(*distributions)
    criterion = (
        EquivalenceCriterion.PROBABLY_EQUIVALENT
        if distance <= tolerance
        else EquivalenceCriterion.NOT_EQUIVALENT
    )
    details = {
        "total_variation_distance": distance,
        "classical_fidelity": classical_fidelity(*distributions),
        "num_paths_first": first_result.num_paths,
        "num_paths_second": second_result.num_paths,
        "time_extract_first": first_result.time_taken,
        "time_extract_second": second_result.time_taken,
    }
    return criterion, details, distributions


class DistributionChecker(Checker):
    """Compare measurement-outcome distributions (Scheme 2 of the paper)."""

    name: ClassVar[str] = "distribution"
    role: ClassVar[str] = "falsifier"
    scheme_two: ClassVar[bool] = True

    def steps(
        self,
        first: "QuantumCircuit",
        second: "QuantumCircuit",
        configuration: "Configuration",
    ) -> Generator[int, None, CheckerOutcome]:
        """One step per instruction of ``first`` and then of ``second``.

        A step applies the instruction to every live branch; it costs ``1 +``
        the nodes it created on the DD backend and the number of live
        branches on the dense one.  The last step compares the distributions.
        """
        if first.num_clbits == second.num_clbits == 0:
            raise EquivalenceCheckingError(
                "the distribution checker needs measured classical bits; "
                "neither circuit measures anything"
            )
        criterion, details, _ = yield from compare_distributions_steps(
            first,
            second,
            backend="dd" if configuration.backend == "dd" else "statevector",
            tolerance=configuration.tolerance,
        )
        return CheckerOutcome(criterion, details)


register(DistributionChecker)
