"""Portfolio scheduling: turn the configured portfolio into a per-pair lineup.

:func:`build_schedule` produces a :class:`Schedule` — an ordered lineup of
registered checker names — whose checkers the
:class:`~repro.core.manager.EquivalenceCheckingManager` then interleaves step
by step until the first definitive verdict.  The lineup order only breaks
ties between equal accumulated costs (and starts the first checker first),
so it decides *who moves first*, not who waits for whom to finish.

Every manager uses the same rule, the paper's: Scheme 1 applies exactly when
:func:`~repro.core.transformation.to_unitary_circuit` rebuilds every dynamic
circuit of the pair (:func:`extract_pair_features`).  A pair it cannot
rebuild leads with its Scheme-2 checkers, plus ``distribution`` when it has
none and the outcome distributions are comparable.  Every other pair runs
its provers, then its falsifiers, each group in configured order: a prover
cancels the matched gates of an equivalent rebuilt pair at no cost and
decides inside its first turn, so the falsifier never starts.

The rule only reorders the lineup (it appends a Scheme-2 checker only when
every Scheme-1 path is doomed), so without budgets
(``Configuration.checker_timeout``, ``Configuration.timeout``) every pair a
lineup in configured order decides gets the same criterion.

Schedules are picklable frozen dataclasses: the process-pool batch path
computes them in the parent and ships them inside the work units.  A rebuilt
circuit travels with its source (:meth:`CircuitFeatures.reconstruction_of`),
so the manager transforms each dynamic circuit once per run.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from dataclasses import replace as dataclass_replace

from repro.circuit.circuit import QuantumCircuit
from repro.core import transformation
from repro.core.checkers import base as checker_registry
from repro.exceptions import TransformationError

__all__ = [
    "CircuitFeatures",
    "PairFeatures",
    "Schedule",
    "build_schedule",
    "deprioritize",
    "extract_features",
    "extract_pair_features",
]


@dataclass(frozen=True)
class CircuitFeatures:
    """What the scheduler knows of one circuit.

    ``needs_scheme_two`` is whether Scheme-1 reconstruction raised on the
    dynamic circuit.  What the reconstruction gave is kept with the circuit
    it was made from (``source``): the rebuilt circuit (``reconstruction``)
    or the :class:`~repro.exceptions.TransformationError` it raised
    (``error``), so the manager tries Scheme 1 once per circuit.
    Comparisons, ``repr`` and :meth:`to_dict` leave them out.
    """

    is_dynamic: bool
    needs_scheme_two: bool
    source: QuantumCircuit | None = field(default=None, compare=False, repr=False)
    reconstruction: QuantumCircuit | None = field(default=None, compare=False, repr=False)
    error: TransformationError | None = field(default=None, compare=False, repr=False)

    def reconstruction_of(self, circuit: QuantumCircuit) -> QuantumCircuit | None:
        """The Scheme-1 reconstruction made here if it was made from ``circuit``.

        Raises the reconstruction's :class:`~repro.exceptions.TransformationError`
        again when it failed on ``circuit``.
        """
        if circuit is not self.source:
            return None
        if self.error is not None:
            raise self.error
        return self.reconstruction

    def to_dict(self) -> dict:
        return {"is_dynamic": self.is_dynamic, "needs_scheme_two": self.needs_scheme_two}


def extract_features(circuit: QuantumCircuit) -> CircuitFeatures:
    """Try Scheme 1 on ``circuit`` if it is dynamic."""
    if not circuit.is_dynamic:
        return CircuitFeatures(is_dynamic=False, needs_scheme_two=False)
    try:
        reconstruction = transformation.to_unitary_circuit(circuit).circuit
    except TransformationError as error:
        return CircuitFeatures(True, True, source=circuit, error=error)
    return CircuitFeatures(True, False, source=circuit, reconstruction=reconstruction)


@dataclass(frozen=True)
class PairFeatures:
    """The scheduler's input for one circuit pair.

    ``comparable_distributions`` is whether the Scheme-2 distribution
    checker can run on the pair: both circuits measure, into the same
    non-zero number of classical bits.
    """

    first: CircuitFeatures
    second: CircuitFeatures
    comparable_distributions: bool

    @property
    def any_dynamic(self) -> bool:
        return self.first.is_dynamic or self.second.is_dynamic

    @property
    def needs_scheme_two(self) -> bool:
        return self.first.needs_scheme_two or self.second.needs_scheme_two

    def to_dict(self) -> dict:
        return {
            "first": self.first.to_dict(),
            "second": self.second.to_dict(),
            "any_dynamic": self.any_dynamic,
            "needs_scheme_two": self.needs_scheme_two,
            "comparable_distributions": self.comparable_distributions,
        }


def extract_pair_features(first: QuantumCircuit, second: QuantumCircuit) -> PairFeatures:
    """The :class:`PairFeatures` of one pair (Scheme 1 tried on each dynamic circuit)."""
    return PairFeatures(
        first=extract_features(first),
        second=extract_features(second),
        comparable_distributions=(
            first.num_clbits == second.num_clbits
            and first.num_clbits > 0
            and first.num_measurements > 0
            and second.num_measurements > 0
        ),
    )


@dataclass(frozen=True)
class Schedule:
    """An ordered checker lineup for one circuit pair (plain picklable data)."""

    checkers: tuple[str, ...]
    rationale: str
    features: PairFeatures | None = None


def build_schedule(
    portfolio: Sequence[str], first: QuantumCircuit, second: QuantumCircuit
) -> Schedule:
    """The lineup of ``portfolio`` for one pair (see the module docstring)."""
    features = extract_pair_features(first, second)
    checker = checker_registry.resolve
    if features.needs_scheme_two:
        scheme_two = [name for name in portfolio if checker(name).scheme_two]
        scheme_one = [name for name in portfolio if name not in scheme_two]
        if not scheme_two and features.comparable_distributions:
            scheme_two = ["distribution"]
        return Schedule(
            tuple(scheme_two + scheme_one),
            "Scheme-1 reconstruction fails on this pair; scheme-2 checkers routed first",
            features,
        )
    provers = [name for name in portfolio if checker(name).role == "prover"]
    falsifiers = [name for name in portfolio if name not in provers]
    return Schedule(
        tuple(provers + falsifiers),
        "Scheme 1 applies: provers first, then falsifiers",
        features,
    )


def deprioritize(schedule: Schedule, names: Iterable[str]) -> Schedule:
    """Stably move the named checkers to the end of a schedule's lineup.

    Used by the manager's circuit breakers
    (:mod:`repro.resilience.breaker`): quarantined checkers are *moved*, not
    dropped, so a breaker that transitions to half-open by the time the
    lineup reaches them can still admit a probe run — and when every healthy
    checker fails to decide, the quarantined ones remain the lineup's last
    resort rather than silently vanishing from the recorded schedule.
    """
    blocked = set(names)
    if not blocked.intersection(schedule.checkers):
        return schedule
    healthy = tuple(name for name in schedule.checkers if name not in blocked)
    quarantined = tuple(name for name in schedule.checkers if name in blocked)
    return dataclass_replace(
        schedule,
        checkers=healthy + quarantined,
        rationale=(
            f"{schedule.rationale}; quarantined checkers moved last: "
            f"{', '.join(quarantined)}"
        ),
    )
