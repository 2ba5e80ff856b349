"""Portfolio scheduling: turn the configured portfolio into a per-pair lineup.

:func:`build_schedule` produces a :class:`Schedule` — an ordered lineup of
registered checker names — whose checkers the
:class:`~repro.core.manager.EquivalenceCheckingManager` then interleaves step
by step until the first definitive verdict.  The lineup order only breaks
ties between equal accumulated costs (and starts the first checker first),
so it decides *who moves first*, not who waits for whom to finish.

``Configuration.scheduler`` selects one of
:data:`~repro.core.configuration.SCHEDULERS`:

* ``static`` — the configured portfolio, in configured order.
* ``adaptive`` — one rule from the pair's features
  (:mod:`repro.core.features`).  A pair that Scheme 1 cannot reconstruct (a
  reset conditioned on its own qubit's measurement, a measured qubit used
  again without a reset) leads with its Scheme-2 checkers, and gets
  ``distribution`` appended when it has none and the pair's outcome
  distributions are comparable.  Every other pair runs its provers first,
  then its falsifiers, each group in configured order: since Scheme 1
  reconstructs the pair, a prover cancels the matched gates of an
  equivalent pair at no cost and decides inside its first turn, so the
  falsifier never starts.

Both schedulers only reorder the configured lineup (adaptive appends a
Scheme-2 checker only when every Scheme-1 path is doomed), so on any pair the
static scheduler can decide at all, both reach the same criterion when no
budget is set.  Budgets bound a checker's own active time
(``Configuration.checker_timeout``) and the run's wall time
(``Configuration.timeout``); either makes outcomes time-dependent.

Schedules and their feature payloads are plain frozen dataclasses, picklable
by design: the process-pool batch path computes scheduling decisions once in
the parent and ships them inside the work units.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from dataclasses import replace as dataclass_replace
from typing import TYPE_CHECKING

from repro.core.checkers import base as checker_registry
from repro.core.features import PairFeatures, extract_pair_features

if TYPE_CHECKING:  # pragma: no cover - type-only
    from repro.circuit.circuit import QuantumCircuit

__all__ = ["Schedule", "build_schedule", "deprioritize"]


@dataclass(frozen=True)
class Schedule:
    """An ordered checker lineup for one circuit pair.

    Plain picklable data: the process-pool batch path computes schedules in
    the parent and ships them to the workers inside the work units.
    """

    checkers: tuple[str, ...]
    scheduler: str
    rationale: str
    features: PairFeatures | None = None


def build_schedule(
    scheduler: str,
    portfolio: Sequence[str],
    first: "QuantumCircuit",
    second: "QuantumCircuit",
) -> Schedule:
    """The ``scheduler``'s lineup of ``portfolio`` for one pair."""
    if scheduler == "static":
        return Schedule(tuple(portfolio), scheduler, "configured portfolio order")
    features = extract_pair_features(first, second)
    checker = checker_registry.resolve
    if features.needs_scheme_two:
        scheme_two = [name for name in portfolio if checker(name).scheme_two]
        scheme_one = [name for name in portfolio if name not in scheme_two]
        if not scheme_two and features.comparable_distributions:
            scheme_two = ["distribution"]
        return Schedule(
            tuple(scheme_two + scheme_one),
            scheduler,
            "Scheme-1 reconstruction fails on this pair; scheme-2 checkers routed first",
            features,
        )
    provers = [name for name in portfolio if checker(name).role == "prover"]
    falsifiers = [name for name in portfolio if name not in provers]
    return Schedule(
        tuple(provers + falsifiers),
        scheduler,
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
