"""Portfolio scheduling: map circuit-pair features to a checker lineup.

The paper's core insight is that no single strategy wins everywhere —
simulation falsifies fast, the alternating scheme proves equivalence, and
dynamic primitives force scheme-specific handling.  A
:class:`PortfolioScheduler` turns that insight into a per-pair decision: it
inspects the pair (via :mod:`repro.core.features`) and produces a
:class:`Schedule` — an ordered lineup of registered checkers with optional
per-checker budget splits — whose checkers the
:class:`~repro.core.manager.EquivalenceCheckingManager` then interleaves step
by step until the first definitive verdict.  The lineup order only breaks
ties between equal accumulated costs (and starts the first checker first),
so it decides *who moves first*, not who waits for whom to finish.

Two schedulers ship by default, selected by ``Configuration.scheduler``:

* ``static`` — the configured portfolio, in configured order, uniform
  budgets.  Exactly the pre-scheduler behaviour.
* ``adaptive`` — feature-driven: routes pairs with a conditioned reset
  that Scheme 1 cannot reconstruct to the Scheme-2 ``distribution`` checker,
  front-loads the provers on near-identical builds (the falsifier cannot
  refute a clone, and early termination then skips it entirely), and
  front-loads the falsifier with a bounded budget share on dissimilar pairs.

The adaptive scheduler only *reorders* the configured lineup (and appends a
Scheme-2 checker only when every Scheme-1 path is provably doomed), so on any
pair the static scheduler can decide at all, both schedulers reach the same
criterion — adaptive changes *when*, never *what*.

Budgets are bounds on a checker's own *active* time — the sum of its turns
in the interleaved loop, not the wall time since it started — and the
overall ``Configuration.timeout`` bounds the run's wall time.  Both are
checked between steps, so a checker overruns either by at most one of its
steps; single-step checkers are stopped mid-step through their
``interrupt`` probe instead.  Per-checker budget splits only exist under an
overall timeout, and any budget (static or adaptive) makes outcomes
time-dependent — a falsifier capped at its budget share may miss a
counterexample it would have found with the whole deadline.  The
verdict-identity guarantee is therefore stated (and agreement-tested) for
runs without budgets.

Schedules and their feature payloads are plain frozen dataclasses, picklable
by design: the process-pool batch path computes scheduling decisions once in
the parent and ships them inside the work units.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable
from dataclasses import dataclass, field
from dataclasses import replace as dataclass_replace
from typing import TYPE_CHECKING, ClassVar

from repro.core.checkers import base as checker_registry
from repro.core.features import PairFeatures, extract_pair_features
from repro.exceptions import EquivalenceCheckingError

if TYPE_CHECKING:  # pragma: no cover - type-only (configuration validates
    # scheduler names against this registry, so no runtime import back)
    from repro.circuit.circuit import QuantumCircuit
    from repro.core.configuration import Configuration

__all__ = [
    "AdaptiveScheduler",
    "PortfolioScheduler",
    "Schedule",
    "ScheduledChecker",
    "StaticScheduler",
    "available_schedulers",
    "deprioritize",
    "register_scheduler",
    "resolve_scheduler",
]

#: Structural similarity above which a pair counts as near-identical builds.
CLONE_SIMILARITY = 0.98

#: Structural similarity below which a pair counts as dissimilar enough to
#: front-load the falsifier.
DISSIMILARITY = 0.5

#: Budget share handed to a front-loaded falsifier when an overall timeout is
#: set: falsification is cheap, so the provers keep the lion's share.
FALSIFIER_BUDGET_FRACTION = 0.25


@dataclass(frozen=True)
class ScheduledChecker:
    """One slot of a schedule: a registered checker name plus budget hints.

    ``budget_fraction`` is the share of ``Configuration.timeout`` this
    checker's active time may consume (``None`` leaves only
    ``checker_timeout`` and the overall deadline in force, the static
    behaviour).
    """

    name: str
    budget_fraction: float | None = None

    def budget(self, configuration: "Configuration") -> float | None:
        """Per-checker active-time budget in seconds (``None`` = unbounded)."""
        budget = configuration.checker_timeout
        if self.budget_fraction is not None and configuration.timeout is not None:
            share = self.budget_fraction * configuration.timeout
            budget = share if budget is None else min(budget, share)
        return budget


@dataclass(frozen=True)
class Schedule:
    """An ordered checker lineup for one circuit pair.

    Plain picklable data: the process-pool batch path computes schedules in
    the parent and ships them to the workers inside the work units.
    """

    checkers: tuple[ScheduledChecker, ...]
    scheduler: str
    rationale: str
    features: PairFeatures | None = None

    @property
    def checker_names(self) -> tuple[str, ...]:
        return tuple(slot.name for slot in self.checkers)

    def to_json(self) -> dict:
        """JSON-ready view of the decision (trace attrs, telemetry records)."""
        return {
            "scheduler": self.scheduler,
            "rationale": self.rationale,
            "checkers": [
                {"name": slot.name, "budget_fraction": slot.budget_fraction}
                for slot in self.checkers
            ],
            "features": self.features.to_dict() if self.features is not None else None,
        }


class PortfolioScheduler(ABC):
    """Strategy object deciding checker order and budgets per circuit pair."""

    name: ClassVar[str]

    @abstractmethod
    def build(
        self,
        first: "QuantumCircuit",
        second: "QuantumCircuit",
        configuration: "Configuration",
    ) -> Schedule:
        """Produce the schedule for one pair under ``configuration``."""

    def _portfolio(self, configuration: "Configuration") -> tuple[str, ...]:
        if configuration.portfolio is not None:
            return configuration.portfolio
        from repro.core.manager import DEFAULT_PORTFOLIO

        return DEFAULT_PORTFOLIO


class StaticScheduler(PortfolioScheduler):
    """The configured portfolio, in configured order, uniform budgets."""

    name: ClassVar[str] = "static"

    def build(
        self,
        first: "QuantumCircuit",
        second: "QuantumCircuit",
        configuration: "Configuration",
    ) -> Schedule:
        return Schedule(
            checkers=tuple(
                ScheduledChecker(name) for name in self._portfolio(configuration)
            ),
            scheduler=self.name,
            rationale="configured portfolio order",
        )


class AdaptiveScheduler(PortfolioScheduler):
    """Feature-driven lineup: reorder the portfolio, budget the falsifier.

    Decision rules, in priority order:

    1. *Unreconstructible circuits* (Scheme-1 reconstruction fails, e.g. on
       a reset conditioned on its own qubit's measurement or a measured
       qubit used again without a reset): put the Scheme-2-capable checkers
       first; when the portfolio has none and the pair's distributions are
       comparable (matching, non-zero classical bits on both sides), append
       ``distribution``.  Such a pair whose distributions are *not*
       comparable has no decidable path at all and keeps the configured
       lineup (failing exactly as static would).  Dynamic circuits that
       Scheme 1 does reconstruct fall through to the rules below.
    2. *Translated pairs* (gate-set signatures differ, qubit counts match,
       ``rewrite`` in the portfolio): the library-driven peephole prover
       front-loaded — a basis-translated pair reduces to identity in
       O(gates) 2x2 arithmetic, long before any DD is built.
    3. *Near-identical builds* (structural similarity >= 0.98, matching
       sizes): provers first — simulation cannot falsify a clone, and the
       prover's verdict preempts it.
    4. *Dissimilar pairs* (similarity < 0.5 or high gate diversity):
       falsifier first with a bounded share of the overall budget.
    5. Otherwise: configured order.
    """

    name: ClassVar[str] = "adaptive"

    def build(
        self,
        first: "QuantumCircuit",
        second: "QuantumCircuit",
        configuration: "Configuration",
    ) -> Schedule:
        portfolio = self._portfolio(configuration)
        features = extract_pair_features(first, second)

        def role_of(name: str) -> str:
            return checker_registry.resolve(name).role

        def scheme_two(name: str) -> bool:
            return checker_registry.resolve(name).scheme_two

        if features.needs_scheme_two:
            scheme_two_names = [name for name in portfolio if scheme_two(name)]
            scheme_one_names = [name for name in portfolio if not scheme_two(name)]
            if not scheme_two_names and features.comparable_distributions:
                scheme_two_names = ["distribution"]
            checkers = tuple(
                ScheduledChecker(name) for name in scheme_two_names + scheme_one_names
            )
            return Schedule(
                checkers=checkers,
                scheduler=self.name,
                rationale=(
                    "Scheme-1 reconstruction fails on this pair; "
                    "scheme-2 checkers routed first"
                ),
                features=features,
            )

        if (
            "rewrite" in portfolio
            and not features.gate_sets_match
            and features.qubit_counts_match
        ):
            rest = [name for name in portfolio if name != "rewrite"]
            return Schedule(
                checkers=tuple(
                    ScheduledChecker(name) for name in ["rewrite", *rest]
                ),
                scheduler=self.name,
                rationale=(
                    "gate sets differ (translated pair): library-driven "
                    "rewrite prover front-loaded"
                ),
                features=features,
            )

        provers = [name for name in portfolio if role_of(name) == "prover"]
        falsifiers = [name for name in portfolio if role_of(name) != "prover"]

        if (
            features.structural_similarity >= CLONE_SIMILARITY
            and features.qubit_counts_match
            and features.gate_count_ratio == 1.0
            and provers
        ):
            checkers = tuple(
                ScheduledChecker(name) for name in provers + falsifiers
            )
            return Schedule(
                checkers=checkers,
                scheduler=self.name,
                rationale=(
                    "near-identical builds: provers first, falsifier reached "
                    "only if proving fails"
                ),
                features=features,
            )

        if falsifiers and provers and (
            features.structural_similarity < DISSIMILARITY
            or features.gate_count_ratio < DISSIMILARITY
        ):
            checkers = tuple(
                [
                    ScheduledChecker(name, budget_fraction=FALSIFIER_BUDGET_FRACTION)
                    for name in falsifiers
                ]
                + [ScheduledChecker(name) for name in provers]
            )
            return Schedule(
                checkers=checkers,
                scheduler=self.name,
                rationale=(
                    "dissimilar pair: falsifier front-loaded with a bounded "
                    "budget share"
                ),
                features=features,
            )

        return Schedule(
            checkers=tuple(ScheduledChecker(name) for name in portfolio),
            scheduler=self.name,
            rationale="no feature rule fired; configured portfolio order",
            features=features,
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
    if not blocked.intersection(schedule.checker_names):
        return schedule
    healthy = tuple(slot for slot in schedule.checkers if slot.name not in blocked)
    quarantined = tuple(slot for slot in schedule.checkers if slot.name in blocked)
    moved = ", ".join(slot.name for slot in quarantined)
    return dataclass_replace(
        schedule,
        checkers=healthy + quarantined,
        rationale=f"{schedule.rationale}; quarantined checkers moved last: {moved}",
    )


# ----------------------------------------------------------------------
# scheduler registry (mirrors the checker registry)
# ----------------------------------------------------------------------

_SCHEDULERS: dict[str, type[PortfolioScheduler]] = {}


def register_scheduler(
    cls: type[PortfolioScheduler], *, replace: bool = False
) -> type[PortfolioScheduler]:
    """Register a :class:`PortfolioScheduler` subclass under ``cls.name``."""
    name = getattr(cls, "name", None)
    if not isinstance(name, str) or not name:
        raise EquivalenceCheckingError(
            f"scheduler class {cls.__name__} must define a non-empty string 'name'"
        )
    if not (isinstance(cls, type) and issubclass(cls, PortfolioScheduler)):
        raise EquivalenceCheckingError(
            f"{cls!r} is not a PortfolioScheduler subclass and cannot be registered"
        )
    if name in _SCHEDULERS and not replace:
        raise EquivalenceCheckingError(
            f"a scheduler named {name!r} is already registered; "
            "pass replace=True to override"
        )
    _SCHEDULERS[name] = cls
    return cls


def resolve_scheduler(name: str) -> type[PortfolioScheduler]:
    """Look up a registered scheduler class by name."""
    try:
        return _SCHEDULERS[name]
    except KeyError:
        raise EquivalenceCheckingError(
            f"unknown scheduler {name!r}; registered schedulers: {available_schedulers()}"
        ) from None


def available_schedulers() -> tuple[str, ...]:
    """Names of all registered schedulers, in registration order."""
    return tuple(_SCHEDULERS)


register_scheduler(StaticScheduler)
register_scheduler(AdaptiveScheduler)
