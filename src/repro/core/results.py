"""Result types of the equivalence-checking flows.

Besides the single-check :class:`EquivalenceCheckResult`, this module defines
the bookkeeping of the portfolio manager
(:class:`~repro.core.manager.EquivalenceCheckingManager`):

* :class:`CheckerAttempt` — one checker's run within a portfolio (completed,
  timed out, errored, or skipped after early termination),
* :class:`PortfolioResult` — the combined verdict, recording which checker
  decided and why,
* :class:`BatchEntry` / :class:`BatchResult` — per-pair outcomes and aggregate
  statistics of a concurrent ``verify_batch`` run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

__all__ = [
    "BatchEntry",
    "BatchResult",
    "CheckerAttempt",
    "EquivalenceCheckResult",
    "EquivalenceCriterion",
    "PortfolioResult",
]


class EquivalenceCriterion(Enum):
    """Outcome of an equivalence check.

    ``EQUIVALENT`` and ``EQUIVALENT_UP_TO_GLOBAL_PHASE`` are definitive
    positive answers from a functional check; ``PROBABLY_EQUIVALENT`` is the
    verdict of the simulative/behavioural checks (no counterexample found);
    ``NOT_EQUIVALENT`` is a definitive negative answer; ``NO_INFORMATION``
    means the configured flow could not decide.
    """

    EQUIVALENT = "equivalent"
    EQUIVALENT_UP_TO_GLOBAL_PHASE = "equivalent_up_to_global_phase"
    PROBABLY_EQUIVALENT = "probably_equivalent"
    NOT_EQUIVALENT = "not_equivalent"
    NO_INFORMATION = "no_information"

    @property
    def considered_equivalent(self) -> bool:
        """Whether this outcome counts as a successful verification."""
        return self in (
            EquivalenceCriterion.EQUIVALENT,
            EquivalenceCriterion.EQUIVALENT_UP_TO_GLOBAL_PHASE,
            EquivalenceCriterion.PROBABLY_EQUIVALENT,
        )


@dataclass
class EquivalenceCheckResult:
    """Outcome and bookkeeping of one equivalence check.

    Attributes
    ----------
    criterion:
        The verdict.
    method:
        Which check produced the verdict (``alternating``, ``construction``,
        ``simulation`` or ``distribution``).
    backend:
        ``dd`` or ``dense``.
    strategy:
        Application strategy used by the alternating scheme (if any).
    time_transformation:
        Seconds spent transforming dynamic circuits into unitary ones
        (``t_trans`` in Table 1 of the paper); zero when no transformation was
        necessary.
    time_check:
        Seconds spent on the actual check (``t_ver`` in Table 1).
    details:
        Free-form diagnostic values (DD sizes, fidelities, distributions, ...).
    """

    criterion: EquivalenceCriterion
    method: str
    backend: str = "dd"
    strategy: str | None = None
    time_transformation: float = 0.0
    time_check: float = 0.0
    details: dict = field(default_factory=dict)

    @property
    def equivalent(self) -> bool:
        """Whether the circuits were found equivalent (possibly up to phase)."""
        return self.criterion.considered_equivalent

    @property
    def total_time(self) -> float:
        """Transformation plus check time."""
        return self.time_transformation + self.time_check

    def __str__(self) -> str:
        pieces = [
            f"{self.criterion.value}",
            f"method={self.method}",
            f"backend={self.backend}",
        ]
        if self.strategy:
            pieces.append(f"strategy={self.strategy}")
        pieces.append(f"t_trans={self.time_transformation:.6f}s")
        pieces.append(f"t_check={self.time_check:.6f}s")
        return "EquivalenceCheckResult(" + ", ".join(pieces) + ")"


@dataclass
class CheckerAttempt:
    """One checker's run within a portfolio.

    Attributes
    ----------
    method:
        Registry name of the checker that ran (``simulation``,
        ``alternating``, ``construction``, ``distribution``, or a
        third-party checker).
    status:
        ``completed``, ``timeout`` (its own budget or the run's deadline ran
        out), ``error``, ``preempted`` (started, but another checker decided
        first), ``skipped`` (never started because the portfolio was decided
        or out of time first) or ``quarantined`` (refused by its circuit
        breaker).
    result:
        The checker's :class:`EquivalenceCheckResult` when it completed.
    error:
        Error message for ``error``, ``timeout`` and ``quarantined``.
    time_taken:
        Seconds of this checker's own active time — the sum of its turns in
        the interleaved portfolio (0 for skipped checkers).
    """

    method: str
    status: str = "completed"
    result: EquivalenceCheckResult | None = None
    error: str | None = None
    time_taken: float = 0.0

    def to_json(self) -> dict:
        """Per-checker detail (status, verdict, wall-time) as a JSON-friendly dict."""
        return {
            "method": self.method,
            "status": self.status,
            "criterion": self.result.criterion.value if self.result else None,
            "time": self.time_taken,
            "error": self.error,
        }


@dataclass
class PortfolioResult:
    """Combined verdict of a portfolio run.

    Attributes
    ----------
    criterion:
        The final verdict (the decider's criterion; ``NO_INFORMATION`` when no
        checker produced one).
    decided_by:
        Method of the checker whose verdict terminated the portfolio, or
        ``None`` if no checker was definitive.
    reason:
        Human-readable explanation of how the verdict came about.
    attempts:
        Per-checker bookkeeping in schedule order (each attempt records its
        own active time).
    total_time:
        Wall-clock seconds of the whole portfolio run.
    schedule:
        Checker names in the order the scheduler lined them up (may differ
        from the configured portfolio order under the adaptive scheduler, and
        may include checkers the scheduler added, e.g. ``distribution`` for
        conditioned-reset pairs).
    scheduler:
        Name of the scheduler that produced the lineup.
    features:
        JSON-friendly circuit-pair feature vector the scheduling decision was
        based on (``None`` for schedulers that do not extract features, such
        as ``static``).
    cached:
        Whether this result was served from the verdict cache
        (:class:`~repro.service.cache.VerdictCache`) instead of running any
        checker.  Cached results carry the stored essentials only — attempt
        ``details`` payloads are not retained across the cache.
    cached_via:
        Provenance of a cache hit: ``"fingerprint"`` for a raw structural
        match, ``"canonical_fingerprint"`` when the hit was found under the
        translation-level-invariant canonical key (see
        :func:`~repro.service.fingerprint.canonical_pair_fingerprint`).
        ``None`` for uncached results.
    """

    criterion: EquivalenceCriterion
    decided_by: str | None
    reason: str
    attempts: list[CheckerAttempt] = field(default_factory=list)
    total_time: float = 0.0
    schedule: list[str] = field(default_factory=list)
    scheduler: str = "static"
    features: dict | None = None
    cached: bool = False
    cached_via: str | None = None

    @property
    def equivalent(self) -> bool:
        """Whether the circuits were found equivalent (possibly up to phase)."""
        return self.criterion.considered_equivalent

    @property
    def result(self) -> EquivalenceCheckResult | None:
        """The deciding checker's detailed result (if any checker decided)."""
        for attempt in self.attempts:
            if attempt.method == self.decided_by and attempt.result is not None:
                return attempt.result
        return None

    def to_json(self) -> dict:
        """JSON-friendly payload (shared by the CLI and the service layer)."""
        return {
            "criterion": self.criterion.value,
            "equivalent": self.equivalent,
            "decided_by": self.decided_by,
            "reason": self.reason,
            "scheduler": self.scheduler,
            "schedule": list(self.schedule),
            "cached": self.cached,
            "cached_via": self.cached_via,
            "attempts": [attempt.to_json() for attempt in self.attempts],
            "total_time": self.total_time,
        }

    def __str__(self) -> str:
        return (
            f"PortfolioResult({self.criterion.value}, decided_by={self.decided_by}, "
            f"t={self.total_time:.6f}s)"
        )


@dataclass
class BatchEntry:
    """Outcome of one circuit pair within a batch verification run.

    ``result`` is ``None`` when the pair failed outright (see ``error``); a
    failure of one pair never affects the other pairs of the batch.
    """

    index: int
    name_first: str
    name_second: str
    result: PortfolioResult | None = None
    error: str | None = None
    time_taken: float = 0.0

    @property
    def equivalent(self) -> bool:
        """Whether this pair was verified equivalent (False for failed pairs)."""
        return self.result is not None and self.result.equivalent


@dataclass
class BatchResult:
    """Aggregate outcome of :meth:`EquivalenceCheckingManager.verify_batch`.

    Entries are in the same order as the input pairs.
    """

    entries: list[BatchEntry] = field(default_factory=list)
    total_time: float = 0.0
    max_workers: int = 1
    executor: str = "thread"

    @property
    def num_pairs(self) -> int:
        return len(self.entries)

    @property
    def num_equivalent(self) -> int:
        return sum(1 for entry in self.entries if entry.equivalent)

    @property
    def num_not_equivalent(self) -> int:
        """Pairs definitively refuted (undecided pairs count as failed instead)."""
        return sum(
            1
            for entry in self.entries
            if entry.result is not None
            and entry.result.criterion is EquivalenceCriterion.NOT_EQUIVALENT
        )

    @property
    def num_failed(self) -> int:
        """Pairs that raised, or finished without any verdict (timeout/errors)."""
        return sum(
            1
            for entry in self.entries
            if entry.result is None
            or entry.result.criterion is EquivalenceCriterion.NO_INFORMATION
        )

    @property
    def all_equivalent(self) -> bool:
        return self.num_equivalent == self.num_pairs

    @property
    def any_verdict(self) -> bool:
        """Whether at least one pair produced an actual verdict.

        False when every pair either raised or finished undecided — a batch
        that *could not be checked*, as opposed to one that found
        non-equivalences.
        """
        return self.num_failed < self.num_pairs

    def summary(self) -> dict:
        """Aggregate statistics (JSON-friendly)."""
        times = [entry.time_taken for entry in self.entries]
        return {
            "num_pairs": self.num_pairs,
            "num_equivalent": self.num_equivalent,
            "num_not_equivalent": self.num_not_equivalent,
            "num_failed": self.num_failed,
            "total_time": self.total_time,
            "max_workers": self.max_workers,
            "executor": self.executor,
            "max_pair_time": max(times, default=0.0),
            "mean_pair_time": (sum(times) / len(times)) if times else 0.0,
        }

    def __str__(self) -> str:
        return (
            f"BatchResult({self.num_equivalent}/{self.num_pairs} equivalent, "
            f"{self.num_failed} failed, t={self.total_time:.6f}s, "
            f"workers={self.max_workers}, executor={self.executor})"
        )
