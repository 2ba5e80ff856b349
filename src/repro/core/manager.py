"""Portfolio equivalence-checking manager.

Single-method runs (:func:`~repro.core.equivalence.check_equivalence`) make
the caller commit to one checker up front.  Real equivalence-checking tools
such as QCEC instead run a *portfolio* of complementary checkers and stop as
soon as any of them is definitive:

* ``simulation`` (and ``distribution``) are fast *falsifiers* — a single
  mismatching stimulus or outcome distribution proves non-equivalence,
  usually long before a functional check would finish, but a pass only
  yields ``PROBABLY_EQUIVALENT``;
* ``alternating`` (and ``construction``) are *provers* — they decide
  equivalence definitively, at higher cost.

Which checkers run, in which order and with which budgets is decided per
pair by a :class:`~repro.core.scheduler.PortfolioScheduler`
(``Configuration.scheduler``): ``static`` replays the configured portfolio
verbatim, ``adaptive`` reorders it from circuit features (and routes pairs
whose conditioned resets Scheme 1 cannot reconstruct to the Scheme-2
``distribution`` checker, since the Scheme-1 checkers cannot decide them).

:class:`EquivalenceCheckingManager` does not run that lineup one checker
after another.  It *interleaves* the checkers step by step in the calling
thread (:meth:`~repro.core.checkers.base.Checker.steps`): each turn goes to
the unfinished checker with the least accumulated cost, counted in gate
applications, with ties going to lineup position, and lasts until that
checker's cost passes the next-least one.  Checkers start lazily at their
first turn.  The first definitive verdict ends the run: a checker that had
started is recorded as ``preempted``, one that never started as
``skipped``.  So a falsifier-first lineup still refutes a mutant in the
falsifier's first stimulus before the prover builds anything, while an
equivalent pair costs one stimulus plus the proof instead of every stimulus
plus the proof — whatever the order, no checker runs far ahead of the
eventual winner.  Because cost is not time, the schedule is deterministic:
the verdict, ``decided_by`` and every attempt's status repeat across runs
and executors (absent budgets).  Per-checker budgets bound a checker's own
active time and the overall ``timeout`` the run's wall time; both are
checked between steps, and single-step checkers get an ``interrupt`` probe
bound to their deadline.

The result records the schedule, the feature vector and which checker
decided in a :class:`~repro.core.results.PortfolioResult`.  For scale,
:meth:`EquivalenceCheckingManager.verify_batch` verifies many circuit pairs
concurrently — on a thread pool (``executor="thread"``) or, since the DD
checkers are pure-Python CPU work and therefore GIL-bound, on a process pool
(``executor="process"``) fed with pickled work units from
:mod:`repro.core.workers` — isolating per-pair failures and aggregating
statistics in a :class:`~repro.core.results.BatchResult` either way.

Example
-------
>>> from repro.circuit import QuantumCircuit
>>> from repro.core.manager import EquivalenceCheckingManager
>>> a = QuantumCircuit(2); _ = a.h(0); _ = a.cx(0, 1)
>>> b = QuantumCircuit(2); _ = b.h(0); _ = b.cx(0, 1)
>>> manager = EquivalenceCheckingManager(seed=1)
>>> manager.run(a, b).equivalent
True
"""

from __future__ import annotations

import concurrent.futures
import contextvars
import random
import threading
import time
from collections import deque
from collections.abc import Generator, Sequence
from dataclasses import dataclass, replace

from repro.circuit.circuit import QuantumCircuit
from repro.core import checkers as checker_registry
from repro.core.checkers.base import CheckerInterrupted
from repro.core.configuration import Configuration
from repro.core.equivalence import EquivalenceChecker
from repro.core.results import (
    BatchEntry,
    BatchResult,
    CheckerAttempt,
    EquivalenceCheckResult,
    EquivalenceCriterion,
    PortfolioResult,
)
from repro.core.scheduler import Schedule, deprioritize, resolve_scheduler
from repro.core.transformation import to_unitary_circuit
from repro.core.workers import BatchWorkUnit, chunk_pairs, verify_work_unit
from repro.obs import trace
from repro.obs.logs import fields, get_logger
from repro.obs.metrics import (
    merge_dd_statistics,
    publish_dd_statistics,
    publish_rewrite_statistics,
)
from repro.resilience.breaker import BreakerBoard
from repro.resilience.faults import FaultInjector
from repro.resilience.retry import RetryPolicy

_log = get_logger("core.manager")

__all__ = [
    "DEFAULT_PORTFOLIO",
    "EquivalenceCheckingManager",
    "verify_batch",
    "verify_portfolio",
]

#: Default checker line-up: the falsifier leads, interleaved with the prover.
DEFAULT_PORTFOLIO: tuple[str, ...] = ("simulation", "alternating")

#: Criteria that terminate the portfolio regardless of which checker produced
#: them.  ``PROBABLY_EQUIVALENT`` (a passing simulation) is *not* definitive —
#: a later functional checker may still prove or refute equivalence.
_DEFINITIVE = (
    EquivalenceCriterion.EQUIVALENT,
    EquivalenceCriterion.EQUIVALENT_UP_TO_GLOBAL_PHASE,
    EquivalenceCriterion.NOT_EQUIVALENT,
)

#: ``repro_manager_runs_total`` outcome label by ``PortfolioResult.cached_via``.
_RUN_OUTCOMES = {
    None: "executed",
    "fingerprint": "cache_hit",
    "canonical_fingerprint": "canonical_cache_hit",
}

#: Ranking of non-definitive criteria: when no checker is definitive the
#: portfolio falls back to the *best* indicative verdict seen, in this order
#: (higher is better).  A ``NO_INFORMATION`` from an early checker must never
#: shadow a later ``PROBABLY_EQUIVALENT``.
_INDICATIVE_RANK = {
    EquivalenceCriterion.NO_INFORMATION: 0,
    EquivalenceCriterion.PROBABLY_EQUIVALENT: 1,
}


@dataclass(slots=True)
class _Runner:
    """One lineup slot's progress through the interleaved portfolio loop."""

    position: int
    name: str
    tier: int  # 0 healthy, 1 deprioritized by its breaker
    budget: float | None  # seconds of this checker's own active time
    cost: int = 0  # gate applications reported by its finished steps
    active: float = 0.0
    turns: int = 0
    deadline: float | None = None  # perf_counter bound of the current turn
    steps: Generator | None = None  # the step generator, once started

    def key(self) -> tuple[int, int, int]:
        """Turn order: healthy tier first, then least cost, then lineup."""
        return (self.tier, self.cost, self.position)

    def past_deadline(self) -> bool:
        return self.deadline is not None and time.perf_counter() >= self.deadline


class EquivalenceCheckingManager:
    """Interleave a scheduled portfolio of checkers, stopping at the first verdict.

    Configuration knobs (see :class:`~repro.core.configuration.Configuration`):
    ``portfolio`` selects the checkers (default :data:`DEFAULT_PORTFOLIO`),
    ``scheduler`` decides their per-pair order and budget splits,
    ``checker_timeout`` bounds each checker's active time, ``timeout``
    bounds the whole run, and ``max_workers`` sizes the worker pool of
    :meth:`verify_batch`.
    """

    def __init__(
        self,
        configuration: Configuration | None = None,
        *,
        cache=None,
        **overrides,
    ):
        configuration = configuration or Configuration()
        if overrides:
            configuration = configuration.updated(**overrides)
        self.configuration = configuration
        self._scheduler = resolve_scheduler(configuration.scheduler)()
        # Fault injection (repro.resilience.faults): a no-op unless the
        # configuration carries an explicit plan (chaos tests only).  Built
        # before the cache so journal-site faults can hook its writes.
        self.fault_injector = FaultInjector(configuration.fault_plan)
        # The verdict cache is shared mutable state: callers that manage
        # several managers (the job-queue server, tests) can inject one
        # instance via ``cache=``; otherwise the manager builds its own from
        # the configuration.  Imported lazily — repro.service sits on top of
        # this module.
        if cache is not None:
            self.verdict_cache = cache
        elif configuration.cache_enabled:
            from repro.service.cache import VerdictCache

            self.verdict_cache = VerdictCache(
                max_entries=configuration.cache_size,
                path=configuration.cache_path,
                write_hook=(
                    self.fault_injector.hook("journal", "verdict_cache")
                    if self.fault_injector.active
                    else None
                ),
            )
        else:
            self.verdict_cache = None
        # Optional MetricsRegistry (repro.obs.metrics): when set, _record
        # writes the run-outcome, checker-latency, DD and rewrite series into
        # it.  The verification service wires its registry in; plain
        # in-process managers run unmetered.
        self.metrics = None
        # Per-checker circuit breakers (repro.resilience.breaker): a checker
        # that keeps crashing or timing out is quarantined and the portfolio
        # degrades to the remaining checkers.  Shared across the thread batch
        # pool (the board is thread-safe); process workers rebuild their own
        # managers and hence keep per-process boards.
        self.breakers = (
            BreakerBoard(
                configuration.breaker_threshold, configuration.breaker_cooldown
            )
            if configuration.breaker_threshold is not None
            else None
        )
        # Run-telemetry journal (repro.obs.telemetry): one crash-safe record
        # per settled run — features, schedule, per-checker timings, verdict,
        # cache provenance — the training substrate for a learned scheduler.
        if configuration.telemetry_path is not None:
            from repro.obs.telemetry import TelemetryJournal

            self.telemetry = TelemetryJournal(
                configuration.telemetry_path,
                write_hook=(
                    self.fault_injector.hook("journal", "telemetry")
                    if self.fault_injector.active
                    else None
                ),
            )
        else:
            self.telemetry = None
        self._batch_stats_lock = threading.Lock()
        self._batch_stats = {
            "pool_rebuilds": 0,
            "unit_retries": 0,
            "unit_bisections": 0,
            "abandoned_units": 0,
        }
        # Per-checker decision-diagram statistics accumulated by _record from
        # the attempt details of every executed pair, process batches included.
        self._dd_stats_lock = threading.Lock()
        self._dd_stats: dict[str, dict] = {}

    @property
    def portfolio(self) -> tuple[str, ...]:
        """The configured checker pool (the scheduler orders it per pair)."""
        return self.configuration.portfolio or DEFAULT_PORTFOLIO

    # ------------------------------------------------------------------
    # single pair
    # ------------------------------------------------------------------

    def schedule_for(
        self, first: QuantumCircuit, second: QuantumCircuit
    ) -> Schedule:
        """The scheduler's lineup for one pair (without running anything)."""
        return self._scheduler.build(first, second, self.configuration)

    def run(
        self,
        first: QuantumCircuit,
        second: QuantumCircuit,
        *,
        qubit_permutation: dict[int, int] | None = None,
        schedule: Schedule | None = None,
        fingerprint: str | None = None,
    ) -> PortfolioResult:
        """Check one circuit pair with the scheduled checker lineup.

        The scheduled checkers are interleaved step by step (see the module
        docstring); the first definitive verdict (``EQUIVALENT``,
        ``EQUIVALENT_UP_TO_GLOBAL_PHASE`` or ``NOT_EQUIVALENT``) terminates
        the run, preempting the checkers that had started and skipping the
        rest.  A checker that raises or exceeds its budget is recorded and
        drops out while the others continue.  When no checker is definitive
        the final criterion falls back to the best indicative one
        (``PROBABLY_EQUIVALENT`` from a passing behavioural check) or
        ``NO_INFORMATION``; among equally ranked verdicts the one earliest in
        the lineup wins.

        ``schedule`` injects a precomputed scheduling decision (the
        process-pool batch path ships pickled schedules so workers and parent
        agree); by default the configured scheduler decides here.

        With the verdict cache enabled (``Configuration.verdict_cache`` /
        ``cache_path``), the pair's fingerprint is consulted *before* any
        scheduling: a hit returns the stored verdict (``result.cached`` is
        True) without running a single checker, and a conclusive fresh run is
        stored for next time.  Permuted runs and runs with an injected
        ``schedule`` bypass the cache entirely — the fingerprint commits to
        neither, so serving or storing them could cross verdicts between
        different checks.  ``fingerprint`` injects a key the caller already
        computed with :func:`~repro.service.fingerprint.pair_fingerprint`
        for this pair under this configuration (the job-queue server
        fingerprints every submission for dedup; recomputing here would
        double the dominant cost of a cache hit).
        """
        with trace.span(
            "manager.run",
            first=getattr(first, "name", None),
            second=getattr(second, "name", None),
        ) as run_span:
            if qubit_permutation is not None or schedule is not None:
                fingerprint = None
            elif fingerprint is not None and not self._fingerprints_sound():
                # A caller-supplied key cannot be trusted either when the
                # tolerance out-resolves the canonical form.
                fingerprint = None
            elif self.verdict_cache is not None and fingerprint is None:
                fingerprint = self._pair_fingerprint(first, second)
            result, keys = self._lookup(first, second, fingerprint)
            if result is None:
                result = self._run_uncached(
                    first, second, qubit_permutation=qubit_permutation, schedule=schedule
                )
                self._store(result, *keys)
            run_span.set_attr("criterion", result.criterion.value)
            if result.cached:
                run_span.set_attr("cached_via", result.cached_via)
            self._record(result, keys)
            return result

    def _lookup(
        self, first: QuantumCircuit, second: QuantumCircuit, fingerprint: str | None
    ) -> tuple[PortfolioResult | None, tuple[str | None, ...]]:
        """Consult the verdict cache for one pair: ``(hit or None, keys)``.

        Tries the raw ``fingerprint``, then the translation-level-invariant
        canonical key.  A canonical hit means the pair was verified before at
        *another* translation level; its verdict fans out to the raw key so
        later lookups of this exact representation hit directly.  ``keys``
        are the keys a fresh verdict is stored under and recorded with: the
        raw fingerprint (none when it is unusable), then — when the canonical
        tier was consulted — the canonical key, or None if the pair could not
        be canonicalized.
        """
        if fingerprint is None:
            return None, ()
        if self.verdict_cache is None:
            return None, (fingerprint,)
        with trace.span("cache.lookup", tier="fingerprint") as lookup_span:
            cached = self.verdict_cache.get(fingerprint)
            lookup_span.set_attr("hit", cached is not None)
        if cached is not None:
            return replace(cached, cached_via="fingerprint"), (fingerprint,)
        if not self.configuration.canonicalize:
            return None, (fingerprint,)
        canonical = self._canonical_pair_fingerprint(first, second)
        keys = (fingerprint, canonical)
        if canonical is None:
            return None, keys
        with trace.span("cache.lookup", tier="canonical") as lookup_span:
            cached = self.verdict_cache.get(canonical)
            lookup_span.set_attr("hit", cached is not None)
        if cached is None:
            return None, keys
        result = replace(cached, cached_via="canonical_fingerprint")
        self._store(result, fingerprint)
        return result, keys

    def _store(self, result: PortfolioResult, *keys: str | None) -> None:
        """Store a cacheable verdict under every non-None key."""
        if self.verdict_cache is None or not self._cacheable(result):
            return
        for key in keys:
            if key is not None:
                self.verdict_cache.put(key, result)

    def _record(
        self, result: PortfolioResult, keys: tuple[str | None, ...] = ()
    ) -> None:
        """Record one settled pair: the only writer of metrics, DD totals, telemetry.

        Called exactly once per settled pair, by the process that owns the
        registry and the journal (process-batch workers record nothing).
        Everything is derived from ``result`` and the ``keys`` of
        :meth:`_lookup`: the run outcome from ``cached_via``; for executed
        runs, the latency of every attempt that started and the DD and
        rewrite counters from the attempt details (a cache hit ran nothing,
        so it contributes none of those); then one telemetry record.
        """
        metrics = self.metrics
        if metrics is not None:
            if len(keys) > 1:
                metrics.counter(
                    "repro_canonical_fingerprints_total",
                    "Canonical (translation-level-invariant) fingerprint computations.",
                    labelnames=("status",),
                ).inc(status="computed" if keys[1] is not None else "unavailable")
            metrics.counter(
                "repro_manager_runs_total",
                "Pair checks by outcome (cache hit vs. executed portfolio run).",
                labelnames=("outcome",),
            ).inc(outcome=_RUN_OUTCOMES[result.cached_via])
            latency = metrics.histogram(
                "repro_checker_latency_seconds",
                "Wall-clock latency of individual checker attempts.",
                labelnames=("checker", "status"),
            )
        for attempt in () if result.cached else result.attempts:
            details = getattr(attempt.result, "details", None) or {}
            dd_statistics = details.get("dd_statistics")
            if dd_statistics is not None:
                with self._dd_stats_lock:
                    merge_dd_statistics(
                        self._dd_stats.setdefault(attempt.method, {}), dd_statistics
                    )
            if metrics is None or attempt.status == "skipped":
                continue
            latency.observe(
                attempt.time_taken, checker=attempt.method, status=attempt.status
            )
            if dd_statistics is not None:
                publish_dd_statistics(metrics, dd_statistics, checker=attempt.method)
            if "rewrite_statistics" in details:
                publish_rewrite_statistics(
                    metrics, details["rewrite_statistics"], checker=attempt.method
                )
        if self.telemetry is not None:
            from repro.obs.telemetry import run_record

            breakers = None
            if self.breakers is not None:
                snapshot = self.breakers.snapshot()
                if snapshot:
                    breakers = {name: entry["state"] for name, entry in snapshot.items()}
            self.telemetry.record_run(
                run_record(
                    result, fingerprint=keys[0] if keys else None, breakers=breakers
                )
            )

    def _cacheable(self, result: PortfolioResult) -> bool:
        """Whether a fresh result may be stored without risking verdict drift.

        ``PROBABLY_EQUIVALENT`` under ``seed=None`` is a pass of *freshly
        drawn* random stimuli: re-running could legitimately find a
        counterexample, so freezing one lucky pass in the cache would let a
        hit change a verdict.  With a fixed seed the stimuli are part of the
        fingerprint and the verdict is reproducible.  (``NO_INFORMATION`` is
        additionally refused by :meth:`VerdictCache.put` itself.)
        """
        return not (
            result.criterion is EquivalenceCriterion.PROBABLY_EQUIVALENT
            and self.configuration.seed is None
        )

    def _fingerprints_sound(self) -> bool:
        from repro.service.fingerprint import fingerprints_sound_for

        return fingerprints_sound_for(self.configuration)

    def _pair_fingerprint(self, first: QuantumCircuit, second: QuantumCircuit) -> str | None:
        """The pair's cache key, or None when fingerprinting is unavailable.

        Returns None — bypassing the cache rather than failing the
        verification — when a circuit cannot be canonicalized (e.g. an
        exotic third-party operation) or when ``Configuration.tolerance`` is
        at or below the canonical form's angle resolution, where two
        circuits sharing a fingerprint could in principle be told apart.
        """
        from repro.service.fingerprint import pair_fingerprint

        if not self._fingerprints_sound():
            return None
        try:
            return pair_fingerprint(first, second, self.configuration)
        except Exception:  # noqa: BLE001 - cache bypass, never a failure
            return None

    def _canonical_pair_fingerprint(
        self, first: QuantumCircuit, second: QuantumCircuit
    ) -> str | None:
        """The pair's translation-level-invariant cache key, or None.

        Gated by ``Configuration.canonicalize`` and by the soundness check of
        :func:`~repro.service.fingerprint.canonical_pair_fingerprint` (which
        itself returns None for tolerances that out-resolve the canonical
        angle grid or for circuits that cannot be canonicalized).
        """
        if not self.configuration.canonicalize:
            return None
        from repro.service.fingerprint import canonical_pair_fingerprint

        with trace.span("fingerprint.canonical") as canonical_span:
            key = canonical_pair_fingerprint(first, second, self.configuration)
            canonical_span.set_attr(
                "status", "computed" if key is not None else "unavailable"
            )
        return key

    def _run_uncached(
        self,
        first: QuantumCircuit,
        second: QuantumCircuit,
        *,
        qubit_permutation: dict[int, int] | None = None,
        schedule: Schedule | None = None,
    ) -> PortfolioResult:
        config = self.configuration
        start = time.perf_counter()
        if schedule is None:
            with trace.span("scheduler.decide") as decide_span:
                schedule = self.schedule_for(first, second)
                decide_span.set_attr("scheduler", schedule.scheduler)
                decide_span.set_attr("lineup", ",".join(schedule.checker_names))
                decide_span.set_attr("rationale", schedule.rationale)
        quarantined = self.breakers.quarantined() if self.breakers else ()
        if quarantined:
            # Healthy checkers first; quarantined ones stay in the lineup as a
            # second tier that runs only once every healthy checker finished
            # without a verdict (their breakers may admit a probe by then, and
            # the overall deadline should be spent on checkers that work).
            schedule = deprioritize(schedule, quarantined)
            trace.add_event("breaker.deprioritize", checkers=list(quarantined))
            _log.info(
                "quarantined checkers deprioritized",
                **fields(checkers=list(quarantined)),
            )
        deadline = None if config.timeout is None else start + config.timeout
        schedule_names = list(schedule.checker_names)
        features_payload = (
            schedule.features.to_dict() if schedule.features is not None else None
        )

        # Transform dynamic circuits to unitary ones once (Scheme 1) and share
        # the result across all Scheme-1 checkers instead of re-transforming
        # per method; Scheme-2 checkers receive the originals.  On failure
        # fall back to the originals so the error surfaces per checker
        # attempt, as it would without the shared transformation.
        original_first, original_second = first, second
        unitary_first, unitary_second = first, second
        if config.transform_dynamic:
            try:
                if first.is_dynamic:
                    unitary_first = to_unitary_circuit(first).circuit
                if second.is_dynamic:
                    unitary_second = to_unitary_circuit(second).circuit
            except Exception:  # noqa: BLE001 - checkers report it per attempt
                pass

        runners = [
            _Runner(
                position, slot.name, int(slot.name in quarantined), slot.budget(config)
            )
            for position, slot in enumerate(schedule.checkers)
        ]
        attempts: list[CheckerAttempt | None] = [None] * len(runners)
        pending = list(runners)
        decider: _Runner | None = None
        while pending and decider is None:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            runner = min(pending, key=_Runner.key)
            if runner.steps is None:
                if self.breakers is not None and not self.breakers.allow(runner.name):
                    # Breaker open: refuse the call instead of paying for
                    # another crash/timeout.  The attempt is recorded so batch
                    # statistics and the result stay honest about it.
                    trace.add_event("checker.quarantined", checker=runner.name)
                    pending.remove(runner)
                    attempts[runner.position] = CheckerAttempt(
                        method=runner.name,
                        status="quarantined",
                        error="circuit breaker open: checker quarantined",
                    )
                    continue
                if checker_registry.resolve(runner.name).scheme_two:
                    pair = (original_first, original_second)
                else:
                    pair = (unitary_first, unitary_second)
                bounded = runner.budget is not None or deadline is not None
                interrupt = runner.past_deadline if bounded else None
                runner.steps = self._checker_steps(
                    runner.name, *pair, qubit_permutation, interrupt
                )
            rivals = [other for other in pending if other is not runner]
            attempt = self._run_turn(
                runner, min(rivals, key=_Runner.key) if rivals else None, deadline
            )
            if attempt is None:
                continue
            pending.remove(runner)
            attempts[runner.position] = attempt
            if self.breakers is not None:
                # Crashes and blown budgets both count against the breaker;
                # any completed run (whatever it concluded) heals it.
                self.breakers.record(runner.name, attempt.status == "completed")
            if attempt.result is not None and attempt.result.criterion in _DEFINITIVE:
                decider = runner

        timed_out = decider is None and bool(pending)
        for runner in pending:
            if runner.steps is None:
                attempts[runner.position] = CheckerAttempt(
                    method=runner.name, status="skipped"
                )
                continue
            runner.steps.close()
            if self.breakers is not None:
                # A blown deadline counts against the breaker like any
                # timeout; being outrun by the decider says nothing about
                # this checker's health, so its probe slot is handed back.
                if timed_out:
                    self.breakers.record(runner.name, False)
                else:
                    self.breakers.release(runner.name)
            attempts[runner.position] = CheckerAttempt(
                method=runner.name,
                status="timeout" if timed_out else "preempted",
                error=(
                    f"overall timeout of {config.timeout}s exhausted"
                    if timed_out
                    else None
                ),
                time_taken=runner.active,
            )

        if decider is not None:
            decisive = attempts[decider.position]
            criterion = decisive.result.criterion
            reason = (
                f"{decider.name} returned {criterion.value} "
                f"after {decisive.time_taken:.6f}s"
            )
        else:
            # The best indicative verdict; among equals the earliest in line.
            best = max(
                (attempt for attempt in attempts if attempt.result is not None),
                key=lambda attempt: _INDICATIVE_RANK.get(attempt.result.criterion, 0),
                default=None,
            )
            criterion = (
                best.result.criterion
                if best is not None
                else EquivalenceCriterion.NO_INFORMATION
            )
            if timed_out:
                reason = f"overall timeout of {config.timeout}s exhausted"
            elif best is not None:
                reason = (
                    f"no checker was definitive; best indicative verdict "
                    f"{criterion.value} from {best.method}"
                )
            else:
                reason = "no checker produced a verdict"
        return PortfolioResult(
            criterion=criterion,
            decided_by=decider.name if decider is not None else None,
            reason=reason,
            attempts=attempts,
            total_time=time.perf_counter() - start,
            schedule=schedule_names,
            scheduler=schedule.scheduler,
            features=features_payload,
        )

    def _checker_steps(
        self,
        method: str,
        first: QuantumCircuit,
        second: QuantumCircuit,
        qubit_permutation: dict[int, int] | None,
        interrupt,
    ) -> Generator[int, None, EquivalenceCheckResult]:
        """One checker attempt as a generator of cost-counted steps.

        Nothing is built until the first step: the configuration here, the
        checker's own preparation and DD package on ``next()``.
        """
        checker = EquivalenceChecker(self.configuration.updated(method=method))
        return checker.steps(
            first, second, qubit_permutation=qubit_permutation, interrupt=interrupt
        )

    def _run_turn(
        self, runner: "_Runner", rival: "_Runner | None", deadline: float | None
    ) -> CheckerAttempt | None:
        """Step one checker until it passes ``rival``; its attempt once it ends.

        Returns None when the turn ends with the checker still unfinished.
        Budgets are checked between steps, so a checker overruns its own
        budget or the run's deadline by at most one step.
        """
        limit = None
        if rival is not None and rival.tier == runner.tier:
            # Ties go to lineup position: keep the turn while cost < limit.
            limit = rival.cost + (runner.position < rival.position)
        started = time.perf_counter()
        runner.deadline = deadline
        if runner.budget is not None:
            own = started + runner.budget - runner.active
            runner.deadline = own if deadline is None else min(own, deadline)
        with trace.span(
            "checker.run", checker=runner.name, turn=runner.turns
        ) as checker_span:
            if runner.turns == 0 and runner.budget is not None:
                checker_span.set_attr("budget", round(runner.budget, 6))
            runner.turns += 1
            status, result, error = "timeout", None, None
            try:
                if runner.turns == 1:
                    self.fault_injector.fire("checker", runner.name)
                while True:
                    runner.cost += next(runner.steps)
                    if runner.past_deadline():
                        runner.steps.close()
                        break
                    if limit is not None and runner.cost >= limit:
                        runner.active += time.perf_counter() - started
                        checker_span.set_attr("cost", runner.cost)
                        return None
            except StopIteration as stop:
                status, result = "completed", stop.value
            except CheckerInterrupted:
                pass
            except Exception as error_:  # noqa: BLE001 - isolate checker failures
                status, error = "error", f"{type(error_).__name__}: {error_}"
            runner.active += time.perf_counter() - started
            if status == "timeout":
                error = (
                    f"checker exceeded its budget of {runner.budget:.6f}s"
                    if runner.budget is not None and runner.active >= runner.budget
                    else f"overall timeout of {self.configuration.timeout}s exhausted"
                )
            checker_span.set_attr("cost", runner.cost)
            checker_span.set_attr("status", status)
            if result is not None:
                checker_span.set_attr("criterion", result.criterion.value)
            if error is not None:
                checker_span.set_attr("error", error)
        return CheckerAttempt(
            method=runner.name,
            status=status,
            result=result,
            error=error,
            time_taken=runner.active,
        )

    def dd_statistics(self) -> dict[str, dict]:
        """Per-checker decision-diagram cache counters accumulated so far.

        Covers in-process runs *and* process-pool batches: the entries a
        worker returns carry each attempt's ``dd_statistics`` detail, which
        the parent's :meth:`_record` folds in like any other run.
        """
        with self._dd_stats_lock:
            return {checker: dict(stats) for checker, stats in self._dd_stats.items()}

    # ------------------------------------------------------------------
    # batch verification
    # ------------------------------------------------------------------

    def verify_batch(
        self,
        pairs: Sequence[tuple[QuantumCircuit, QuantumCircuit]],
    ) -> BatchResult:
        """Verify many circuit pairs concurrently.

        Each pair gets a full scheduled portfolio run on
        ``configuration.max_workers`` concurrent workers — threads
        (``executor="thread"``, the default) or worker processes
        (``executor="process"``, sharded into picklable work units of
        ``batch_chunk_size`` pairs; see :mod:`repro.core.workers`).  Entries
        come back in input order either way, and a pair that raises is
        recorded as failed without affecting the other pairs.  Each pair is
        looked up, stored and recorded exactly as :meth:`run` would do it,
        whichever executor ran it.

        With the verdict cache enabled, identical pairs *within* the batch
        are deduplicated by fingerprint: each distinct pair runs once (on
        whichever executor is configured) and its verdict fans out to the
        duplicates through the cache, preserving input order and per-pair
        error isolation (a failing pair only ever "fails" its own
        duplicates, which are the same input).
        """
        start = time.perf_counter()
        pairs = list(pairs)
        config = self.configuration
        with trace.span(
            "manager.verify_batch",
            pairs=len(pairs),
            executor=config.executor,
            max_workers=config.max_workers,
        ):
            entries = self._batch_entries(pairs)
        return BatchResult(
            entries=entries,
            total_time=time.perf_counter() - start,
            max_workers=config.max_workers,
            executor=config.executor,
        )

    def _batch_schedules(
        self, pairs: Sequence[tuple[QuantumCircuit, QuantumCircuit]]
    ) -> dict[int, Schedule]:
        """Scheduling decisions for a batch, made once here in the parent.

        Shared by both executors so a batch traces identically on threads
        and processes: one ``scheduler.decide`` span per pair under the
        batch span, and the per-pair runs replay the decision instead of
        re-deriving it (which is how the process path always worked).
        """
        schedules: dict[int, Schedule] = {}
        for index, (first, second) in enumerate(pairs):
            with trace.span("scheduler.decide", pair=index) as decide_span:
                schedule = self.schedule_for(first, second)
                decide_span.set_attr("scheduler", schedule.scheduler)
                decide_span.set_attr("lineup", ",".join(schedule.checker_names))
            schedules[index] = schedule
        return schedules

    def _batch_entries(
        self, pairs: Sequence[tuple[QuantumCircuit, QuantumCircuit]]
    ) -> list[BatchEntry]:
        """Settle a batch: lookups here, misses on the executor, one record each.

        Every distinct pair is looked up in the verdict cache here in the
        parent — on both executors, so a warm persistent cache short-circuits
        process batches too (workers run cache-less) — and only the misses
        are dispatched.  The parent then stores and records every verdict,
        whichever executor produced it.  With the cache enabled, pairs are
        deduplicated by fingerprint; a duplicate is served from its
        representative's cache entry (a real lookup, so the cache statistics
        account for the saved work) or, when that verdict was not cacheable,
        replicates it.  Duplicates copy an already recorded verdict and are
        not recorded again.  A pair whose fingerprinting fails is unique.
        """
        caching = self.verdict_cache is not None
        fingerprints = [
            self._pair_fingerprint(first, second) if caching else None
            for first, second in pairs
        ]
        representative: dict[str, int] = {}
        keys: dict[int, tuple[str | None, ...]] = {}
        entries: list[BatchEntry | None] = [None] * len(pairs)
        for index, (first, second) in enumerate(pairs):
            fingerprint = fingerprints[index]
            if fingerprint is not None:
                if fingerprint in representative:
                    continue
                representative[fingerprint] = index
            cached, keys[index] = self._lookup(first, second, fingerprint)
            if cached is not None:
                entries[index] = _entry(index, first, second, result=cached)

        dispatch = [index for index in keys if entries[index] is None]
        run_pairs = (
            self._batch_entries_processes
            if self.configuration.executor == "process"
            else self._batch_entries_threads
        )
        for index, entry in zip(dispatch, run_pairs([pairs[i] for i in dispatch])):
            entry.index = index
            entries[index] = entry
            if entry.result is not None:
                self._store(entry.result, *keys[index])
        for index, pair_keys in keys.items():
            if entries[index].result is not None:
                self._record(entries[index].result, pair_keys)

        for index, fingerprint in enumerate(fingerprints):
            if entries[index] is not None:
                continue
            started = time.perf_counter()
            source = entries[representative[fingerprint]]
            entry = _entry(index, *pairs[index], error=source.error)
            if source.result is not None:
                # An uncacheable representative (NO_INFORMATION, or an
                # unseeded PROBABLY_EQUIVALENT that must not persist) is
                # replicated so duplicates still agree entry-for-entry.
                cached = self.verdict_cache.get(fingerprint)
                entry.result = (
                    replace(cached, cached_via="fingerprint")
                    if cached is not None
                    else replace(source.result)
                )
            entry.time_taken = time.perf_counter() - started
            entries[index] = entry
        return entries

    def _batch_entries_threads(
        self, pairs: Sequence[tuple[QuantumCircuit, QuantumCircuit]]
    ) -> list[BatchEntry]:
        schedules = self._batch_schedules(pairs)
        with concurrent.futures.ThreadPoolExecutor(
            max_workers=self.configuration.max_workers, thread_name_prefix="verify-batch"
        ) as executor:
            # Each submission ships a copy of the caller's context so the
            # ambient trace scope (a contextvar, not thread-inherited)
            # reaches the pool threads and per-pair spans parent correctly.
            futures = [
                executor.submit(
                    contextvars.copy_context().run,
                    self._batch_entry,
                    index,
                    first,
                    second,
                    schedules[index],
                )
                for index, (first, second) in enumerate(pairs)
            ]
            return [future.result() for future in futures]

    def _batch_entries_processes(
        self, pairs: Sequence[tuple[QuantumCircuit, QuantumCircuit]]
    ) -> list[BatchEntry]:
        """Fan work units out to a process pool, reassembling input order.

        Scheduling decisions are made *once*, here in the parent, and shipped
        inside the (picklable) work units — workers replay them instead of
        re-deriving, so parent-side bookkeeping and worker-side execution can
        never disagree on a pair's lineup.

        Failure handling (``configuration.batch_retries``): a unit whose
        future fails as a whole — a worker process dying mid-unit, a broken
        pool, an unpicklable payload — is *not* immediately mapped onto
        per-pair error entries.  A broken pool is rebuilt (with jittered
        backoff) and only the lost units are re-dispatched; a failed unit
        with more than one pair is bisected so a single poisoned pair cannot
        take its healthy neighbours down with it; a single-pair unit is
        retried until its retry budget is exhausted and only then reported
        as a per-pair error.  Input order and one-entry-per-pair are
        preserved throughout.  ``batch_retries=0`` restores fail-fast
        behaviour (no redispatch, the whole unit errors at once).
        """
        config = self.configuration
        entries: list[BatchEntry | None] = [None] * len(pairs)
        schedules = self._batch_schedules(pairs)
        # The parent's trace position rides inside every unit; workers build
        # a process-local tracer from it and return their finished spans in
        # the results, which the parent adopts below.  None when untraced.
        traceparent = trace.current_traceparent()
        tracer = trace.current_tracer()
        # Backoff between pool rebuilds: tiny but jittered, so concurrent
        # batches hammering a struggling machine spread their respawns out.
        # Seeded for reproducible chaos tests.
        policy = RetryPolicy(
            attempts=config.batch_retries,
            base=0.02,
            cap=0.5,
            rng=random.Random(config.seed if config.seed is not None else 0),
        )
        # Work queue of (unit, attempt, retries_left).  ``attempt`` rides
        # into the worker inside the BatchWorkUnit so injected worker deaths
        # are deterministic across freshly spawned processes.
        pending: deque[tuple[list, int, int]] = deque(
            (unit, 0, config.batch_retries)
            for unit in chunk_pairs(pairs, config.batch_chunk_size)
        )
        executor = concurrent.futures.ProcessPoolExecutor(
            max_workers=config.max_workers
        )
        barren_rounds = 0  # consecutive rounds in which nothing could run
        # A dying worker breaks the whole pool: every in-flight future fails
        # with BrokenProcessPool, including units whose only sin was sharing
        # the round with the culprit.  Such collateral failures must not
        # consume retry budgets, or one poisoned pair would bleed every
        # healthy neighbour dry.  After a pool break the loop switches to
        # *isolation* dispatch — one unit per round — where a failure is
        # attributable to the dispatched unit alone and bisect/retry/abandon
        # decisions are safe; a clean isolation round switches back to wide
        # dispatch.  The wide/isolation alternation guarantees progress:
        # every isolation round either fills entries or shrinks a unit or
        # consumes attributable budget.
        isolate = False
        try:
            while pending:
                futures: dict = {}
                while pending:
                    unit, attempt, retries_left = pending.popleft()
                    work = BatchWorkUnit(
                        configuration=config,
                        pairs=unit,
                        schedules={index: schedules[index] for index, _, _ in unit},
                        attempt=attempt,
                        traceparent=traceparent,
                    )
                    try:
                        future = executor.submit(verify_work_unit, work)
                    except Exception:  # noqa: BLE001 - pool broke during submit
                        pending.appendleft((unit, attempt, retries_left))
                        break
                    futures[future] = (unit, attempt, retries_left)
                    if isolate:
                        break
                pool_broken = False
                round_failed = False
                for future, (unit, attempt, retries_left) in futures.items():
                    try:
                        outcome = future.result()
                        for entry in outcome.entries:
                            entries[entry.index] = entry
                        if tracer is not None and outcome.spans:
                            tracer.adopt(outcome.spans)
                    except Exception as error:  # noqa: BLE001 - isolate unit failures
                        round_failed = True
                        collateral = isinstance(
                            error, concurrent.futures.process.BrokenProcessPool
                        )
                        pool_broken = pool_broken or collateral
                        if collateral and not isolate:
                            # Cannot tell culprit from bystander in a wide
                            # round: re-dispatch intact (budget untouched) and
                            # let the isolation rounds assign blame.
                            pending.append((unit, attempt + 1, retries_left))
                        else:
                            self._settle_failed_unit(
                                unit, attempt, retries_left, error, entries, pending
                            )
                if pool_broken:
                    isolate = True
                elif isolate and futures and not round_failed:
                    isolate = False
                if not futures:
                    # Submit itself failed before anything ran.  A handful of
                    # consecutive barren rounds means the pool cannot even be
                    # respawned — give up on whatever is still queued rather
                    # than rebuilding forever.
                    barren_rounds += 1
                    if barren_rounds > config.batch_retries + 1:
                        while pending:
                            unit, attempt, _ = pending.popleft()
                            self._settle_failed_unit(
                                unit,
                                attempt,
                                0,
                                RuntimeError("process pool could not be restarted"),
                                entries,
                                pending,
                            )
                        break
                else:
                    barren_rounds = 0
                if pool_broken or not futures:
                    # The pool lost a process (every in-flight future fails
                    # together) or submit itself failed: rebuild before the
                    # next round, backing off so respawn storms can't spin.
                    executor.shutdown(wait=False, cancel_futures=True)
                    executor = concurrent.futures.ProcessPoolExecutor(
                        max_workers=config.max_workers
                    )
                    with self._batch_stats_lock:
                        self._batch_stats["pool_rebuilds"] += 1
                    trace.add_event("batch.pool_rebuild", pending=len(pending))
                    _log.warning(
                        "process pool rebuilt after failure",
                        **fields(pending_units=len(pending)),
                    )
                    if pending:
                        policy.backoff()
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
        for index, (first, second) in enumerate(pairs):
            if entries[index] is None:  # defensive: a worker under-delivered
                entries[index] = _entry(
                    index, first, second, error="worker returned no entry for this pair"
                )
        return entries

    def _settle_failed_unit(
        self,
        unit: list,
        attempt: int,
        retries_left: int,
        error: Exception,
        entries: list,
        pending: deque,
    ) -> None:
        """Bisect / retry / abandon one failed work unit (process path).

        Multi-pair units are bisected (halves keep the retry budget — the
        shrinking size bounds the recursion); single-pair units consume one
        retry per redispatch; an exhausted single-pair unit is mapped onto
        its per-pair error entry.  With ``batch_retries=0`` every failed
        unit is abandoned at once, matching the historical fail-fast path.
        """
        if retries_left > 0 and len(unit) > 1:
            mid = len(unit) // 2
            with self._batch_stats_lock:
                self._batch_stats["unit_bisections"] += 1
            _log.info(
                "failed work unit bisected",
                **fields(pairs=len(unit), error=f"{type(error).__name__}: {error}"),
            )
            pending.append((unit[:mid], attempt + 1, retries_left))
            pending.append((unit[mid:], attempt + 1, retries_left))
            return
        if retries_left > 0:
            with self._batch_stats_lock:
                self._batch_stats["unit_retries"] += 1
            _log.info(
                "failed work unit re-dispatched",
                **fields(
                    attempt=attempt + 1,
                    retries_left=retries_left - 1,
                    error=f"{type(error).__name__}: {error}",
                ),
            )
            pending.append((unit, attempt + 1, retries_left - 1))
            return
        with self._batch_stats_lock:
            self._batch_stats["abandoned_units"] += 1
        _log.warning(
            "work unit abandoned; pairs reported as errors",
            **fields(pairs=len(unit), error=f"{type(error).__name__}: {error}"),
        )
        for index, first, second in unit:
            entries[index] = _entry(
                index, first, second, error=f"{type(error).__name__}: {error}"
            )

    def batch_statistics(self) -> dict:
        """Process-pool resilience counters (rebuilds/retries/bisections)."""
        with self._batch_stats_lock:
            return dict(self._batch_stats)

    def _batch_entry(
        self,
        index: int,
        first: QuantumCircuit,
        second: QuantumCircuit,
        schedule: Schedule | None = None,
    ) -> BatchEntry:
        """Run one dispatched batch pair with its parent-made schedule.

        Records nothing and skips the cache: the parent looked the pair up
        and records the returned entry, so pool threads and worker processes
        run the same code.
        """
        started = time.perf_counter()
        entry = _entry(index, first, second)
        try:
            with trace.span(
                "manager.run", first=entry.name_first, second=entry.name_second
            ) as run_span:
                entry.result = self._run_uncached(first, second, schedule=schedule)
                run_span.set_attr("criterion", entry.result.criterion.value)
        except Exception as error:  # noqa: BLE001 - isolate per-pair failures
            entry.error = f"{type(error).__name__}: {error}"
        entry.time_taken = time.perf_counter() - started
        return entry


def _entry(
    index: int, first: QuantumCircuit, second: QuantumCircuit, **values
) -> BatchEntry:
    """A batch entry named after its circuits (by position when unnamed)."""
    return BatchEntry(
        index=index,
        name_first=getattr(first, "name", None) or f"first[{index}]",
        name_second=getattr(second, "name", None) or f"second[{index}]",
        **values,
    )

def verify_portfolio(
    first: QuantumCircuit,
    second: QuantumCircuit,
    configuration: Configuration | None = None,
    **overrides,
) -> PortfolioResult:
    """Check one pair with a checker portfolio (convenience wrapper)."""
    return EquivalenceCheckingManager(configuration, **overrides).run(first, second)


def verify_batch(
    pairs: Sequence[tuple[QuantumCircuit, QuantumCircuit]],
    configuration: Configuration | None = None,
    **overrides,
) -> BatchResult:
    """Verify many circuit pairs concurrently (convenience wrapper)."""
    return EquivalenceCheckingManager(configuration, **overrides).verify_batch(pairs)
