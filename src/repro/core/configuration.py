"""Configuration of the equivalence-checking flows."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.exceptions import ConfigurationError
from repro.resilience.faults import FaultPlan

__all__ = ["Configuration"]

_STRATEGIES = ("naive", "one_to_one", "proportional", "lookahead")
_BACKENDS = ("dd", "dense")
_STIMULI = ("basis", "product")
_EXECUTORS = ("thread", "process")


def _registered_checkers() -> tuple[str, ...]:
    """Checker names known to the registry (the single source of truth).

    Imported lazily: the checker modules consume configuration values at run
    time, so importing them at this module's top level would be circular.
    """
    from repro.core.checkers import available_checkers

    return available_checkers()


def _registered_schedulers() -> tuple[str, ...]:
    from repro.core.scheduler import available_schedulers

    return available_schedulers()


@dataclass(frozen=True)
class Configuration:
    """All knobs of the equivalence checker.

    Attributes
    ----------
    method:
        Name of a registered checker (see :mod:`repro.core.checkers`):
        ``alternating`` (the QCEC-style scheme that keeps ``U * U'^dagger``
        close to the identity), ``construction`` (build both system matrices,
        then compare), ``simulation`` (random-stimuli check), ``distribution``
        (Scheme-2 measurement-outcome comparison), or any third-party checker
        added through the registry.
    strategy:
        Application strategy of the alternating scheme: ``naive``,
        ``one_to_one``, ``proportional`` (the paper's default) or
        ``lookahead``.
    backend:
        ``dd`` (decision diagrams) or ``dense`` (numpy, exponential memory —
        only sensible for small circuits and as ground truth in tests).
    transform_dynamic:
        Whether dynamic circuits are transformed to unitary circuits first
        (Section 4 of the paper).  When false, encountering a dynamic circuit
        raises.
    tolerance:
        Numerical tolerance of the identity / fidelity decisions.
    num_simulations:
        Number of random stimuli for the ``simulation`` method.
    stimuli_type:
        ``basis`` (random computational basis states) or ``product`` (random
        single-qubit product states).
    seed:
        Seed for the random stimuli.
    gate_cache:
        Whether the decision-diagram backend memoizes per-gate DDs (see
        :meth:`repro.dd.package.DDPackage.gate_cache_lookup`).  On by default;
        switching it off is mainly useful for benchmarking the cache itself.
    gate_cache_size:
        Upper bound on the number of memoized gate DDs (and operator chains)
        per :class:`~repro.dd.package.DDPackage`, evicted least-recently-used
        first.  ``None`` (the default) keeps the caches unbounded, which is
        fine for one-shot checks; long-lived worker processes should set a
        bound so their packages do not grow without limit.
    gate_cache_ttl:
        Time-based expiry (seconds) for the memoized gate DDs and operator
        chains: an entry older than the TTL is dropped lazily on lookup
        (expiry counters in ``DDPackage.statistics()``).  ``None`` (the
        default) never expires entries.  Meant for long-lived service
        workers whose traffic mix drifts over time — stale gate DDs age out
        instead of pinning memory forever.
    dense_cutoff:
        Hybrid dense-subtree cutoff of the DD kernels: sub-diagrams rooted
        strictly below this level are evaluated as dense numpy blocks
        (memoized per node) and re-imported through the normal normalizing
        node construction.  ``0`` disables the hybrid path; small positive
        values (4-8) trade an exponential-in-cutoff amount of per-subtree
        memory for far fewer Python-level recursion steps on the lowest
        levels.  Verdicts are unchanged either way — the dense path computes
        the same sums/products and lands in the same unique table.
    portfolio:
        Checker names run by the
        :class:`~repro.core.manager.EquivalenceCheckingManager`; every name
        is validated eagerly against the checker registry at construction
        time.  ``None`` selects the default portfolio (simulation as a fast
        falsifier, interleaved with the alternating scheme).
    scheduler:
        How the manager turns the portfolio into a per-pair checker lineup:
        ``static`` (configured order, uniform budgets — the historical
        behaviour) or ``adaptive`` (feature-driven reordering and budget
        splits; see :mod:`repro.core.scheduler`).  Third-party schedulers
        register under their own names.
    timeout:
        Overall wall-clock budget (seconds) of one portfolio run; ``None``
        disables the limit.
    checker_timeout:
        Budget (seconds) of each checker's own active time within a
        portfolio run, checked between its steps; ``None`` disables the
        limit.
    max_workers:
        Number of concurrent workers used by
        :meth:`~repro.core.manager.EquivalenceCheckingManager.verify_batch`
        (threads or processes, depending on ``executor``).
    executor:
        Execution backend of ``verify_batch``: ``thread`` (shared-memory
        thread pool; GIL-bound for the CPU-heavy DD checkers) or ``process``
        (a process pool fed with pickled circuit pairs; each worker process
        rebuilds its own manager and DD packages, which never cross process
        boundaries).
    batch_chunk_size:
        Number of circuit pairs per picklable work unit when
        ``executor == "process"``.  Larger chunks amortize pickling and
        process-dispatch overhead at the cost of coarser load balancing.
        Ignored by the thread executor.
    verdict_cache:
        Whether the :class:`~repro.core.manager.EquivalenceCheckingManager`
        consults a :class:`~repro.service.cache.VerdictCache` before
        scheduling any checker, keyed by the pair's canonical fingerprint
        plus the verdict-relevant configuration fields (see
        :mod:`repro.service.fingerprint`).  Also enables deduplication of
        identical pairs *within* a batch: each distinct pair runs once and
        the verdict fans out to its duplicates in input order.
    cache_path:
        Path of the verdict cache's persistent JSON-lines tier.  Setting it
        implies ``verdict_cache``; verdicts then survive process restarts.
    cache_size:
        LRU bound of the verdict cache's in-memory tier (``None`` keeps it
        unbounded).
    canonicalize:
        Whether cache lookups additionally consult a *canonicalized*
        fingerprint (circuits library-translated to the CX + single-qubit
        basis with merged single-qubit runs; see
        :mod:`repro.compilation.canonical`) so verdicts are shared across
        translation levels of the same logical pair.  Verdict-preserving:
        it only changes which cache entries a pair can hit, never what a
        fresh run decides — so it is deliberately *not* part of the
        fingerprinted configuration fields.  Automatically bypassed when
        the tolerance out-resolves the canonical angle grid.
    breaker_threshold:
        Consecutive-failure threshold of the per-checker circuit breakers
        (see :mod:`repro.resilience.breaker`): a checker that crashes or
        times out this many times in a row is quarantined until the
        cooldown expires, and the portfolio degrades to the remaining
        checkers.  ``None`` disables the breakers.  Deliberately *not* part
        of the fingerprinted configuration fields — quarantine changes which
        checkers run, never what a completed checker decides.
    breaker_cooldown:
        Seconds a tripped breaker stays open before admitting a single
        half-open probe run.
    batch_retries:
        Retry budget for process-pool work units in ``verify_batch``: a
        work unit lost to a dying worker (``BrokenProcessPool``) is
        re-dispatched up to this many times — with the pool rebuilt and the
        unit bisected so one poisoned pair cannot take healthy neighbours
        down with it — before its pairs are reported as errors.  ``0``
        restores fail-fast behaviour.  Ignored by the thread executor.
    fault_plan:
        Deterministic fault-injection plan
        (:class:`~repro.resilience.faults.FaultPlan`) for the chaos test
        suite; ``None`` — the only supported production value — makes every
        injection point a no-op.  Not fingerprinted: injected faults must
        never leak into cache keys.
    telemetry_path:
        Path of the run-telemetry journal
        (:class:`~repro.obs.telemetry.TelemetryJournal`): every settled run
        appends one crash-safe record (features, schedule, per-checker
        timings and outcomes, verdict, cache provenance) — the training
        substrate for a learned scheduler.  ``None`` (the default) disables
        telemetry.  Deliberately *not* part of the fingerprinted
        configuration fields — observing a run never changes its verdict —
        and forced off inside process-pool workers, whose records the
        parent writes after reassembly.
    """

    method: str = "alternating"
    strategy: str = "proportional"
    backend: str = "dd"
    transform_dynamic: bool = True
    tolerance: float = 1e-7
    num_simulations: int = 16
    stimuli_type: str = "product"
    seed: int | None = None
    gate_cache: bool = True
    gate_cache_size: int | None = None
    gate_cache_ttl: float | None = None
    dense_cutoff: int = 0
    portfolio: tuple[str, ...] | None = None
    scheduler: str = "static"
    timeout: float | None = None
    checker_timeout: float | None = None
    max_workers: int = 4
    executor: str = "thread"
    batch_chunk_size: int = 1
    verdict_cache: bool = False
    cache_path: str | None = None
    cache_size: int | None = 1024
    canonicalize: bool = True
    breaker_threshold: int | None = 5
    breaker_cooldown: float = 30.0
    batch_retries: int = 2
    fault_plan: FaultPlan | None = None
    telemetry_path: str | None = None

    def __post_init__(self) -> None:
        known_checkers = _registered_checkers()
        if self.method not in known_checkers:
            raise ConfigurationError(
                f"unknown method {self.method!r}; registered checkers: {known_checkers}"
            )
        if self.strategy not in _STRATEGIES:
            raise ConfigurationError(
                f"unknown strategy {self.strategy!r}; choose from {_STRATEGIES}"
            )
        if self.backend not in _BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; choose from {_BACKENDS}"
            )
        if self.stimuli_type not in _STIMULI:
            raise ConfigurationError(
                f"unknown stimuli type {self.stimuli_type!r}; choose from {_STIMULI}"
            )
        if self.tolerance <= 0:
            raise ConfigurationError("tolerance must be positive")
        if self.num_simulations < 1:
            raise ConfigurationError("num_simulations must be at least 1")
        if self.portfolio is not None:
            portfolio = tuple(self.portfolio)
            if not portfolio:
                raise ConfigurationError("portfolio must name at least one checker")
            for method in portfolio:
                if method not in known_checkers:
                    raise ConfigurationError(
                        f"unknown portfolio checker {method!r}; "
                        f"registered checkers: {known_checkers}"
                    )
            if len(set(portfolio)) != len(portfolio):
                raise ConfigurationError(f"duplicate checkers in portfolio {portfolio}")
            object.__setattr__(self, "portfolio", portfolio)
        known_schedulers = _registered_schedulers()
        if self.scheduler not in known_schedulers:
            raise ConfigurationError(
                f"unknown scheduler {self.scheduler!r}; "
                f"registered schedulers: {known_schedulers}"
            )
        for name in ("timeout", "checker_timeout"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigurationError(f"{name} must be positive (or None)")
        if self.max_workers < 1:
            raise ConfigurationError("max_workers must be at least 1")
        if self.executor not in _EXECUTORS:
            raise ConfigurationError(
                f"unknown executor {self.executor!r}; choose from {_EXECUTORS}"
            )
        if self.batch_chunk_size < 1:
            raise ConfigurationError("batch_chunk_size must be at least 1")
        if self.gate_cache_size is not None and self.gate_cache_size < 1:
            raise ConfigurationError("gate_cache_size must be at least 1 (or None)")
        if self.gate_cache_ttl is not None and self.gate_cache_ttl <= 0:
            raise ConfigurationError("gate_cache_ttl must be positive (or None)")
        if self.dense_cutoff < 0:
            raise ConfigurationError("dense_cutoff must be non-negative (0 disables)")
        if self.cache_size is not None and self.cache_size < 1:
            raise ConfigurationError("cache_size must be at least 1 (or None)")
        if not isinstance(self.canonicalize, bool):
            raise ConfigurationError(
                f"canonicalize must be a bool, got {self.canonicalize!r}"
            )
        if self.breaker_threshold is not None and self.breaker_threshold < 1:
            raise ConfigurationError(
                "breaker_threshold must be at least 1 (or None to disable)"
            )
        if self.breaker_cooldown <= 0:
            raise ConfigurationError("breaker_cooldown must be positive")
        if self.batch_retries < 0:
            raise ConfigurationError("batch_retries must be non-negative")
        if self.fault_plan is not None and not isinstance(self.fault_plan, FaultPlan):
            raise ConfigurationError(
                f"fault_plan must be a FaultPlan (or None), got {self.fault_plan!r}"
            )
        if self.telemetry_path is not None and not str(self.telemetry_path).strip():
            raise ConfigurationError("telemetry_path must be a non-empty path (or None)")

    @property
    def cache_enabled(self) -> bool:
        """Whether the manager consults a verdict cache (flag or persistent path)."""
        return self.verdict_cache or self.cache_path is not None

    def updated(self, **overrides) -> "Configuration":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)
