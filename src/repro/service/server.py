"""The transport-free verification job queue behind ``repro-qcec serve``.

:class:`VerificationService` turns the portfolio manager into a long-running
service: callers submit circuit pairs, the service queues them onto a worker
pool (the same executor machinery ``verify_batch`` uses), and callers collect
the verdict.  It owns the job table, the dedup index (identical in-flight
submissions coalesce onto one job by fingerprint), queue-limit backpressure,
graceful drain, settled-event plumbing for long-polls, and the metrics
registry.  Every decision (scheduling, caching, early termination) stays in
:class:`~repro.core.manager.EquivalenceCheckingManager`.

The HTTP front end, :class:`~repro.service.aserver.VerificationServer`,
only parses requests and routes them onto this class (the frontend/backend
split of modern automata tools, Kofola et al.); in-process users drive the
service directly.
"""

from __future__ import annotations

import hashlib
import math
import random
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.qasm import circuit_from_qasm
from repro.core.configuration import Configuration
from repro.core.manager import EquivalenceCheckingManager
from repro.exceptions import ReproError, ServiceError
from repro.obs import trace
from repro.obs.logs import fields, get_logger
from repro.obs.metrics import MetricsRegistry
from repro.resilience.breaker import STATE_VALUES
from repro.resilience.retry import RetryPolicy
from repro.service.fingerprint import fingerprints_sound_for, pair_fingerprint

__all__ = ["ParseMemo", "VerificationJob", "VerificationService"]

_log = get_logger("service.server")

#: Upper bound on a ``POST /jobs`` body.  Generous for QASM circuit pairs
#: (a 10k-gate circuit exports to well under 1 MB) while keeping a
#: misbehaving client from making the server buffer arbitrary data.
_MAX_BODY_BYTES = 32 * 1024 * 1024

#: Bounds of the service's parse memo, in charged characters: the total over
#: its entries, and the most one entry may be charged (a larger one is parsed
#: on every submission).  An entry is charged its text's characters plus one
#: per qubit, clbit and instruction of its circuit, so a short text that
#: declares a wide register or expands into many instructions pays for what
#: it builds.  The sender chooses the texts, so these constants, not the body
#: limit, bound the memo's memory: a charged character costs at most about
#: 220 bytes (a bit of a wide register; ordinary QASM, fingerprint forms
#: included, costs about 40), so the memo keeps at most about 7 MB alive.
PARSE_MEMO_CHARS = 32 * 1024
PARSE_MEMO_MAX_ENTRY = 8 * 1024

#: Cap on ``?wait=`` long-polls: a client asking for more still gets its
#: (possibly 409) answer after this many seconds and may simply re-issue the
#: request.  Bounds how long one request can hold its connection.
MAX_LONG_POLL_SECONDS = 30.0


class ParseMemo:
    """Parsed circuits of recently submitted QASM texts, in LRU order.

    Keyed by the SHA-256 of the text, so the memo holds no text.  An entry
    is charged its text's characters plus its circuit's bits and
    instructions (see :data:`PARSE_MEMO_CHARS`); the entries total at most
    ``max_chars``, and an entry charged more than ``max_entry`` or a text
    that fails to parse is never memoized.  A memoized circuit is shared by
    every job that sends its text, so nothing downstream may mutate it.
    """

    def __init__(
        self, max_chars: int = PARSE_MEMO_CHARS, max_entry: int = PARSE_MEMO_MAX_ENTRY
    ):
        self.max_chars = max_chars
        self.max_entry = max_entry
        self._entries: OrderedDict[bytes, tuple[QuantumCircuit, int]] = OrderedDict()
        self._lock = threading.Lock()
        self.chars = 0

    @staticmethod
    def charge(circuit: QuantumCircuit, text_chars: int) -> int:
        """What an entry for ``circuit``, parsed from ``text_chars``
        characters, counts against the memo's bounds."""
        return text_chars + circuit.num_qubits + circuit.num_clbits + len(circuit)

    def lookup(self, text: str) -> tuple[bytes, QuantumCircuit | None]:
        """The memo key of ``text`` and its circuit, None when not held."""
        # surrogatepass: a lone surrogate from a JSON body must reach the
        # parser (and its 400), not fail here.
        key = hashlib.sha256(text.encode("utf-8", "surrogatepass")).digest()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return key, None
            self._entries.move_to_end(key)
            return key, entry[0]

    def store(self, key: bytes, circuit: QuantumCircuit, text_chars: int) -> None:
        """Hold the circuit parsed from a text of ``text_chars`` characters."""
        size = self.charge(circuit, text_chars)
        if size > self.max_entry:
            return
        with self._lock:
            if key in self._entries:
                return
            self._entries[key] = (circuit, size)
            self.chars += size
            while self.chars > self.max_chars:
                _, (_, evicted) = self._entries.popitem(last=False)
                self.chars -= evicted

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class VerificationJob:
    """One queued verification: identity, lifecycle timestamps, outcome."""

    job_id: str
    fingerprint: str
    name_first: str
    name_second: str
    status: str = "queued"  # queued | running | done | failed
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    result: dict | None = None
    error: str | None = None
    # Client trace position (W3C ``traceparent``) the job execution should
    # continue; the finished spans land in ``trace`` when the job settles.
    traceparent: str | None = None
    trace_id: str | None = None
    trace: list = field(default_factory=list, repr=False, compare=False)
    # Set exactly once, when the job settles; long-poll waiters block on it.
    settled: threading.Event = field(
        default_factory=threading.Event, repr=False, compare=False
    )

    def status_payload(self) -> dict:
        return {
            "job_id": self.job_id,
            "status": self.status,
            "fingerprint": self.fingerprint,
            "first": self.name_first,
            "second": self.name_second,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
        }


class VerificationService:
    """Transport-free job queue: submit, execute on a pool, collect, dedupe.

    One :class:`~repro.core.manager.EquivalenceCheckingManager` (and hence
    one verdict cache) is shared across the worker pool; worker concurrency
    is ``configuration.max_workers``, which otherwise sizes only the process
    pool of ``verify_batch``.  The
    service enables the verdict cache by default — a server that forgets
    repeat traffic between requests would miss the entire point; pass
    ``cache=False`` for a service whose every submission must run fresh
    (e.g. unseeded simulative traffic that should redraw stimuli, or
    latency benchmarking).

    ``queue_limit`` bounds the number of unsettled jobs: once that many are
    queued or running, new (non-coalescing) submissions are rejected with a
    429 :class:`ServiceError` carrying ``retry_after``.  ``None`` (the
    default) keeps the queue unbounded for in-process users; the HTTP
    front end enables it.

    The job table keeps the most recent ``max_finished_jobs`` settled jobs
    for polling; older ones are pruned, which bounds server memory
    regardless of uptime.  Pruning never touches the verdict cache, and a
    pruned-but-settled job id remains *resolvable*: its result is served
    from the verdict cache when possible and otherwise answered with a
    distinguishable 410 ("pruned, resubmit") instead of a bare 404.
    """

    def __init__(
        self,
        configuration: Configuration | None = None,
        *,
        cache: bool = True,
        max_finished_jobs: int = 1024,
        queue_limit: int | None = None,
        metrics: MetricsRegistry | None = None,
        job_retries: int = 2,
    ):
        configuration = configuration or Configuration()
        if cache and not configuration.cache_enabled:
            configuration = configuration.updated(verdict_cache=True)
        if not cache and configuration.cache_enabled:
            configuration = configuration.updated(verdict_cache=False, cache_path=None)
        if max_finished_jobs < 1:
            raise ServiceError("max_finished_jobs must be at least 1", status=500)
        if queue_limit is not None and queue_limit < 1:
            raise ServiceError("queue_limit must be at least 1", status=500)
        if job_retries < 0:
            raise ServiceError("job_retries must be non-negative", status=500)
        self.configuration = configuration
        # Dedup by fingerprint is only sound when the tolerance cannot
        # out-resolve the canonical form (same rule the manager applies to
        # its cache); otherwise every submission gets its own job.
        self._dedup_enabled = fingerprints_sound_for(configuration)
        self.max_finished_jobs = max_finished_jobs
        self.queue_limit = queue_limit
        self.manager = EquivalenceCheckingManager(configuration)
        self._executor = ThreadPoolExecutor(
            max_workers=configuration.max_workers, thread_name_prefix="verify-service"
        )
        self._lock = threading.Lock()
        self._jobs: dict[str, VerificationJob] = {}
        self._in_flight: dict[str, str] = {}  # fingerprint -> queued/running job id
        self._finished: deque[str] = deque()  # settled job ids, oldest first
        # Pruned-but-settled jobs stay resolvable: job id -> (fingerprint,
        # name_first, name_second, final status).  Bounded like the job table.
        self._pruned: dict[str, tuple[str, str, str, str]] = {}
        self._pruned_order: deque[str] = deque()
        self._max_pruned = max(1024, 8 * max_finished_jobs)
        self._listeners: dict[str, list[Callable[[], None]]] = {}
        self._active = 0  # queued + running jobs
        self._next_id = 0
        self._started_at = time.time()
        self.submitted = 0
        self.executed = 0
        self.coalesced = 0
        self.failed = 0
        self.rejected = 0
        # Per-job retry budget for checker-level crashes: a job whose
        # portfolio run *raises* (not one that merely concludes
        # NO_INFORMATION) is re-run up to this many times with jittered
        # backoff before being settled as failed.
        self.job_retries = job_retries
        self.job_retries_performed = 0
        self._draining = False
        self.parse_memo = ParseMemo()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._register_metrics()
        # The manager observes per-checker latency histograms and cache-hit
        # counters into the same registry.
        self.manager.metrics = self.metrics

    def _register_metrics(self) -> None:
        registry = self.metrics
        self._m_submitted = registry.counter(
            "repro_service_submissions_total",
            "Circuit-pair submissions accepted by the job queue.",
        )
        self._m_parse_memo = registry.counter(
            "repro_qasm_parse_memo_total",
            "QASM texts of submissions, by whether the parse memo held them.",
            labelnames=("result",),
        )
        self._m_coalesced = registry.counter(
            "repro_service_coalesced_total",
            "Submissions answered with an existing in-flight job id.",
        )
        self._m_rejected = registry.counter(
            "repro_service_rejected_total",
            "Submissions rejected before queueing.",
            labelnames=("reason",),
        )
        self._m_settled = registry.counter(
            "repro_service_jobs_settled_total",
            "Jobs that reached a terminal status.",
            labelnames=("status",),
        )
        self._m_job_seconds = registry.histogram(
            "repro_service_job_seconds",
            "Submission-to-settlement latency of verification jobs.",
            labelnames=("status",),
        )
        depth = registry.gauge(
            "repro_service_queue_depth",
            "Jobs currently queued or running.",
        )
        depth.set_function(self.queue_depth)
        cache_events = registry.gauge(
            "repro_verdict_cache_events",
            "Verdict-cache lifetime counters (harvested at scrape time).",
            labelnames=("event",),
        )
        cache_entries = registry.gauge(
            "repro_verdict_cache_entries",
            "Entries currently held by the verdict cache.",
        )
        cache_hit_ratio = registry.gauge(
            "repro_verdict_cache_hit_ratio",
            "Fraction of verdict-cache lookups that hit.",
        )

        def _collect_cache() -> None:
            cache = self.manager.verdict_cache
            if cache is None:
                return
            stats = cache.statistics()
            for event in ("hits", "misses", "persistent_hits", "stores", "evictions"):
                cache_events.set(float(stats[event]), event=event)
            cache_entries.set(float(stats["entries"]))
            cache_hit_ratio.set(float(stats["hit_ratio"]))

        registry.add_collector(_collect_cache)

        # Pre-create the run and canonicalization instruments (idempotent
        # with the manager's own constructors) so both series appear on
        # ``GET /metrics`` from the very first scrape, and so ``stats()`` can
        # read them back without existence checks.
        self._m_runs = registry.counter(
            "repro_manager_runs_total",
            "Pair checks by outcome (cache hit vs. executed portfolio run).",
            labelnames=("outcome",),
        )
        self._m_canonical = registry.counter(
            "repro_canonical_fingerprints_total",
            "Canonical (translation-level-invariant) fingerprint computations.",
            labelnames=("status",),
        )

        # --- resilience instruments (PR 8) -----------------------------
        self._m_job_retries = registry.counter(
            "repro_service_job_retries_total",
            "Job executions retried after a checker-level crash.",
        )

        # --- observability instruments (PR 10) -------------------------
        from repro import __version__

        build_info = registry.gauge(
            "repro_build_info",
            "Build information; the value is always 1, the version rides "
            "in the label.",
            labelnames=("version",),
        )
        build_info.set(1.0, version=__version__)
        self._m_trace_spans = registry.counter(
            "repro_trace_spans_total",
            "Trace spans finished by traced job executions.",
        )
        draining = registry.gauge(
            "repro_service_draining",
            "1 while the service is draining (rejecting new submissions).",
        )
        draining.set_function(lambda: 1.0 if self._draining else 0.0)
        breaker_state = registry.gauge(
            "repro_breaker_state",
            "Per-checker circuit-breaker state (0=closed, 1=half-open, 2=open).",
            labelnames=("checker",),
        )
        breaker_events = registry.gauge(
            "repro_breaker_events",
            "Per-checker circuit-breaker lifetime counters "
            "(harvested at scrape time).",
            labelnames=("checker", "event"),
        )
        journal_events = registry.gauge(
            "repro_journal_events",
            "Crash-safe verdict-journal counters (recovery, appends, "
            "compactions, errors).",
            labelnames=("event",),
        )
        batch_events = registry.gauge(
            "repro_batch_resilience_events",
            "Process-pool batch resilience counters (pool rebuilds, unit "
            "retries/bisections, abandoned units).",
            labelnames=("event",),
        )
        # Pre-touch one series per family so every resilience family renders
        # on the very first scrape (matching the canonicalization
        # behaviour the dashboards rely on).
        journal_events.set(0.0, event="write_errors")

        def _collect_resilience() -> None:
            breakers = self.manager.breakers
            if breakers is not None:
                # Materialize a breaker per configured checker so the state
                # gauges render (closed) from the very first scrape.
                for name in self.manager.portfolio:
                    breakers.breaker(name)
                for name, snap in breakers.snapshot().items():
                    breaker_state.set(
                        float(STATE_VALUES[snap["state"]]), checker=name
                    )
                    for event in (
                        "failures",
                        "successes",
                        "opens",
                        "closes",
                        "probes",
                        "rejections",
                    ):
                        breaker_events.set(
                            float(snap[event]), checker=name, event=event
                        )
            cache = self.manager.verdict_cache
            if cache is not None:
                stats = cache.statistics()
                journal_events.set(
                    float(stats["journal_errors"]), event="write_errors"
                )
                journal = stats.get("journal")
                if journal is not None:
                    for event in (
                        "recovered",
                        "dropped",
                        "legacy",
                        "truncated_bytes",
                        "appends",
                        "compactions",
                    ):
                        journal_events.set(float(journal[event]), event=event)
            for event, value in self.manager.batch_statistics().items():
                batch_events.set(float(value), event=event)

        registry.add_collector(_collect_resilience)

    # ------------------------------------------------------------------
    # job lifecycle
    # ------------------------------------------------------------------

    def submit_qasm(
        self, first_qasm: str, second_qasm: str, *, traceparent: str | None = None
    ) -> dict:
        """Parse and queue a pair given as OpenQASM 2 text.

        Returns the ``POST /jobs`` payload.  Each text is parsed once while
        the :class:`ParseMemo` holds it: a resent text reuses its circuit,
        and with it the fingerprint forms the circuit keeps.  A malformed
        circuit raises :class:`ServiceError` with status 400 on every
        submission — submission errors belong to the submitter, not to the
        job queue.
        """
        try:
            first = self._parse(first_qasm)
            second = self._parse(second_qasm)
        except ReproError as error:
            raise ServiceError(f"invalid circuit payload: {error}", status=400) from error
        return self.submit(first, second, traceparent=traceparent)

    def _parse(self, text: str) -> QuantumCircuit:
        key, circuit = self.parse_memo.lookup(text)
        if circuit is not None:
            self._m_parse_memo.inc(result="hit")
            return circuit
        self._m_parse_memo.inc(result="miss")
        circuit = circuit_from_qasm(text)
        self.parse_memo.store(key, circuit, len(text))
        return circuit

    def submit(self, first, second, *, traceparent: str | None = None) -> dict:
        """Queue one circuit pair; identical in-flight submissions coalesce.

        Raises :class:`ServiceError` 429 (with ``retry_after``) when a
        configured ``queue_limit`` is reached — coalesced submissions are
        exempt, they consume no queue slot — and 503 (with ``Retry-After``)
        while the service is draining for shutdown.
        """
        # Submit-site fault injection (no-op without a plan): "reject"
        # simulates a 429/503 storm, "sleep" a black-holed submission.
        self.manager.fault_injector.fire("submit")
        fingerprint = pair_fingerprint(first, second, self.configuration)
        with self._lock:
            self.submitted += 1
            self._m_submitted.inc()
            existing_id = (
                self._in_flight.get(fingerprint) if self._dedup_enabled else None
            )
            if existing_id is not None:
                self.coalesced += 1
                self._m_coalesced.inc()
                return {
                    "job_id": existing_id,
                    "fingerprint": fingerprint,
                    "coalesced": True,
                }
            if self._draining:
                self.rejected += 1
                self._m_rejected.inc(reason="draining")
                raise ServiceError(
                    "service is draining for shutdown; resubmit elsewhere or "
                    "retry later",
                    status=503,
                    retry_after=max(
                        1.0,
                        math.ceil(
                            self._active / max(1, self.configuration.max_workers)
                        ),
                    ),
                )
            if self.queue_limit is not None and self._active >= self.queue_limit:
                self.rejected += 1
                self._m_rejected.inc(reason="backpressure")
                # Rough drain estimate: a full queue clears one worker-batch
                # at a time; clients should back off at least one second.
                retry_after = max(
                    1.0,
                    math.ceil(self._active / max(1, self.configuration.max_workers)),
                )
                raise ServiceError(
                    f"job queue is full ({self._active} unsettled jobs, "
                    f"limit {self.queue_limit}); retry later",
                    status=429,
                    retry_after=retry_after,
                )
            self._next_id += 1
            # A malformed traceparent is ignored (the job gets a fresh
            # trace) rather than rejected: tracing must never fail a submit.
            if traceparent is not None and trace.parse_traceparent(traceparent) is None:
                traceparent = None
            job = VerificationJob(
                job_id=f"job-{self._next_id:06d}",
                fingerprint=fingerprint,
                name_first=getattr(first, "name", "first"),
                name_second=getattr(second, "name", "second"),
                traceparent=traceparent,
            )
            self._jobs[job.job_id] = job
            self._active += 1
            if self._dedup_enabled:
                self._in_flight[fingerprint] = job.job_id
        try:
            self._executor.submit(self._execute, job, first, second)
        except RuntimeError as error:
            # The pool is shutting down: un-register the job, or its
            # fingerprint would coalesce later submissions onto a forever-
            # "queued" husk that no worker will ever pick up.
            with self._lock:
                self._jobs.pop(job.job_id, None)
                self._active -= 1
                if self._in_flight.get(job.fingerprint) == job.job_id:
                    del self._in_flight[job.fingerprint]
            raise ServiceError(
                f"service is shutting down: {error}", status=503
            ) from error
        return {"job_id": job.job_id, "fingerprint": fingerprint, "coalesced": False}

    def _execute(self, job: VerificationJob, first, second) -> None:
        with self._lock:
            job.status = "running"
            job.started_at = time.time()
        result_payload: dict | None = None
        error_text: str | None = None
        # Per-job retry budget: a checker-level crash (the portfolio run
        # *raising*, not concluding) is usually transient — a dying worker,
        # an injected fault, a resource spike — and worth a bounded, backed-
        # off re-run before the job settles as failed.
        retries_left = self.job_retries
        policy = RetryPolicy(
            attempts=self.job_retries, base=0.02, cap=0.5, rng=random.Random(0)
        )
        # Every job execution is traced: a client-supplied traceparent makes
        # the job's spans part of the client's distributed trace, otherwise
        # the job roots a fresh trace.  Either way the finished spans are
        # kept on the job for ``GET /jobs/<id>/trace``.
        tracer = (
            trace.Tracer.from_traceparent(job.traceparent)
            if job.traceparent is not None
            else trace.Tracer()
        )
        with trace.activate(tracer), trace.span(
            "job.execute", job_id=job.job_id, fingerprint=job.fingerprint
        ) as job_span:
            while True:
                try:
                    # The submission path already fingerprinted the pair for
                    # dedup; hand the digest to the manager so a cache hit
                    # does not pay for a second canonicalization pass.
                    result = self.manager.run(
                        first, second, fingerprint=job.fingerprint
                    )
                    result_payload = {
                        "first": job.name_first,
                        "second": job.name_second,
                        **result.to_json(),
                    }
                    error_text = None
                    break
                except Exception as error:  # noqa: BLE001 - isolate per-job failures
                    error_text = f"{type(error).__name__}: {error}"
                    trace.add_event("job.attempt_failed", error=error_text)
                    if retries_left <= 0:
                        break
                    retries_left -= 1
                    with self._lock:
                        self.job_retries_performed += 1
                    self._m_job_retries.inc()
                    _log.info(
                        "job retried after checker-level crash",
                        **fields(
                            job_id=job.job_id,
                            error=error_text,
                            retries_left=retries_left,
                        ),
                    )
                    policy.backoff()
            job_span.set_attr(
                "status", "done" if result_payload is not None else "failed"
            )
            job_span.set_attr("retries", self.job_retries - retries_left)
        # Settle the job: every field a reader can observe changes under the
        # lock, in one critical section — a concurrent ``job_status`` sees
        # either the running job or the fully settled one, never a torn
        # status/result/timestamp combination.
        spans = tracer.export()
        self._m_trace_spans.inc(len(spans))
        with self._lock:
            if result_payload is not None:
                job.result = result_payload
                job.status = "done"
                self.executed += 1
            else:
                job.error = error_text
                job.status = "failed"
                self.failed += 1
            job.trace_id = tracer.trace_id
            job.trace = spans
            job.finished_at = time.time()
            self._active -= 1
            self._m_settled.inc(status=job.status)
            self._m_job_seconds.observe(
                job.finished_at - job.submitted_at, status=job.status
            )
            # Drop the dedup index entry only if it still points at this
            # job: later identical submissions must queue a fresh run once
            # this one has settled (the verdict cache serves them fast).
            if self._in_flight.get(job.fingerprint) == job.job_id:
                del self._in_flight[job.fingerprint]
            # Retention: keep only the newest settled jobs around for
            # polling so the table cannot grow without bound.  Pruned jobs
            # leave a resolvable stub behind (see job_result).
            self._finished.append(job.job_id)
            while len(self._finished) > self.max_finished_jobs:
                pruned_id = self._finished.popleft()
                pruned = self._jobs.pop(pruned_id, None)
                if pruned is not None:
                    self._pruned[pruned_id] = (
                        pruned.fingerprint,
                        pruned.name_first,
                        pruned.name_second,
                        pruned.status,
                    )
                    self._pruned_order.append(pruned_id)
            while len(self._pruned_order) > self._max_pruned:
                self._pruned.pop(self._pruned_order.popleft(), None)
            listeners = self._listeners.pop(job.job_id, [])
        # Wake long-poll waiters outside the lock: listener callbacks may
        # take their own locks (asyncio loop internals) and must not be able
        # to deadlock against job submission.
        job.settled.set()
        for callback in listeners:
            try:
                callback()
            except Exception:  # noqa: BLE001 - a dead waiter must not poison others
                continue

    # ------------------------------------------------------------------
    # completion waiting
    # ------------------------------------------------------------------

    def wait_settled(self, job_id: str, timeout: float) -> bool:
        """Block until ``job_id`` settles or ``timeout`` seconds pass.

        Returns True once the job is settled (or unknown/pruned — the
        follow-up ``job_result`` call resolves those to their proper
        errors); False on timeout.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.status in ("done", "failed"):
                return True
            event = job.settled
        return event.wait(timeout)

    def add_settled_listener(self, job_id: str, callback: Callable[[], None]) -> bool:
        """Invoke ``callback`` (once, from the worker thread) when the job settles.

        Returns False — without registering — when the job is already
        settled, pruned or unknown, so a caller can fall through to
        ``job_result`` immediately.  The HTTP front end registers a
        ``loop.call_soon_threadsafe`` trampoline here.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.status in ("done", "failed"):
                return False
            self._listeners.setdefault(job_id, []).append(callback)
            return True

    # ------------------------------------------------------------------
    # job lookup
    # ------------------------------------------------------------------

    def job_status(self, job_id: str) -> dict:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None:
                return job.status_payload()
            pruned = self._pruned.get(job_id)
        if pruned is not None:
            raise ServiceError(
                f"job {job_id!r} settled as {pruned[3]!r} and was pruned from the "
                "job table; fetch its result or resubmit the pair",
                status=410,
            )
        raise ServiceError(f"unknown job {job_id!r}", status=404)

    def job_result(self, job_id: str) -> dict:
        """The verdict payload of a finished job.

        Raises :class:`ServiceError` 409 while the job is still queued or
        running (poll or long-poll again) and 500 for a failed job.  A job
        pruned by the ``max_finished_jobs`` retention policy is served from
        the verdict cache when its verdict is still there, and otherwise
        answered with 410 — distinguishable from the 404 of a job id this
        server never issued.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None:
                if job.status in ("queued", "running"):
                    raise ServiceError(
                        f"job {job_id!r} is still {job.status}; poll again", status=409
                    )
                if job.status == "failed":
                    raise ServiceError(
                        f"job {job_id!r} failed: {job.error}", status=500
                    )
                assert job.result is not None
                return dict(job.result)
            pruned = self._pruned.get(job_id)
        if pruned is None:
            raise ServiceError(f"unknown job {job_id!r}", status=404)
        fingerprint, name_first, name_second, status = pruned
        if status == "done":
            cache = self.manager.verdict_cache
            cached = cache.get(fingerprint) if cache is not None else None
            if cached is not None:
                return {
                    "first": name_first,
                    "second": name_second,
                    **cached.to_json(),
                    "served_from": "verdict_cache",
                }
        raise ServiceError(
            f"job {job_id!r} settled as {status!r} but was pruned and its verdict "
            "is no longer cached; resubmit the pair",
            status=410,
        )

    def job_trace(self, job_id: str) -> dict:
        """The span tree of a settled job (``GET /jobs/<id>/trace``).

        Raises 409 while the job is still queued or running, 410 for a
        pruned job (traces are not retained past the job table) and 404
        for a job id this server never issued.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None:
                if job.status in ("queued", "running"):
                    raise ServiceError(
                        f"job {job_id!r} is still {job.status}; its trace is "
                        "available once it settles",
                        status=409,
                    )
                return {
                    "job_id": job.job_id,
                    "trace_id": job.trace_id,
                    "traceparent": job.traceparent,
                    "spans": len(job.trace),
                    "tree": trace.span_tree(job.trace),
                }
            pruned = self._pruned.get(job_id)
        if pruned is None:
            raise ServiceError(f"unknown job {job_id!r}", status=404)
        raise ServiceError(
            f"job {job_id!r} was pruned from the job table; its trace is no "
            "longer retained",
            status=410,
        )

    # ------------------------------------------------------------------
    # reporting and shutdown
    # ------------------------------------------------------------------

    def queue_depth(self) -> int:
        """Number of jobs currently queued or running."""
        with self._lock:
            return self._active

    @property
    def draining(self) -> bool:
        return self._draining

    def health(self) -> dict:
        """Machine-readable liveness/readiness payload for ``GET /healthz``.

        Always ``ok: True`` (the process is alive and answering — fleet
        supervisors must not kill a degraded-but-serving instance), but
        ``status`` distinguishes ``healthy`` from ``degraded`` and
        ``reasons`` lists exactly what degraded it: open circuit breakers,
        a verdict journal that fell back to memory-only, a saturated queue,
        or an in-progress drain.
        """
        from repro import __version__

        reasons: list[str] = []
        breakers = self.manager.breakers
        if breakers is not None:
            for name in breakers.quarantined():
                reasons.append(f"circuit breaker open: checker {name!r} quarantined")
        cache = self.manager.verdict_cache
        if cache is not None:
            stats = cache.statistics()
            if stats["journal_errors"]:
                reasons.append(
                    "verdict journal degraded to memory-only after "
                    f"{stats['journal_errors']} write error(s)"
                )
        with self._lock:
            active = self._active
            draining = self._draining
        if self.queue_limit is not None and active >= self.queue_limit:
            reasons.append(
                f"job queue saturated ({active}/{self.queue_limit} unsettled jobs)"
            )
        if draining:
            reasons.append("draining: new submissions are rejected with 503")
        return {
            "ok": True,
            "version": __version__,
            "status": "degraded" if reasons else "healthy",
            "reasons": reasons,
            "draining": draining,
        }

    # ------------------------------------------------------------------
    # graceful drain
    # ------------------------------------------------------------------

    def begin_drain(self) -> None:
        """Stop accepting new submissions (503 + Retry-After); keep serving."""
        with self._lock:
            self._draining = True

    def drain(self, timeout: float = 30.0) -> bool:
        """Gracefully wind down: reject new work, finish in-flight jobs.

        Blocks until every queued/running job settles or ``timeout`` seconds
        pass, then flushes the verdict journal either way.  Status and
        result endpoints keep answering throughout (and after), so clients
        can still collect verdicts for jobs that finished during the drain.
        Returns True when the queue fully drained in time.
        """
        self.begin_drain()
        deadline = time.monotonic() + max(0.0, timeout)
        drained = False
        while True:
            with self._lock:
                if self._active == 0:
                    drained = True
                    break
            if time.monotonic() >= deadline:
                break
            time.sleep(0.02)
        cache = self.manager.verdict_cache
        if cache is not None:
            cache.flush()
        return drained

    def stats(self) -> dict:
        from repro import __version__

        with self._lock:
            by_status: dict[str, int] = {}
            for job in self._jobs.values():
                by_status[job.status] = by_status.get(job.status, 0) + 1
            cache = self.manager.verdict_cache
            cache_stats = cache.statistics() if cache is not None else None
            return {
                "version": __version__,
                "uptime": time.time() - self._started_at,
                "max_workers": self.configuration.max_workers,
                "submitted": self.submitted,
                "executed": self.executed,
                "coalesced": self.coalesced,
                "failed": self.failed,
                "rejected": self.rejected,
                "queue_depth": self._active,
                "queue_limit": self.queue_limit,
                "in_flight": len(self._in_flight),
                "pruned": len(self._pruned),
                "jobs": by_status,
                "cache": cache_stats,
                "parse_memo": {
                    "hits": int(self._m_parse_memo.value(result="hit")),
                    "misses": int(self._m_parse_memo.value(result="miss")),
                    "entries": len(self.parse_memo),
                    "chars": self.parse_memo.chars,
                },
                "canonicalization": {
                    "enabled": self.configuration.canonicalize,
                    "cache_hits": int(
                        self._m_runs.value(outcome="canonical_cache_hit")
                    ),
                    "fingerprints_computed": int(
                        self._m_canonical.value(status="computed")
                    ),
                    "fingerprints_unavailable": int(
                        self._m_canonical.value(status="unavailable")
                    ),
                },
                "resilience": {
                    "draining": self._draining,
                    "job_retries": self.job_retries,
                    "job_retries_performed": self.job_retries_performed,
                    "breakers": (
                        self.manager.breakers.snapshot()
                        if self.manager.breakers is not None
                        else None
                    ),
                    "batch": self.manager.batch_statistics(),
                    "journal": (
                        cache_stats.get("journal") if cache_stats is not None else None
                    ),
                },
                "telemetry": (
                    self.manager.telemetry.statistics()
                    if self.manager.telemetry is not None
                    else None
                ),
            }

    def shutdown(self, wait: bool = True) -> None:
        self._executor.shutdown(wait=wait)


def parse_wait_seconds(query: dict[str, list[str]]) -> float:
    """The ``?wait=`` long-poll budget of a result request, validated and capped."""
    raw = query.get("wait")
    if not raw:
        return 0.0
    try:
        wait = float(raw[0])
    except ValueError:
        raise ServiceError(f"invalid wait value {raw[0]!r}", status=400) from None
    if wait < 0 or wait != wait:  # negative or NaN
        raise ServiceError(f"invalid wait value {raw[0]!r}", status=400)
    return min(wait, MAX_LONG_POLL_SECONDS)
