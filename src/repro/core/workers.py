"""Process-pool work units for batch verification.

:meth:`~repro.core.manager.EquivalenceCheckingManager.verify_batch` can run on
a ``ProcessPoolExecutor`` (``Configuration.executor == "process"``), which
requires every work unit to round-trip through ``pickle``:

* the *input* of a unit is a :class:`BatchWorkUnit` — the (picklable)
  :class:`~repro.core.configuration.Configuration`, a chunk of indexed
  circuit pairs (:class:`~repro.circuit.circuit.QuantumCircuit` defines
  ``__getstate__``/``__setstate__``, gates and instructions define
  ``__reduce__``), the parent's per-pair scheduling decisions
  (:class:`~repro.core.scheduler.Schedule` objects are plain frozen
  dataclasses, picklable by design) and the parent's trace position as a
  W3C ``traceparent`` string;
* the *worker* is the top-level function :func:`verify_work_unit`, importable
  by name from any start method (fork, spawn, forkserver);
* the *output* is a :class:`WorkUnitResult`: plain
  :class:`~repro.core.results.BatchEntry` objects plus the finished trace
  spans that would otherwise die with the worker process (serialized as
  dicts, already parented under the parent's batch span via the shipped
  ``traceparent``).  Workers record nothing: the entries' attempt details
  carry everything the parent's recorder derives metrics, decision-diagram
  statistics and telemetry from.

Each worker process rebuilds its own
:class:`~repro.core.manager.EquivalenceCheckingManager` from the configuration;
decision-diagram packages and their caches are created inside the checkers and
stay strictly process-local (:class:`~repro.dd.package.DDPackage` refuses to be
pickled).  Per-pair failure isolation is identical to the calling-thread
path: the entries of a failing pair record the error, the rest of the chunk
proceeds.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

from repro.circuit.circuit import QuantumCircuit
from repro.core.configuration import Configuration
from repro.core.results import BatchEntry
from repro.core.scheduler import Schedule
from repro.obs import trace

__all__ = ["BatchWorkUnit", "WorkUnitResult", "chunk_pairs", "verify_work_unit"]


@dataclass
class BatchWorkUnit:
    """A picklable shard of a batch: configuration, indexed pairs, schedules.

    ``pairs`` holds ``(index, first, second)`` triples; ``index`` is the
    position in the original batch so that results can be reassembled in input
    order regardless of completion order.  ``schedules`` maps pair indices to
    the scheduling decisions the parent process already made — workers replay
    them verbatim instead of re-deriving, so a pair's recorded lineup is the
    same no matter which side of the process boundary ran it.  ``attempt``
    counts re-dispatches of this unit by the parent's retry loop (0 on first
    dispatch); the fault-injection harness keys worker-death rules on it so
    an injected crash is deterministic across freshly spawned processes.
    ``traceparent`` carries the parent's trace position (None when the batch
    is untraced): the worker continues that trace and returns its finished
    spans inside the :class:`WorkUnitResult`.
    """

    configuration: Configuration
    pairs: list[tuple[int, QuantumCircuit, QuantumCircuit]]
    schedules: dict[int, Schedule] = field(default_factory=dict)
    attempt: int = 0
    traceparent: str | None = None


@dataclass
class WorkUnitResult:
    """What one work unit sends back: entries plus their trace spans.

    ``spans`` are finished :class:`~repro.obs.trace.Span` dicts (empty when
    the unit was untraced).
    """

    entries: list[BatchEntry]
    spans: list[dict] = field(default_factory=list)


def chunk_pairs(
    pairs: Sequence[tuple[QuantumCircuit, QuantumCircuit]], chunk_size: int
) -> Iterator[list[tuple[int, QuantumCircuit, QuantumCircuit]]]:
    """Shard ``pairs`` into lists of at most ``chunk_size`` indexed triples."""
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
    chunk: list[tuple[int, QuantumCircuit, QuantumCircuit]] = []
    for index, (first, second) in enumerate(pairs):
        chunk.append((index, first, second))
        if len(chunk) == chunk_size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def verify_work_unit(unit: BatchWorkUnit) -> WorkUnitResult:
    """Verify one work unit inside a worker process.

    Top-level (hence picklable by reference) entry point for
    ``ProcessPoolExecutor``.  Rebuilds a manager from the unit's configuration
    — forced onto the thread executor so a worker can never recursively spawn
    process pools, with the verdict cache disabled (worker caches would be
    process-local and concurrent appends to a shared ``cache_path`` journal
    from many workers could interleave) and with telemetry disabled (the
    worker records nothing, so it need not open the journal).  The parent's
    :meth:`~repro.core.manager.EquivalenceCheckingManager.verify_batch`
    dedupes and looks pairs up before chunking, and stores and records the
    reassembled entries, so each pair is recorded exactly once.

    When the unit carries a ``traceparent``, a process-local
    :class:`~repro.obs.trace.Tracer` continues the parent's trace: each
    pair's ``manager.run`` span hangs off the parent's batch span, and the
    finished spans travel back as dicts in the result.
    """
    # Imported here, not at module top, to avoid a circular import with
    # repro.core.manager (which imports this module for chunking).
    from repro.core.manager import EquivalenceCheckingManager
    from repro.resilience.faults import FaultInjector

    manager = EquivalenceCheckingManager(
        unit.configuration.updated(
            executor="thread",
            verdict_cache=False,
            cache_path=None,
            telemetry_path=None,
        )
    )
    # Worker-site fault injection (a no-op without a fault plan): rules are
    # matched against the pair index and keyed on the unit's attempt number,
    # so an "exit" rule kills this process deterministically — including
    # after the parent respawned the pool — until the attempt count outgrows
    # the rule's ``times`` budget.
    injector = FaultInjector(unit.configuration.fault_plan)
    tracer = (
        trace.Tracer.from_traceparent(unit.traceparent)
        if unit.traceparent is not None
        else None
    )
    entries = []
    with trace.activate(tracer):
        for index, first, second in unit.pairs:
            if injector.active:
                injector.fire("worker", str(index), attempt=unit.attempt)
            entries.append(
                manager._batch_entry(index, first, second, unit.schedules.get(index))
            )
    return WorkUnitResult(
        entries=entries, spans=tracer.export() if tracer is not None else []
    )
