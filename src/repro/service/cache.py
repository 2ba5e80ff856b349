"""The verdict cache: content-addressed storage of portfolio results.

In real compilation flows the same circuit pairs are re-verified over and
over as toolchains iterate.  :class:`VerdictCache` stores the *essentials*
of a :class:`~repro.core.results.PortfolioResult` (criterion, decided_by,
schedule, per-checker timings) under the pair's
:func:`~repro.service.fingerprint.pair_fingerprint`, in two tiers:

* an **in-memory LRU tier** bounded by ``max_entries`` (mirroring the DD
  gate cache's eviction policy), and
* an optional **persistent tier** (``Configuration.cache_path``) backed by
  a :class:`~repro.resilience.journal.CrashSafeJournal` (PR 8): every store
  appends one checksummed, length-prefixed record; a fresh cache instance
  replays the journal on construction with torn-tail truncation and
  quantified recovery (``recovered``/``dropped`` counters), and the file is
  compacted to last-record-per-fingerprint once it outgrows
  ``journal_max_bytes`` — verdicts survive crashes and restarts, and
  long-lived servers stay bounded.  Journals written by the pre-PR-8 bare
  JSON-lines format replay cleanly (the journal's legacy tier).

Only *conclusive* results are cached: a ``NO_INFORMATION`` outcome (errors,
timeouts) must stay retryable and would otherwise poison the cache.  Hit /
miss / eviction / store counters are surfaced by :meth:`VerdictCache.
statistics`, in the same spirit as ``DDPackage.statistics()``.  All
operations are thread-safe — the job-queue server shares one cache across
its worker pool.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

from repro.core.results import (
    CheckerAttempt,
    EquivalenceCheckResult,
    EquivalenceCriterion,
    PortfolioResult,
)
from repro.resilience.journal import CrashSafeJournal

__all__ = ["CachedAttempt", "CachedVerdict", "VerdictCache"]


@dataclass(frozen=True)
class CachedAttempt:
    """Per-checker essentials of one portfolio attempt (JSON-friendly)."""

    method: str
    status: str
    criterion: str | None = None
    time_taken: float = 0.0
    error: str | None = None


@dataclass(frozen=True)
class CachedVerdict:
    """The stored essentials of one portfolio run.

    Deliberately *not* the full :class:`PortfolioResult`: checker detail
    payloads (DD statistics, stimuli, fidelity tables) are large, process-
    specific and irrelevant to a cache consumer, which only needs the
    verdict, who decided it, the schedule that ran and the timings.
    """

    fingerprint: str
    criterion: str
    decided_by: str | None
    reason: str
    schedule: tuple[str, ...]
    total_time: float
    attempts: tuple[CachedAttempt, ...] = ()

    @classmethod
    def from_result(cls, fingerprint: str, result: PortfolioResult) -> "CachedVerdict":
        return cls(
            fingerprint=fingerprint,
            criterion=result.criterion.value,
            decided_by=result.decided_by,
            reason=result.reason,
            schedule=tuple(result.schedule),
            total_time=result.total_time,
            attempts=tuple(
                CachedAttempt(
                    method=attempt.method,
                    status=attempt.status,
                    criterion=(
                        attempt.result.criterion.value
                        if attempt.result is not None
                        else None
                    ),
                    time_taken=attempt.time_taken,
                    error=attempt.error,
                )
                for attempt in result.attempts
            ),
        )

    def to_result(self) -> PortfolioResult:
        """Rebuild a :class:`PortfolioResult` (marked ``cached=True``).

        Attempts are rebuilt with skeletal
        :class:`~repro.core.results.EquivalenceCheckResult` payloads so that
        ``PortfolioResult.result`` and the CLI's per-checker reporting keep
        working on cache hits; the free-form ``details`` are gone by design.
        """
        attempts = [
            CheckerAttempt(
                method=attempt.method,
                status=attempt.status,
                result=(
                    EquivalenceCheckResult(
                        criterion=EquivalenceCriterion(attempt.criterion),
                        method=attempt.method,
                        time_check=attempt.time_taken,
                    )
                    if attempt.criterion is not None
                    else None
                ),
                error=attempt.error,
                time_taken=attempt.time_taken,
            )
            for attempt in self.attempts
        ]
        return PortfolioResult(
            criterion=EquivalenceCriterion(self.criterion),
            decided_by=self.decided_by,
            reason=self.reason,
            attempts=attempts,
            total_time=self.total_time,
            schedule=list(self.schedule),
            cached=True,
        )

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, payload: dict) -> "CachedVerdict":
        attempts = tuple(
            CachedAttempt(**attempt) for attempt in payload.get("attempts", ())
        )
        return cls(
            fingerprint=payload["fingerprint"],
            criterion=payload["criterion"],
            decided_by=payload.get("decided_by"),
            reason=payload.get("reason", ""),
            schedule=tuple(payload.get("schedule", ())),
            total_time=payload.get("total_time", 0.0),
            attempts=attempts,
        )


class VerdictCache:
    """Two-tier (LRU memory + crash-safe journal) verdict cache."""

    #: Default compaction trigger: once the journal file outgrows this the
    #: next store rewrites it to last-record-per-fingerprint.
    DEFAULT_JOURNAL_MAX_BYTES = 16 * 1024 * 1024

    def __init__(
        self,
        max_entries: int | None = 1024,
        path: "str | Path | None" = None,
        *,
        journal_max_bytes: int | None = DEFAULT_JOURNAL_MAX_BYTES,
        write_hook: Callable[[], None] | None = None,
    ):
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be at least 1 (or None for unbounded)")
        self.max_entries = max_entries
        self.path = Path(path) if path is not None else None
        self._lock = threading.RLock()
        self._memory: OrderedDict[str, CachedVerdict] = OrderedDict()
        # The replayed journal: never evicted (it is disk-backed content and
        # one dict entry per record is cheap next to re-verifying a pair).
        self._persistent: dict[str, CachedVerdict] = {}
        self._journal: CrashSafeJournal | None = None
        self._hits = 0
        self._misses = 0
        self._persistent_hits = 0
        self._stores = 0
        self._evictions = 0
        self._journal_errors = 0
        if self.path is not None:
            # Fail fast on an unusable path: a cache that would only blow up
            # at the first store — after a verification already succeeded —
            # is worse than an early, attributable construction error.  The
            # journal constructor creates parent directories and touches the
            # file; replay truncates a torn tail and counts what it dropped.
            self._journal = CrashSafeJournal(
                self.path,
                key=lambda record: record.get("fingerprint"),
                max_bytes=journal_max_bytes,
                write_hook=write_hook,
            )
            self._replay_journal()

    # ------------------------------------------------------------------
    # tiers
    # ------------------------------------------------------------------

    def _replay_journal(self) -> None:
        """Replay the crash-safe journal (last record per fingerprint wins).

        Torn or corrupt records are counted and skipped by the journal
        rather than failing the whole cache: the journal is a cache, not a
        ledger.  A record that frames correctly but no longer decodes into a
        :class:`CachedVerdict` (schema drift) is likewise skipped.
        """
        for payload in self._journal.replay():
            try:
                verdict = CachedVerdict.from_json(payload)
            except (ValueError, KeyError, TypeError):
                continue
            self._persistent[verdict.fingerprint] = verdict

    def _append_journal(self, verdict: CachedVerdict) -> None:
        """Append one record; on I/O failure degrade to memory-only.

        A full disk or a journal that became unwritable mid-run must never
        fail a verification whose checkers already succeeded — the verdict
        stays served from memory and ``journal_errors`` counts the loss.
        """
        try:
            self._journal.append(verdict.to_json())
        except OSError:
            self._journal_errors += 1
            self.path = None
            self._journal = None

    # ------------------------------------------------------------------
    # cache protocol
    # ------------------------------------------------------------------

    def get(self, fingerprint: str) -> PortfolioResult | None:
        """Look up a verdict; a hit rebuilds the cached :class:`PortfolioResult`."""
        with self._lock:
            verdict = self._memory.get(fingerprint)
            if verdict is not None:
                self._hits += 1
                self._memory.move_to_end(fingerprint)
                return verdict.to_result()
            verdict = self._persistent.get(fingerprint)
            if verdict is not None:
                # Promote journal hits into the LRU tier so repeat traffic
                # stays on the hot path.
                self._hits += 1
                self._persistent_hits += 1
                self._store_memory(fingerprint, verdict)
                return verdict.to_result()
            self._misses += 1
            return None

    def contains(self, fingerprint: str) -> bool:
        """Membership probe that does not touch the hit/miss counters."""
        with self._lock:
            return fingerprint in self._memory or fingerprint in self._persistent

    def put(self, fingerprint: str, result: PortfolioResult) -> bool:
        """Store a result's essentials; returns whether it was cacheable.

        ``NO_INFORMATION`` outcomes (nothing decided — errors, timeouts) are
        rejected so a transient failure can never shadow a later real verdict.
        """
        if result.criterion is EquivalenceCriterion.NO_INFORMATION:
            return False
        verdict = CachedVerdict.from_result(fingerprint, result)
        with self._lock:
            self._stores += 1
            self._store_memory(fingerprint, verdict)
            if self._journal is not None:
                self._persistent[fingerprint] = verdict
                self._append_journal(verdict)
        return True

    def flush(self) -> None:
        """Force journal bytes to disk (graceful-drain path); best-effort."""
        with self._lock:
            if self._journal is not None:
                self._journal.flush()

    def _store_memory(self, fingerprint: str, verdict: CachedVerdict) -> None:
        self._memory[fingerprint] = verdict
        self._memory.move_to_end(fingerprint)
        if self.max_entries is not None:
            while len(self._memory) > self.max_entries:
                self._memory.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        """Drop the in-memory LRU tier.

        Journal-backed verdicts (on disk *and* their replayed index) stay
        servable — clearing frees the hot tier, it does not forget persisted
        work.  Delete the journal file itself to actually discard those.
        """
        with self._lock:
            self._memory.clear()

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def statistics(self) -> dict:
        """Counters and sizes, mirroring ``DDPackage.statistics()``."""
        with self._lock:
            lookups = self._hits + self._misses
            return {
                "entries": len(self._memory),
                "persistent_entries": len(self._persistent),
                "max_entries": self.max_entries,
                "hits": self._hits,
                "misses": self._misses,
                "persistent_hits": self._persistent_hits,
                "stores": self._stores,
                "evictions": self._evictions,
                "journal_errors": self._journal_errors,
                "hit_ratio": (self._hits / lookups) if lookups else 0.0,
                "path": str(self.path) if self.path is not None else None,
                # Crash-safety counters from the journal itself: how many
                # records the last replay recovered/dropped, torn-tail bytes
                # truncated, compactions run.  None when memory-only.
                "journal": (
                    self._journal.statistics() if self._journal is not None else None
                ),
            }

    def __repr__(self) -> str:
        stats = self.statistics()
        return (
            f"VerdictCache(entries={stats['entries']}, hits={stats['hits']}, "
            f"misses={stats['misses']}, path={stats['path']})"
        )
