"""Run-telemetry journal: one crash-safe record per settled verification.

ROADMAP item 5 (a learned scheduler) needs training data: for every run,
*which* features were observed, *which* schedule was chosen and *which*
checker decided after how long.  This module persists exactly that next to
the verdict journal, reusing :class:`~repro.resilience.journal.
CrashSafeJournal` (checksummed frames, torn-tail recovery) in append-only
mode — no key function, so nothing is ever compacted away: telemetry is a
history, not a cache.

One record per settled run (see :func:`run_record`)::

    {"v": 1, "kind": "run", "time": ..., "fingerprint": ..., "verdict": ...,
     "decided_by": ..., "total_time": ..., "schedule": [...],
     "features": {...}, "cached": ..., "cached_via": ..., "trace_id": ...,
     "attempts": [{"checker": ..., "status": ..., "time": ..., "criterion": ...}],
     "breakers": {"alternating": "closed", ...}}

An alternating DD attempt also carries its ``settled_pairs``.

Recording is deliberately non-fatal: a full disk degrades telemetry to
counted, logged errors — it never fails the verification that produced the
record.  :func:`summarize_records` aggregates a replayed journal into the
per-checker outcome/latency table served by ``repro-qcec telemetry
summarize``; the service ``/stats`` reports only the journal's counters.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Iterable

from repro.obs.logs import fields, get_logger
from repro.obs.trace import current_span

__all__ = ["TelemetryJournal", "run_record", "summarize_records"]

_log = get_logger("obs.telemetry")

#: Telemetry record schema version (bump on incompatible shape changes).
SCHEMA_VERSION = 1


def run_record(
    result,
    *,
    fingerprint: str | None = None,
    breakers: dict[str, str] | None = None,
) -> dict:
    """Build one telemetry record from a ``PortfolioResult``-shaped object.

    Duck-typed on purpose: this module sits below :mod:`repro.core`, so it
    reads attributes (``criterion``, ``attempts``, ``schedule``, …) instead
    of importing the dataclass.  The active span's ``trace_id`` (if any) is
    stamped in, so telemetry rows join against exported traces.
    """
    criterion = getattr(result, "criterion", None)
    record: dict = {
        "v": SCHEMA_VERSION,
        "kind": "run",
        "time": round(time.time(), 6),
        "fingerprint": fingerprint,
        "verdict": getattr(criterion, "value", str(criterion)),
        "decided_by": getattr(result, "decided_by", None),
        "total_time": round(float(getattr(result, "total_time", 0.0)), 9),
        "schedule": list(getattr(result, "schedule", None) or []),
        "features": getattr(result, "features", None),
        "cached": bool(getattr(result, "cached", False)),
        "cached_via": getattr(result, "cached_via", None),
    }
    span = current_span()
    if span is not None and span.trace_id is not None:
        record["trace_id"] = span.trace_id
    attempts = []
    for attempt in getattr(result, "attempts", None) or ():
        attempt_criterion = getattr(
            getattr(attempt, "result", None), "criterion", None
        )
        entry = {
            "checker": getattr(attempt, "method", None),
            "status": getattr(attempt, "status", None),
            "time": round(float(getattr(attempt, "time_taken", 0.0)), 9),
            "criterion": getattr(attempt_criterion, "value", None),
        }
        details = getattr(getattr(attempt, "result", None), "details", None) or {}
        if details.get("settled_pairs") is not None:
            entry["settled_pairs"] = details["settled_pairs"]
        attempts.append(entry)
    record["attempts"] = attempts
    if breakers:
        record["breakers"] = dict(breakers)
    return record


class TelemetryJournal:
    """Append-only crash-safe journal of run-telemetry records.

    Thread-safe through the underlying journal's lock.  ``write_hook``
    plugs the fault-injection harness into the physical writes, exactly
    like the verdict cache's journal tier.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        fsync: bool = False,
        write_hook: Callable[[], None] | None = None,
    ) -> None:
        # Imported here, not at module top: the journal logs through
        # repro.obs.logs, and keeping the import local makes the one-way
        # layering (resilience -> obs.logs, obs.telemetry -> resilience)
        # obvious and cycle-proof at import time.
        from repro.resilience.journal import CrashSafeJournal

        self._journal = CrashSafeJournal(
            path, key=None, fsync=fsync, write_hook=write_hook
        )

    @property
    def path(self) -> Path:
        return self._journal.path

    def record_run(self, record: dict) -> bool:
        """Append one record; returns False (and logs) on I/O failure.

        Telemetry must never fail the run it observes, so errors degrade to
        a counter in :meth:`statistics` plus a warning log line.
        """
        try:
            self._journal.append(record)
        except OSError as error:
            _log.warning(
                "telemetry append failed",
                **fields(path=str(self.path), error=str(error)),
            )
            return False
        return True

    def replay(self) -> list[dict]:
        """All intact records, oldest first (corrupt frames are skipped)."""
        return self._journal.replay()

    def flush(self) -> None:
        self._journal.flush()

    def statistics(self) -> dict:
        return self._journal.statistics()

    def summarize(self) -> dict:
        """Aggregate this journal's records (replays the file)."""
        return summarize_records(self.replay())

    def __repr__(self) -> str:
        return f"TelemetryJournal(path={str(self.path)!r})"


def summarize_records(records: Iterable[dict]) -> dict:
    """Aggregate telemetry records into the summary table.

    Per-checker attempt counts by status, decision counts, and total/mean
    attempt latency; plus run-level verdict and cache-provenance
    tallies — enough to answer "which checker decides what, how fast" (the
    scheduling question) straight from the journal.
    """

    def sorted_counts(counts: dict) -> dict:
        return dict(sorted(counts.items()))

    runs = 0
    verdicts: dict[str, int] = {}
    cache: dict[str, int] = {"fresh": 0}
    checkers: dict[str, dict] = {}
    total_time = 0.0
    for record in records:
        if record.get("kind") != "run":
            continue
        runs += 1
        verdict = str(record.get("verdict"))
        verdicts[verdict] = verdicts.get(verdict, 0) + 1
        if record.get("cached"):
            via = str(record.get("cached_via") or "unknown")
            cache[via] = cache.get(via, 0) + 1
        else:
            cache["fresh"] += 1
        total_time += float(record.get("total_time") or 0.0)
        decided_by = record.get("decided_by")
        for attempt in record.get("attempts") or ():
            name = str(attempt.get("checker"))
            entry = checkers.setdefault(
                name,
                {"attempts": 0, "decisions": 0, "total_time": 0.0, "statuses": {}},
            )
            entry["attempts"] += 1
            entry["total_time"] += float(attempt.get("time") or 0.0)
            status = str(attempt.get("status"))
            entry["statuses"][status] = entry["statuses"].get(status, 0) + 1
            if name == decided_by:
                entry["decisions"] += 1
    for entry in checkers.values():
        entry["total_time"] = round(entry["total_time"], 9)
        entry["mean_time"] = round(
            entry["total_time"] / entry["attempts"], 9
        ) if entry["attempts"] else 0.0
        entry["statuses"] = sorted_counts(entry["statuses"])
    return {
        "runs": runs,
        "total_time": round(total_time, 9),
        "verdicts": sorted_counts(verdicts),
        "cache": sorted_counts(cache),
        "checkers": {name: checkers[name] for name in sorted(checkers)},
    }
