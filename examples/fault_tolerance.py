"""Fault-tolerant verification: breakers, retries, and a crash-safe journal.

PR 8 makes the verification stack survive its own components failing:

* **Circuit breakers** — a checker that keeps crashing is quarantined
  (moved to the back of every schedule, then refused outright) instead of
  burning its budget on every pair; after a cooldown a single probe run
  decides whether it rejoins the portfolio.
* **Retry with backoff** — the process-pool batch path rebuilds a broken
  pool and re-dispatches only the lost work units (bisecting multi-pair
  units so healthy pairs still get verdicts); the HTTP client retries
  429/503 with capped decorrelated jitter, honoring ``Retry-After``.
* **Crash-safe journal** — verdicts persist as checksummed, length-prefixed
  records; a torn tail from a crash mid-append is truncated and counted,
  never silently corrupting the cache.

All of it is demonstrated *deterministically* via the fault-injection
harness (``Configuration.fault_plan``) — the same mechanism the chaos test
suite uses.  Run with ``python examples/fault_tolerance.py``.
"""

import random
import tempfile
from pathlib import Path

from repro.core import Configuration, EquivalenceCheckingManager
from repro.resilience import CrashSafeJournal, FaultPlan, FaultRule, RetryPolicy
from repro.service.cache import VerdictCache


def breaker_quarantine() -> None:
    """A persistently crashing checker is quarantined, verdicts keep coming."""
    print("=" * 72)
    print("1. circuit breakers: quarantine a crashing checker")
    print("=" * 72)
    from repro.algorithms import ghz_ladder, ghz_with_bug

    # The prover moves first on every pair Scheme 1 rebuilds; make it crash.
    plan = FaultPlan(
        rules=(FaultRule(site="checker", target="alternating", times=0),)
    )
    manager = EquivalenceCheckingManager(
        Configuration(
            portfolio=("simulation", "alternating"),
            seed=3,
            verdict_cache=False,
            breaker_threshold=2,
            breaker_cooldown=60.0,
            fault_plan=plan,
        )
    )
    for round_number in range(1, 4):
        result = manager.run(ghz_ladder(3), ghz_with_bug(3))
        statuses = {a.method: a.status for a in result.attempts}
        print(
            f"  run {round_number}: criterion={result.criterion.value:<14} "
            f"decided_by={result.decided_by:<12} alternating={statuses['alternating']}"
        )
    snapshot = manager.breakers.snapshot()["alternating"]
    print(
        f"  breaker[alternating]: state={snapshot['state']} "
        f"failures={snapshot['failures']} opens={snapshot['opens']}"
    )
    print(f"  quarantined checkers: {manager.breakers.quarantined()}")


def retry_backoff() -> None:
    """Capped decorrelated jitter, deterministic under a seeded RNG."""
    print()
    print("=" * 72)
    print("2. retry policy: capped decorrelated jitter")
    print("=" * 72)
    recorded = []
    policy = RetryPolicy(
        attempts=5, base=0.1, cap=2.0, rng=random.Random(42), sleep=recorded.append
    )
    for _ in range(5):
        policy.backoff()
    print("  backoff schedule:", ", ".join(f"{delay:.3f}s" for delay in recorded))
    print(f"  server hint takes precedence: {policy.next_delay(retry_after=1.5):.3f}s")


def worker_death_recovery() -> None:
    """A dying worker process loses no verdicts: the pool is rebuilt and the
    lost work units are re-dispatched (bisected when necessary)."""
    print()
    print("=" * 72)
    print("3. process-pool recovery: a worker dies mid-batch")
    print("=" * 72)
    from repro.algorithms import ghz_ladder, ghz_with_bug

    pairs = [(ghz_ladder(2 + i % 3), ghz_ladder(2 + i % 3)) for i in range(5)]
    pairs.insert(2, (ghz_ladder(3), ghz_with_bug(3)))
    # Pair #1's worker process is killed (os._exit) on its first attempt.
    plan = FaultPlan(
        rules=(FaultRule(site="worker", target="1", action="exit", times=1),)
    )
    manager = EquivalenceCheckingManager(
        Configuration(
            portfolio=("simulation", "alternating"),
            seed=3,
            executor="process",
            batch_chunk_size=3,
            max_workers=2,
            verdict_cache=False,
            batch_retries=2,
            fault_plan=plan,
        )
    )
    batch = manager.verify_batch(pairs)
    for entry in batch.entries:
        verdict = entry.result.criterion.value if entry.result else f"ERROR: {entry.error}"
        print(f"  pair {entry.index}: {verdict}")
    stats = manager.batch_statistics()
    print(
        f"  recovery: pool_rebuilds={stats['pool_rebuilds']} "
        f"unit_retries={stats['unit_retries']} "
        f"unit_bisections={stats['unit_bisections']} "
        f"abandoned_units={stats['abandoned_units']}"
    )


def crash_safe_journal() -> None:
    """A torn tail (crash mid-append) is truncated, intact records replay."""
    print()
    print("=" * 72)
    print("4. crash-safe journal: recovery after a torn append")
    print("=" * 72)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "verdicts.journal"
        journal = CrashSafeJournal(path, key=lambda r: r["fingerprint"])
        for index in range(3):
            journal.append({"fingerprint": f"pair-{index}", "criterion": "equivalent"})
        # Simulate a crash mid-append: a partial record with no newline.
        with path.open("ab") as handle:
            handle.write(b'R 999 deadbeef {"fingerprint": "pair-3", "cr')
        size_before = path.stat().st_size
        recovered = CrashSafeJournal(path, key=lambda r: r["fingerprint"])
        records = recovered.replay()
        stats = recovered.statistics()
        print(f"  file size before recovery: {size_before} bytes")
        print(f"  recovered records: {len(records)} -> {[r['fingerprint'] for r in records]}")
        print(
            f"  dropped={stats['dropped']} "
            f"truncated_bytes={stats['truncated_bytes']} "
            f"size after={stats['size_bytes']} bytes"
        )
        # The verdict cache rides on the same journal under cache_path.
        cache = VerdictCache(path=path)
        print(f"  VerdictCache replay: {cache.statistics()['persistent_entries']} "
              "entries servable after the crash")


def main() -> None:
    breaker_quarantine()
    retry_backoff()
    worker_death_recovery()
    crash_safe_journal()
    print()
    print("done: every failure mode above was injected deterministically via")
    print("Configuration.fault_plan — see tests/test_resilience_faults.py for")
    print("the full chaos matrix.")


if __name__ == "__main__":
    main()
