"""Portfolio verification: early termination, timeouts, batch checking.

The :class:`~repro.core.manager.EquivalenceCheckingManager` interleaves a
portfolio of complementary checkers per circuit pair, step by step in one
thread — simulation falsifies fast, the alternating scheme proves
equivalence — and stops at the first definitive verdict.  ``verify_batch`` scales this to many pairs, either on a thread pool
(``executor="thread"``) or, since the DD checkers are CPU-bound pure Python
and therefore GIL-bound under threads, on a process pool
(``executor="process"``) that ships pickled work units to worker processes.

Run with ``python examples/portfolio_verification.py``.
"""

from repro import EquivalenceCheckingManager
from repro.algorithms import (
    bernstein_vazirani_dynamic,
    bernstein_vazirani_static,
    ghz_ladder,
    ghz_with_bug,
    teleportation_dynamic,
    teleportation_static,
)


def describe(result) -> str:
    attempts = ", ".join(
        f"{attempt.method}:{attempt.status}" for attempt in result.attempts
    )
    return f"{result.criterion.value} (decided_by={result.decided_by}; {attempts})"


def main() -> None:
    # ------------------------------------------------------------------
    # 1. One manager, fixed seed for reproducible stimuli.
    #    Default portfolio: simulation (falsifier) leads, interleaved with
    #    alternating (prover).
    # ------------------------------------------------------------------
    manager = EquivalenceCheckingManager(seed=42)

    # An equivalent pair: simulation can only say "probably", so after its
    # first stimulus the alternating checker catches up and delivers the
    # definitive proof, preempting the remaining stimuli.
    result = manager.run(teleportation_static(), teleportation_dynamic())
    print("teleportation static vs dynamic:", describe(result))

    # A non-equivalent pair: the simulation falsifier finds a counterexample
    # in its first stimulus and the expensive prover is skipped entirely.
    result = manager.run(ghz_ladder(4), ghz_with_bug(4))
    print("GHZ vs buggy GHZ:            ", describe(result))

    # ------------------------------------------------------------------
    # 2. Time budgets: bound each checker and the whole portfolio run.
    # ------------------------------------------------------------------
    bounded = EquivalenceCheckingManager(seed=42, checker_timeout=5.0, timeout=10.0)
    result = bounded.run(
        bernstein_vazirani_static("1101"), bernstein_vazirani_dynamic("1101")
    )
    print("BV static vs dynamic:        ", describe(result))

    # ------------------------------------------------------------------
    # 3. Batch verification: many pairs, one call, concurrent workers.
    # ------------------------------------------------------------------
    pairs = [(teleportation_static(t), teleportation_dynamic(t)) for t in (0.3, 0.7)]
    pairs += [
        (bernstein_vazirani_static(bits), bernstein_vazirani_dynamic(bits))
        for bits in ("101", "1101")
    ]
    pairs.append((ghz_ladder(3), ghz_with_bug(3)))  # the bad apple

    batch = EquivalenceCheckingManager(seed=42, max_workers=4).verify_batch(pairs)
    for entry in batch.entries:
        verdict = entry.result.criterion.value if entry.result else f"failed: {entry.error}"
        print(f"  [{entry.index}] {entry.name_first} vs {entry.name_second}: "
              f"{verdict} ({entry.time_taken:.3f}s)")
    summary = batch.summary()
    print(
        f"batch: {summary['num_equivalent']}/{summary['num_pairs']} equivalent, "
        f"{summary['num_failed']} failed, wall-clock {summary['total_time']:.3f}s "
        f"on {summary['max_workers']} {summary['executor']} workers"
    )

    # ------------------------------------------------------------------
    # 4. Process-parallel batches: the same call, CPU-bound scaling.
    #    Circuits and the configuration are pickled into worker processes
    #    (batch_chunk_size pairs per work unit); every worker rebuilds its
    #    own manager, and DD packages never cross process boundaries.
    #    gate_cache_size bounds each package's gate-DD cache (LRU eviction)
    #    so long-lived workers stay memory-bounded.
    # ------------------------------------------------------------------
    process_manager = EquivalenceCheckingManager(
        seed=42,
        executor="process",
        max_workers=4,
        batch_chunk_size=2,
        gate_cache_size=256,
    )
    batch = process_manager.verify_batch(pairs)
    summary = batch.summary()
    print(
        f"process batch: {summary['num_equivalent']}/{summary['num_pairs']} equivalent, "
        f"{summary['num_failed']} failed, wall-clock {summary['total_time']:.3f}s "
        f"on {summary['max_workers']} {summary['executor']} workers"
    )
    # Entry-for-entry, the verdicts are identical to the thread executor's;
    # on a multi-core host the wall-clock now scales with cores instead of
    # being GIL-bound.


if __name__ == "__main__":
    main()
