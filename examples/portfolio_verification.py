"""Portfolio verification: per-pair lineups, early termination, batches.

The :class:`~repro.core.manager.EquivalenceCheckingManager` interleaves a
portfolio of complementary checkers per circuit pair, step by step in one
thread — simulation falsifies fast, the alternating scheme proves
equivalence — and stops at the first definitive verdict.  Which checker
moves first is decided per pair by one rule: Scheme 1
(:func:`~repro.core.transformation.to_unitary_circuit`) is tried on each
dynamic circuit; a pair it cannot rebuild (here, a reset conditioned on its
own qubit's measurement) leads with the Scheme-2 ``distribution`` checker,
every other pair with its provers.  ``verify_batch`` scales this to many
pairs, either on a thread pool (``executor="thread"``) or, since the DD
checkers are CPU-bound pure Python and therefore GIL-bound under threads, on
a process pool (``executor="process"``) that ships pickled work units to
worker processes.

Run with ``python examples/portfolio_verification.py``.
"""

from repro import EquivalenceCheckingManager, QuantumCircuit
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


def conditioned_reset_circuit(flip: bool = False) -> QuantumCircuit:
    """A dynamic circuit whose self-conditioned reset defeats Scheme 1."""
    circuit = QuantumCircuit(1, 2)
    circuit.h(0)
    circuit.measure(0, 0)
    circuit.reset(0, condition=(0, 1))
    if flip:
        circuit.x(0)
    circuit.measure(0, 1)
    return circuit


def main() -> None:
    # ------------------------------------------------------------------
    # 1. One manager, fixed seed for reproducible stimuli.
    #    Default portfolio: simulation (falsifier) and alternating (prover);
    #    the prover moves first on every pair Scheme 1 rebuilds.
    # ------------------------------------------------------------------
    manager = EquivalenceCheckingManager(seed=42)

    # Turns go to the checker with the least DD work so far (one gate per
    # step).  An equivalent pair: the alternating checker cancels every
    # matched gate pair at no cost and proves it in its first turn, so the
    # falsifier, which could only say "probably", never starts.
    result = manager.run(teleportation_static(), teleportation_dynamic())
    print("teleportation static vs dynamic:", describe(result))

    # A non-equivalent pair: whichever checker needs less DD work decides.
    # The bug keeps the prover's product small, so the prover refutes it
    # while the falsifier is still on its first stimulus.
    result = manager.run(ghz_ladder(4), ghz_with_bug(4))
    print("GHZ vs buggy GHZ:            ", describe(result))

    # A self-conditioned reset has no Scheme-1 reconstruction: the lineup
    # leads with the Scheme-2 distribution checker (added to the portfolio
    # for this pair), and the Scheme-1 checkers record the failure.
    for label, flip in (("conditioned reset, same:    ", False),
                        ("conditioned reset, flipped: ", True)):
        result = manager.run(conditioned_reset_circuit(), conditioned_reset_circuit(flip))
        print(label, describe(result))
        print("   schedule:", " > ".join(result.schedule),
              f"(needs Scheme 2: {result.features['needs_scheme_two']})")

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
