"""Adaptive portfolio scheduling: checker order decided per pair by one rule.

``Configuration.scheduler`` selects how the
:class:`~repro.core.manager.EquivalenceCheckingManager` turns its checker
portfolio into a per-pair lineup:

* ``static`` runs the configured portfolio in configured order — every pair
  gets ``simulation`` then ``alternating``, no matter what it looks like;
* ``adaptive`` tries Scheme 1
  (:func:`~repro.core.transformation.to_unitary_circuit`) on each dynamic
  circuit of the pair (:func:`~repro.core.scheduler.extract_pair_features`):
  pairs it cannot rebuild (here, a reset conditioned on its own qubit's
  measurement) are routed to the Scheme-2 ``distribution`` checker; every
  other pair runs its provers first, so an equivalent pair is proved in the
  prover's first turn and the falsifier never starts.  The manager reuses
  the rebuilt circuits, so each dynamic circuit is transformed once.

The adaptive scheduler never changes a verdict, only when (and whether) each
checker runs.  Run with ``python examples/adaptive_scheduling.py``.
"""

import time

from repro import EquivalenceCheckingManager, QuantumCircuit
from repro.algorithms import (
    bernstein_vazirani_dynamic,
    bernstein_vazirani_static,
    ghz_ladder,
    ghz_with_bug,
    qft_dynamic,
    qft_static_benchmark,
)


def conditioned_reset_circuit() -> QuantumCircuit:
    """A dynamic circuit whose conditioned reset defeats Scheme 1."""
    circuit = QuantumCircuit(1, 2)
    circuit.h(0)
    circuit.measure(0, 0)
    circuit.reset(0, condition=(0, 1))
    circuit.measure(0, 1)
    return circuit


def mixed_batch():
    """Clone pairs, cross-realization pairs, and injected bugs."""
    pairs = [(ghz_ladder(n), ghz_ladder(n)) for n in (3, 4, 5)]  # clones
    pairs += [
        (bernstein_vazirani_static(bits), bernstein_vazirani_dynamic(bits))
        for bits in ("101", "0110")
    ]
    pairs.append((qft_static_benchmark(4), qft_dynamic(4)))
    pairs.append((ghz_ladder(4), ghz_with_bug(4)))  # falsifiable
    pairs.append(
        (bernstein_vazirani_static("101"), bernstein_vazirani_dynamic("111"))
    )
    return pairs


def run_batch(scheduler: str, pairs):
    manager = EquivalenceCheckingManager(seed=42, scheduler=scheduler)
    start = time.perf_counter()
    batch = manager.verify_batch(pairs)
    elapsed = time.perf_counter() - start
    return batch, elapsed


def main() -> None:
    pairs = mixed_batch()

    # ------------------------------------------------------------------
    # 1. Static vs adaptive on the same mixed batch: identical verdicts,
    #    different per-pair schedules.
    # ------------------------------------------------------------------
    static_batch, static_time = run_batch("static", pairs)
    adaptive_batch, adaptive_time = run_batch("adaptive", pairs)

    print("pair-by-pair (static vs adaptive):")
    for static_entry, adaptive_entry in zip(
        static_batch.entries, adaptive_batch.entries
    ):
        assert (
            static_entry.result.criterion is adaptive_entry.result.criterion
        ), "the adaptive scheduler must never change a verdict"
        print(
            f"  [{static_entry.index}] {static_entry.name_first:>14} vs "
            f"{static_entry.name_second:<14} {static_entry.result.criterion.value:<28}"
            f" static={'>'.join(static_entry.result.schedule)}"
            f" adaptive={'>'.join(adaptive_entry.result.schedule)}"
        )
    print(
        f"static:   {static_batch.num_equivalent}/{static_batch.num_pairs} equivalent "
        f"in {static_time:.3f}s"
    )
    print(
        f"adaptive: {adaptive_batch.num_equivalent}/{adaptive_batch.num_pairs} equivalent "
        f"in {adaptive_time:.3f}s"
    )

    # ------------------------------------------------------------------
    # 2. Conditioned resets: Scheme 1 cannot reconstruct them, so the static
    #    lineup comes back empty-handed; the adaptive scheduler routes the
    #    pair to the Scheme-2 distribution checker and decides it.
    # ------------------------------------------------------------------
    first, second = conditioned_reset_circuit(), conditioned_reset_circuit()
    static_result = EquivalenceCheckingManager(seed=42).run(first, second)
    adaptive_result = EquivalenceCheckingManager(seed=42, scheduler="adaptive").run(
        first, second
    )
    print("conditioned-reset pair:")
    print(f"  static:   {static_result.criterion.value} ({static_result.reason})")
    print(
        f"  adaptive: {adaptive_result.criterion.value} "
        f"(schedule={'>'.join(adaptive_result.schedule)})"
    )

    # ------------------------------------------------------------------
    # 3. What the scheduler found travels with the result.
    # ------------------------------------------------------------------
    features = adaptive_result.features
    print(
        f"features: dynamic={features['any_dynamic']} "
        f"scheme2={features['needs_scheme_two']}"
    )


if __name__ == "__main__":
    main()
