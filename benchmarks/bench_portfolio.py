"""Portfolio manager and gate-cache benchmarks.

Run explicitly (like the Table-1 benches)::

    PYTHONPATH=src python -m pytest benchmarks/bench_portfolio.py -q

Qualitative claims to measure:

* on *non-equivalent* pairs the portfolio terminates as soon as either
  checker decides — turns are charged by DD work, one gate per step, so the
  other checker is cut short after about as much work as the winner did;
* on *equivalent* pairs the portfolio's overhead over the plain alternating
  check is bounded by the (cheap) simulation pass;
* ``verify_batch`` sustains a batch of 20+ pairs with per-pair timings;
* the gate-DD cache (always on) reports its hit/miss counters on the
  Table-1 QFT verification.
"""

from __future__ import annotations

import pytest

from bench_common import sizes_for
from repro.algorithms import (
    bernstein_vazirani_dynamic,
    bernstein_vazirani_static,
    ghz_ladder,
    ghz_with_bug,
    qft_dynamic,
    qft_static_benchmark,
    teleportation_dynamic,
    teleportation_static,
)
from repro.core import EquivalenceCheckingManager, check_equivalence

SIZES = sizes_for("qft")
SEED = 99


@pytest.mark.parametrize("size", SIZES)
def test_portfolio_equivalent_pair(benchmark, size):
    """Portfolio on an equivalent pair: simulation pass + alternating proof."""
    static = qft_static_benchmark(size)
    dynamic = qft_dynamic(size)
    manager = EquivalenceCheckingManager(seed=SEED)
    result = benchmark(lambda: manager.run(static, dynamic))
    assert result.equivalent
    benchmark.extra_info["decided_by"] = result.decided_by


@pytest.mark.parametrize("size", SIZES)
def test_portfolio_early_termination_on_bug(benchmark, size):
    """Portfolio on a non-equivalent pair: the decider cuts the other short.

    The bug's product stays small, so the prover needs less DD work than a
    stimulus and decides while the falsifier is preempted.
    """
    good = ghz_ladder(size)
    bad = ghz_with_bug(size)
    manager = EquivalenceCheckingManager(seed=SEED)
    result = benchmark(lambda: manager.run(good, bad))
    assert not result.equivalent
    assert result.decided_by == "alternating"
    statuses = {attempt.method: attempt.status for attempt in result.attempts}
    assert statuses == {"simulation": "preempted", "alternating": "completed"}


@pytest.mark.parametrize("size", SIZES)
def test_single_method_baseline(benchmark, size):
    """Baseline: the plain alternating check on the same equivalent pair."""
    static = qft_static_benchmark(size)
    dynamic = qft_dynamic(size)
    result = benchmark(lambda: check_equivalence(static, dynamic))
    assert result.equivalent


def _batch_pairs():
    pairs = []
    for index in range(10):
        pairs.append((ghz_ladder(3 + index % 4), ghz_ladder(3 + index % 4)))
    for bits in ("101", "110", "1011", "1101", "0110"):
        pairs.append((bernstein_vazirani_static(bits), bernstein_vazirani_dynamic(bits)))
    for theta in (0.3, 0.7, 1.1):
        pairs.append((teleportation_static(theta), teleportation_dynamic(theta)))
    pairs.append((ghz_ladder(4), ghz_with_bug(4)))
    pairs.append((bernstein_vazirani_static("101"), bernstein_vazirani_dynamic("111")))
    return pairs


@pytest.mark.parametrize(
    "executor,max_workers,chunk_size",
    [
        ("thread", 1, 1),
        ("thread", 4, 1),
        ("process", 4, 1),
        ("process", 4, 4),
    ],
    ids=["thread-serial", "thread-4", "process-4", "process-4-chunk4"],
)
def test_batch_throughput(benchmark, executor, max_workers, chunk_size):
    """verify_batch over 20+ pairs: thread vs process executors.

    The DD checkers are CPU-bound pure Python, so the thread pool is
    GIL-bound: on a multi-core host the process executor should win at >=4
    workers (on a single-core container it only pays pickling/fork overhead —
    quote numbers together with the core count).
    """
    pairs = _batch_pairs()
    assert len(pairs) >= 20
    manager = EquivalenceCheckingManager(
        seed=SEED,
        max_workers=max_workers,
        executor=executor,
        batch_chunk_size=chunk_size,
    )
    batch = benchmark(lambda: manager.verify_batch(pairs))
    assert batch.num_pairs == len(pairs)
    assert batch.num_failed == 0
    assert batch.executor == executor
    benchmark.extra_info["num_equivalent"] = batch.num_equivalent
    benchmark.extra_info["mean_pair_time"] = batch.summary()["mean_pair_time"]
    # Entry-for-entry agreement between the executors is asserted in tier-1:
    # tests/test_manager.py::TestProcessExecutor.


@pytest.mark.parametrize("size", SIZES)
def test_gate_cache_qft(benchmark, size):
    """The Table-1 QFT verification and its gate-DD cache counters."""
    static = qft_static_benchmark(size)
    dynamic = qft_dynamic(size)
    result = benchmark(lambda: check_equivalence(static, dynamic))
    assert result.equivalent
    stats = result.details["dd_statistics"]
    benchmark.extra_info["gate_cache_hits"] = stats["gate_cache_hits"]
    benchmark.extra_info["gate_cache_misses"] = stats["gate_cache_misses"]
