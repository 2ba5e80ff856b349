"""Transpilation-aware verification: canonical cache hits and canonical matching.

Table-1 circuit families are verified at three translation levels of the same
logical pair (original, CX + single-qubit basis, U-gate rewrite) under two
modes:

* ``cold``          — fresh manager per level, no cache, default portfolio
  (provers first).  The ``alternating`` prover matches the translated gates
  on their canonical form and cancels every pair, so it must decide each
  level inside its first turn, with the ``simulation`` falsifier
  ``skipped``.
* ``canonical_hit`` — one cache-enabled manager sees the pair at level 1,
  then levels 2 and 3: the later levels must be verdict-cache hits through
  the canonical (translation-level-invariant) fingerprint.

Gates (``RuntimeError`` → exit 1) are **semantic only**: verdict agreement
across both modes and all levels, at least one cross-level canonical cache
hit, every ``cold`` level decided by ``alternating`` with ``simulation``
skipped, and a work gate: each ``canonical_hit`` repeat makes exactly the
canonical walks (``canonical_forms`` calls) of :func:`canonical_walks` —
both circuits at level 1, then only the new second circuit of each
canonical hit, since a circuit keeps its canonical form (4 walks for QFT
and QPE, 3 for BV, whose CX-basis level is a raw hit).  A run that loses
kept forms or walks a circuit twice fails.  Timings are recorded for trend
tooling but never gated — CI machines are noisy.  Every repeat of either
mode builds fresh circuits and starts with the process-wide memos of the
canonical walk empty, so it times gates the process has not seen.

Results are emitted as ``BENCH_rewrite.json`` (schema shared via
``bench_common.validate_bench_payload``).

Usage::

    PYTHONPATH=src python benchmarks/bench_rewrite.py            # full run
    PYTHONPATH=src python benchmarks/bench_rewrite.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import contextlib
import platform
import sys
import time

from bench_common import BENCH_SCHEMA_VERSION, SCALE, write_bench_json

from repro.algorithms import (
    bernstein_vazirani_static,
    qft_static_benchmark,
    qpe_static,
)
from repro.compilation import (
    canonical,
    decompose_to_cx_and_single_qubit,
    rewrite_single_qubit_to_u,
)
from repro.circuit import qasm
from repro.core import EquivalenceCheckingManager

SEED = 42

#: Translation levels a canonical-hit run walks through, in order.
NUM_LEVELS = 3

FULL_FAMILIES = [
    ("bv", lambda: bernstein_vazirani_static("101101")),
    ("qft", lambda: qft_static_benchmark(5)),
    ("qpe", lambda: qpe_static(4)),
]
QUICK_FAMILIES = [
    ("bv", lambda: bernstein_vazirani_static("1011")),
    ("qft", lambda: qft_static_benchmark(4)),
]


def _time_ms(callable_) -> tuple[float, object]:
    start = time.perf_counter()
    value = callable_()
    return (time.perf_counter() - start) * 1000.0, value


def canonical_walks(results) -> int:
    """The canonical walks a canonical-hit repeat should make.

    Level 1 misses both tiers and walks both of its circuits; a later level
    that hits through the canonical key walks only its new second circuit
    (the first keeps its form), and one that hits on the raw key (a
    translation that changed nothing, as BV's CX-basis level) walks none.
    """
    return 2 + sum(result.cached_via == "canonical_fingerprint" for result in results[1:])


@contextlib.contextmanager
def counting_canonical_walks():
    """Count the ``canonical_forms`` walks made inside the block."""
    walks = []
    original = canonical.canonical_forms

    def counting(instructions, translate=None):
        walks.append(translate)
        return original(instructions, translate)

    canonical.canonical_forms = counting
    try:
        yield walks
    finally:
        canonical.canonical_forms = original


def clear_memos() -> None:
    """Empty the process-wide memos that the canonical walk fills.

    Gate templates, merged runs and formatted angles outlive a circuit, so
    fresh circuits alone do not make a repeat see its gates for the first
    time; clearing them does.
    """
    canonical._template.cache_clear()
    canonical._merged_gate.cache_clear()
    qasm._memo_format_float.cache_clear()


def translation_levels(circuit):
    """The same logical pair at three translation levels of its second half."""
    level_one = decompose_to_cx_and_single_qubit(circuit)
    level_two = rewrite_single_qubit_to_u(level_one)
    return [
        (circuit, circuit.copy()),
        (circuit, level_one),
        (circuit, level_two),
    ]


def bench_family(name: str, build, repeats: int) -> tuple[list[dict], dict]:
    """Both modes over one Table-1 family; returns entries + speedups.

    Every repeat builds its circuits afresh and empties the process-wide
    memos (:func:`clear_memos`): circuits keep their fingerprint forms and
    the memos keep gates, runs and angles, so either would carry work into
    the next repeat.  Within a
    canonical-hit walk, the levels share the first circuit, as a caller
    re-verifying one circuit against its translations does.
    """
    entries = []
    criteria_by_mode: dict[str, list[str]] = {}
    times_by_mode: dict[str, list[float]] = {}

    # cold: every level pays a verification; the alternating prover leads
    # and must decide each level before the falsifier starts.
    times = []
    for _ in range(repeats):
        levels = translation_levels(build())
        clear_memos()
        criteria = []
        total = 0.0
        for position, pair in enumerate(levels):
            manager = EquivalenceCheckingManager(seed=SEED, verdict_cache=False)
            elapsed, result = _time_ms(lambda pair=pair: manager.run(*pair))
            total += elapsed
            criteria.append(result.criterion.value)
            statuses = {attempt.method: attempt.status for attempt in result.attempts}
            if result.decided_by != "alternating" or statuses.get("simulation") != "skipped":
                raise RuntimeError(
                    f"{name}: level {position + 1} was decided by "
                    f"{result.decided_by!r} with simulation "
                    f"{statuses.get('simulation')!r}, not by alternating alone"
                )
        times.append(total)
        criteria_by_mode["cold"] = criteria
    times_by_mode["cold"] = times

    # canonical_hit: one cache-enabled manager walks the levels; the later
    # levels must hit through the canonical fingerprint tier.
    times = []
    for _ in range(repeats):
        levels = translation_levels(build())
        clear_memos()
        manager = EquivalenceCheckingManager(seed=SEED, verdict_cache=True)
        results = []
        criteria = []
        canonical_hits = 0
        total = 0.0
        with counting_canonical_walks() as walks:
            for pair in levels:
                elapsed, result = _time_ms(lambda pair=pair: manager.run(*pair))
                total += elapsed
                results.append(result)
        expected_walks = canonical_walks(results)
        if len(walks) != expected_walks:
            raise RuntimeError(
                f"{name}: a canonical-hit repeat made {len(walks)} canonical "
                f"walks, expected {expected_walks} (both circuits at level 1, "
                "then the new second circuit of each canonical hit)"
            )
        for position, result in enumerate(results):
            criteria.append(result.criterion.value)
            if position > 0:
                if not result.cached:
                    raise RuntimeError(
                        f"{name}: translation level {position + 1} missed the "
                        "verdict cache entirely"
                    )
                if result.cached_via == "canonical_fingerprint":
                    canonical_hits += 1
        if canonical_hits < 1:
            raise RuntimeError(
                f"{name}: no cross-level canonical cache hit "
                f"(levels 2..{NUM_LEVELS} must reuse the level-1 verdict)"
            )
        times.append(total)
        criteria_by_mode["canonical_hit"] = criteria
    times_by_mode["canonical_hit"] = times

    for mode in ("cold", "canonical_hit"):
        if criteria_by_mode[mode] != criteria_by_mode["cold"]:
            raise RuntimeError(
                f"{name}: verdict drift in mode {mode!r}: "
                f"{criteria_by_mode[mode]} vs cold {criteria_by_mode['cold']}"
            )
        samples = times_by_mode[mode]
        entries.append(
            {
                "name": f"rewrite/{name}/{mode}",
                "workload": "translation_levels",
                "family": name,
                "num_levels": NUM_LEVELS,
                "repeats": repeats,
                "mean_ms": sum(samples) / len(samples),
                "min_ms": min(samples),
            }
        )
    speedups = {
        f"{name}_canonical_hit_vs_cold": round(
            min(times_by_mode["cold"]) / min(times_by_mode["canonical_hit"]), 2
        ),
    }
    return entries, speedups


def run(args: argparse.Namespace) -> dict:
    repeats = args.repeats or (2 if args.quick else 5)
    families = QUICK_FAMILIES if args.quick else FULL_FAMILIES

    entries: list[dict] = []
    speedups: dict[str, float] = {}
    for name, build in families:
        family_entries, family_speedups = bench_family(name, build, repeats)
        entries.extend(family_entries)
        speedups.update(family_speedups)

    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "benchmark": "transpilation_aware",
        "scale": SCALE,
        "python": platform.python_version(),
        "results": entries,
        "speedups": speedups,
        "speedup_vs_baseline": speedups[f"{families[0][0]}_canonical_hit_vs_cold"],
        "baseline": {
            "source": "cold run (fresh manager per level, default portfolio, no cache)"
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small sizes / few repeats (CI smoke)"
    )
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--output", default="BENCH_rewrite.json", metavar="PATH")
    args = parser.parse_args(argv)

    try:
        payload = run(args)
        write_bench_json(args.output, payload)
    except (RuntimeError, ValueError) as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1

    for entry in payload["results"]:
        print(
            f"{entry['name']:>32} repeats={entry['repeats']:<2} "
            f"min={entry['min_ms']:8.2f}ms"
        )
    for key, value in payload["speedups"].items():
        print(f"{key}: {value}x")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
