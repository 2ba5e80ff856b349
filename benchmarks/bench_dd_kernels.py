"""Microbenchmarks of the DD kernel hot paths + Table-1 QFT wall-clock.

Complements the pytest-benchmark suites with a dependency-light script that
every PR can run to record the kernel-performance trajectory:

* ``gate_build``        — matrix-DD construction of all (controlled-phase
  heavy) QFT gate DDs into a fresh package: exercises ``operator_chain``,
  ``controlled_gate``, ``add_matrices`` and the normalizing node factories.
* ``apply_product``     — the alternating-scheme inner loop: multiply each
  gate DD into the running product (``multiply_matrices`` + ``_add``).
* ``qft_verification``  — end-to-end ``check_equivalence`` of the static vs.
  dynamic QFT pair (the Table-1 t_ver column).
* ``alternating``       — full mode only: the alternating checker alone on
  the static circuit vs. the Scheme-1 reconstruction of the dynamic one, at
  the sizes where gate application and peak-node counting dominate (QPE
  n=16, QFT n=40).  Timed in process CPU time; ``min_ms`` is the best run.

Results are emitted as ``BENCH_table1.json`` (schema shared via
``bench_common.validate_bench_payload``; the script exits non-zero if its own
payload fails validation, which is what the CI smoke job checks — schema
errors fail, timing noise never does).

Usage::

    PYTHONPATH=src python benchmarks/bench_dd_kernels.py                 # full run
    PYTHONPATH=src python benchmarks/bench_dd_kernels.py --quick         # CI smoke
    PYTHONPATH=src python benchmarks/bench_dd_kernels.py --baseline-ms 153.3
"""

from __future__ import annotations

import argparse
import platform
import sys
import time

from bench_common import BENCH_SCHEMA_VERSION, SCALE, write_bench_json

from repro.algorithms import iterative_qpe, qft_dynamic, qft_static_benchmark, qpe_static
from repro.core import Configuration, check_equivalence
from repro.core.checkers.alternating import AlternatingChecker
from repro.core.transformation import to_unitary_circuit
from repro.dd.circuits import instruction_to_dd
from repro.dd.package import DDPackage

#: Reference wall-clock of the PR 2 kernels for the Table-1 QFT check at
#: n=14, measured on the same dev container (Python 3.11, mean of 3 runs)
#: that produced the committed BENCH_table1.json.  Only meaningful as a
#: baseline on comparable hardware, so the speedup record is opt-in: pass
#: ``--baseline-ms`` explicitly (e.g. this value) to include it.
PR2_BASELINE_N14_MS = 153.3

FULL_SIZES = [8, 10, 14]
QUICK_SIZES = [6, 8]
#: (family, n) of the full-mode ``alternating`` rows.
ALTERNATING_PAIRS = [("qpe", 16), ("qft", 40)]


def _time(callable_, repeats: int, clock=time.perf_counter) -> tuple[float, float]:
    """Return (mean_ms, min_ms) over ``repeats`` runs of ``callable_``."""
    timings = []
    for _ in range(repeats):
        start = clock()
        callable_()
        timings.append((clock() - start) * 1000.0)
    return sum(timings) / len(timings), min(timings)


def _gate_list(size: int):
    return list(
        qft_static_benchmark(size).remove_final_measurements().gate_instructions()
    )


def bench_gate_build(size: int, repeats: int) -> dict:
    gates = _gate_list(size)

    def build() -> None:
        package = DDPackage(size)
        for instruction in gates:
            instruction_to_dd(package, instruction)

    mean_ms, min_ms = _time(build, repeats)
    return {
        "name": "gate_build",
        "n": size,
        "repeats": repeats,
        "mean_ms": mean_ms,
        "min_ms": min_ms,
        "num_gates": len(gates),
    }


def bench_apply_product(size: int, repeats: int) -> dict:
    gates = _gate_list(size)

    def apply_all() -> None:
        package = DDPackage(size)
        product = package.identity()
        for instruction in gates:
            product = package.multiply_matrices(
                instruction_to_dd(package, instruction), product
            )

    mean_ms, min_ms = _time(apply_all, repeats)
    return {
        "name": "apply_product",
        "n": size,
        "repeats": repeats,
        "mean_ms": mean_ms,
        "min_ms": min_ms,
        "num_gates": len(gates),
    }


def bench_qft_verification(size: int, repeats: int) -> dict:
    static = qft_static_benchmark(size)
    dynamic = qft_dynamic(size)
    criteria = []

    def verify() -> None:
        result = check_equivalence(static, dynamic)
        criteria.append(result.criterion.value)

    mean_ms, min_ms = _time(verify, repeats)
    if len(set(criteria)) != 1:
        raise RuntimeError(f"verdict instability across repeats: {criteria}")
    return {
        "name": "qft_verification",
        "n": size,
        "repeats": repeats,
        "mean_ms": mean_ms,
        "min_ms": min_ms,
        "criterion": criteria[0],
    }


def bench_alternating(family: str, size: int, repeats: int) -> dict:
    if family == "qft":
        static, dynamic = qft_static_benchmark(size), qft_dynamic(size)
    else:
        static, dynamic = qpe_static(size), iterative_qpe(size)
    unitary = to_unitary_circuit(dynamic).circuit
    configuration = Configuration()
    outcomes = []

    def check() -> None:
        outcomes.append(AlternatingChecker().check(static, unitary, configuration))

    mean_ms, min_ms = _time(check, repeats, clock=time.process_time)
    criteria = {outcome.criterion.value for outcome in outcomes}
    if len(criteria) != 1:
        raise RuntimeError(f"verdict instability across repeats: {sorted(criteria)}")
    return {
        "name": "alternating",
        "family": family,
        "n": size,
        "repeats": repeats,
        "mean_ms": mean_ms,
        "min_ms": min_ms,
        "criterion": criteria.pop(),
        "max_nodes": outcomes[0].details["max_nodes"],
    }


def run(args: argparse.Namespace) -> dict:
    sizes = args.sizes or (QUICK_SIZES if args.quick else FULL_SIZES)
    repeats = args.repeats or (2 if args.quick else 5)
    results = []
    for size in sizes:
        results.append(bench_gate_build(size, repeats))
        results.append(bench_apply_product(size, repeats))
        results.append(bench_qft_verification(size, repeats))
    if not args.quick:
        for family, size in ALTERNATING_PAIRS:
            results.append(bench_alternating(family, size, min(repeats, 3)))

    payload: dict = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "benchmark": "dd_kernels_table1_qft",
        "scale": SCALE,
        "python": platform.python_version(),
        "results": results,
    }

    reference = [entry for entry in results if entry["name"] == "qft_verification"]
    largest = max(reference, key=lambda entry: entry["n"])
    if args.baseline_ms and largest["n"] == 14:
        payload["baseline"] = {
            "source": "PR 2 kernels (commit 48121c8), qft_verification n=14",
            "mean_ms": args.baseline_ms,
        }
        payload["speedup_vs_baseline"] = args.baseline_ms / largest["mean_ms"]
    return payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small sizes / few repeats (CI smoke)")
    parser.add_argument("--sizes", type=int, nargs="*", default=None, metavar="N")
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--baseline-ms",
        type=float,
        default=0.0,
        metavar="MS",
        help=(
            "record speedup_vs_baseline against this qft_verification n=14 "
            f"reference (off by default — cross-hardware comparisons are "
            f"meaningless; the PR 2 dev-container reference is {PR2_BASELINE_N14_MS})"
        ),
    )
    parser.add_argument("--output", default="BENCH_table1.json", metavar="PATH")
    args = parser.parse_args(argv)

    payload = run(args)
    try:
        write_bench_json(args.output, payload)
    except ValueError as error:
        print(f"benchmark payload failed schema validation: {error}", file=sys.stderr)
        return 1

    for entry in payload["results"]:
        extra = f" criterion={entry['criterion']}" if "criterion" in entry else ""
        name = f"{entry['name']} {entry['family']}" if "family" in entry else entry["name"]
        print(
            f"{name:>18} n={entry['n']:<3} mean={entry['mean_ms']:8.2f}ms "
            f"min={entry['min_ms']:8.2f}ms{extra}"
        )
    if "speedup_vs_baseline" in payload:
        print(f"speedup vs {payload['baseline']['source']}: {payload['speedup_vs_baseline']:.2f}x")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
