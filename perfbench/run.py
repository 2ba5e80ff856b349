"""Benchmark of the three verification entry points of repro.

    python3 perfbench/run.py --workload table1-scheme1 --seed 1 --seconds 20 --trace 0

Workloads (compositions and reasons in ``perfbench/design.json``):

* ``table1-scheme1``: ``to_unitary_circuit`` + ``check_equivalence`` on the
  paper's Table-1 pairs and their mutants (DD alternating checker);
* ``portfolio-default``: a default-configured ``EquivalenceCheckingManager``;
* ``service-repeat``: the default ``repro-qcec serve`` driven by two clients
  with re-verification traffic (cache hits, canonical hits, first-seen pairs).

Every pair has a constructed answer; a definitive verdict that contradicts it
is a wrong verdict and makes the run exit with status 1.  With ``--trace 0``
the run prints the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run (spans written to ``.perfbench/`` as Chrome
trace-event JSON).  The last line of standard output is one JSON object.

The program is imported from ``src/`` next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

WORKLOADS = ("table1-scheme1", "portfolio-default", "service-repeat")

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "prove_ms": "ms",
    "refute_ms": "ms",
    "p90_ms": "ms",
    "throughput_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Reported with the end-to-end metrics; their JSON form is ``correct`` and
#: ``failed``/``attempted`` (both read 0 on a correct program).
CORRECTNESS = {"wrong_verdicts": "count", "failed_ratio": "ratio"}

#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER = {
    "dd.gate_build_ms": "ms",
    "dd.multiply_ms": "ms",
    "dd.identity_ms": "ms",
    "dd.count_nodes_ms": "ms",
    "dd.mv_multiply_ms": "ms",
    "dd.gate_builds": "count",
    "dd.multiplies": "count",
    "dd.gate_cache_hit_ratio": "ratio",
    "dd.peak_nodes": "count",
    "dd.matrix_nodes": "count",
    "transform.ms": "ms",
    "transform.gates_out": "count",
    "checker.alternating.ms": "ms",
    "checker.simulation.ms": "ms",
    "checker.simulation.wasted_ms": "ms",
    "portfolio.decisive_ratio": "ratio",
    "scheduler.decide_ms": "ms",
    "manager.self_ms": "ms",
    "qasm.parse_ms": "ms",
    "fingerprint.raw_ms": "ms",
    "fingerprint.canonical_ms": "ms",
    "cache.lookup_ms": "ms",
    "cache.hit_ratio": "ratio",
    "http.submit_ms": "ms",
    "http.result_ms": "ms",
    "http.requests_per_verdict": "count",
    "http.overhead_ms": "ms",
    "obs.tracer_overhead": "ratio",
    "trace.unattributed_ratio": "ratio",
    "trace.wrapper_overhead": "ratio",
}

#: A percentile whose neighbouring ranks differ by more than this factor
#: sits on the gap between two input classes.
GAP_FACTOR = 1.5


def bootstrap() -> None:
    """Import repro from ``src/`` next to this directory, or exit with 2."""
    package = SRC / "repro" / "__init__.py"
    if not package.is_file():
        print(f"perfbench: {package} not found; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import repro

    if Path(repro.__file__).resolve() != package.resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def placement(samples, q: float) -> str:
    """The class in which a percentile's rank lands, and whether it sits on a gap."""
    ordered = sorted((sample.latency_s * sample.scale, sample.cls) for sample in samples)
    count = len(ordered)
    # Rank of statistics.median / statistics.quantiles (exclusive method).
    position = q * (count + 1)
    low = min(max(math.floor(position), 1), count) - 1
    high = min(max(math.ceil(position), 1), count) - 1
    classes = sorted({ordered[low][1], ordered[high][1]})
    width = max(2, math.ceil(0.03 * count))
    window = ordered[max(0, low - width) : min(count, high + width + 1)]
    steps = [b[0] / a[0] for a, b in zip(window, window[1:]) if a[0] > 0]
    step = max(steps, default=1.0)
    same = sum(cls in classes for _, cls in window)
    verdict = "ON A CLASS GAP" if step > GAP_FACTOR else "inside"
    return (
        f"rank {position:.1f}/{count} in {' | '.join(classes)}; "
        f"{same}/{len(window)} of ranks +-{width} in that class, "
        f"largest step {step:.2f}x: {verdict}"
    )


def quantile(samples, q: float, scaled: bool = True) -> float:
    """Median (``q`` 0.5) or 90th percentile of the samples' times in ms."""
    values = [s.latency_s * 1e3 * (s.scale if scaled else 1.0) for s in samples]
    return statistics.median(values) if q == 0.5 else statistics.quantiles(values, n=10)[8]


def end_to_end(run) -> tuple[dict, list[str]]:
    """The end-to-end metrics of an untraced run, and the report lines."""
    from perfbench import speed

    samples = run.samples
    proved = [s for s in samples if s.equivalent]
    refuted = [s for s in samples if not s.equivalent]
    wrong = sum(s.wrong for s in samples) + run.setup_wrong
    failed = sum(not s.definitive for s in samples)
    values = {}
    for name, group, q in (("prove_ms", proved, 0.5), ("refute_ms", refuted, 0.5), ("p90_ms", samples, 0.9)):
        values[name] = (
            quantile(group, q),
            len(group),
            f"(measured {quantile(group, q, scaled=False):.2f}) {placement(group, q)}",
        )
    values.update({
        "throughput_per_s": (statistics.median(run.block_rates), len(samples), f"(measured {len(samples) / run.measured_s:.2f}) median over {len(run.block_rates)} blocks of verdicts per second, {run.measured_s:.2f} s measured"),
        "setup_s": (run.setup_s * run.setup_scale, len(run.setup_samples), f"(measured {run.setup_s:.3f}) median of set-ups " + ", ".join(f"{v:.2f}" for v in run.setup_samples) + " s, each a fresh interpreter's imports, inputs and warm-up"),
        "peak_rss_mb": (run.peak_rss_mb, run.peak_count, run.peak_note),
        "wrong_verdicts": (wrong, len(samples), "definitive verdicts against the constructed answer"),
        "failed_ratio": (failed / len(samples), len(samples), f"{failed} errors, refusals or non-definitive verdicts"),
    })
    units = {**END_TO_END, **CORRECTNESS}
    lines = [
        f"  {name:<17} {value:>12.4f} {units[name]:<5} n={count:<5} {note}"
        for name, (value, count, note) in values.items()
    ]
    scales = [s.scale for s in samples]
    references = run.references_ms
    if references:
        basis = (
            f"reference call median {statistics.median(references):.2f} ms "
            f"(n={len(references)}, {min(references):.2f}..{max(references):.2f}); "
            f"times scaled to a {speed.REFERENCE_MS:g} ms machine"
        )
    else:
        basis = "times scaled by the unstolen CPU share of each block"
    lines.append(
        f"  speed: {basis} by {min(scales):.3f}..{max(scales):.3f} (set-up {run.setup_scale:.3f})"
    )
    by_class: dict[str, list] = {}
    for sample in samples:
        by_class.setdefault(sample.cls, []).append(sample)
    lines.append("  classes by median ms: " + ", ".join(
        f"{cls} {quantile(group, 0.5):.1f} (n={len(group)})"
        for cls, group in sorted(by_class.items(), key=lambda item: quantile(item[1], 0.5))
    ))
    metrics = {name: {"value": values[name][0], "unit": unit} for name, unit in END_TO_END.items()}
    return metrics, lines


def per_layer(run) -> tuple[dict, list[str]]:
    """The per-layer metrics of a traced run, and the report lines."""
    metrics = {
        name: {"value": float(run.per_layer.get(name, 0.0)), "unit": unit}
        for name, unit in PER_LAYER.items()
    }
    lines = [f"  {name:<28} {m['value']:>12.4f} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"  self time per layer over {run.traced_ms:.0f} ms of traced verdicts:")
    for layer, total in sorted(run.layer_table.items(), key=lambda item: -item[1]):
        lines.append(f"    {layer:<28} {total:>10.1f} ms {100 * total / run.traced_ms:6.2f}%")
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bootstrap()
    from perfbench import workloads

    traced = bool(args.trace)
    OUT_DIR.mkdir(exist_ok=True)
    if args.workload == "service-repeat":
        run = workloads.run_service_workload(args.seed, args.seconds, traced, OUT_DIR)
    else:
        run = workloads.run_algorithm_workload(args.workload, args.seed, args.seconds, traced)

    samples = run.samples
    wrong = sum(s.wrong for s in samples) + run.setup_wrong
    failed = sum(not s.definitive for s in samples)
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(samples)} verdicts in {run.measured_s:.2f} s, {wrong} wrong, {failed} failed"
    )
    if traced:
        metrics, lines = per_layer(run)
        chrome = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        chrome.write_text(json.dumps({"traceEvents": run.chrome, "displayTimeUnit": "ms"}))
        lines.append(f"  Chrome trace-event JSON: {chrome.relative_to(ROOT)}")
    else:
        metrics, lines = end_to_end(run)
    for line in lines + [f"  note: {note}" for note in run.notes]:
        print(line)
    for sample in [s for s in samples if s.wrong or s.error][:10]:
        print(f"  {sample.cls}: verdict {sample.verdict} error {sample.error}")
    print(
        json.dumps(
            {"correct": wrong == 0, "attempted": len(samples), "failed": failed, "metrics": metrics}
        )
    )
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
