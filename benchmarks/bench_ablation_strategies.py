"""Ablation A: checking methods on the QPE and compiled-circuit workloads.

The alternating scheme interleaves the two circuits' gates at a rate
proportional to their gate counts, which keeps the product close to the
identity.  The benchmarks compare it against the construction and simulative
checkers and record the maximum intermediate decision-diagram size where the
checker reports one.
"""

from __future__ import annotations

import pytest

from repro.algorithms import iterative_qpe, qpe_static, running_example_lambda
from repro.compilation import compile_circuit, ibmq_london
from repro.core import check_equivalence

QPE_BITS = 6


def test_alternating_on_compiled_circuit(benchmark):
    original = qpe_static(3, running_example_lambda)
    compiled = compile_circuit(original, ibmq_london())
    result = benchmark(
        lambda: check_equivalence(compiled.padded_original, compiled.circuit)
    )
    assert result.equivalent
    benchmark.extra_info["max_dd_nodes"] = result.details.get("max_nodes")


@pytest.mark.parametrize("method", ["alternating", "construction", "simulation"])
def test_method_comparison_on_qpe_pair(benchmark, method):
    """Alternating vs. construction vs. simulative checking."""
    static = qpe_static(QPE_BITS, running_example_lambda)
    dynamic = iterative_qpe(QPE_BITS, running_example_lambda)
    result = benchmark(lambda: check_equivalence(static, dynamic, method=method, seed=7))
    assert result.equivalent
    benchmark.extra_info["max_dd_nodes"] = result.details.get("max_nodes")
