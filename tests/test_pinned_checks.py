"""What ``check_equivalence`` and ``check_behavioural_equivalence`` return, pinned.

Every method on both backends, over small Table-1 pairs (BV, QFT and QPE,
static vs. dynamic) and one ``rz`` mutant of each.  The criteria and details
(timings excluded) in ``pinned_checks.json`` were recorded while
``construction`` and ``distribution`` still ran as one opaque step, so any
change to the gates a checker applies, their order or what it reports shows
here: ``construction``'s node counts and ``dd_statistics`` included.

Regenerate the file with ``PYTHONPATH=src python tests/test_pinned_checks.py
> tests/pinned_checks.json`` only for a change that is meant to alter results.
"""

import json
import math
from pathlib import Path

import pytest

from repro.algorithms import (
    bernstein_vazirani_dynamic,
    bernstein_vazirani_static,
    iterative_qpe,
    qft_dynamic,
    qft_static_benchmark,
    qpe_static,
)
from repro.core.equivalence import check_behavioural_equivalence, check_equivalence

PINS = Path(__file__).with_name("pinned_checks.json")
TIMINGS = ("time_extract_first", "time_extract_second")
METHODS = ("alternating", "construction", "simulation", "distribution")


def _with_rz(circuit, position: int):
    """``circuit`` with ``rz(1.0)`` on qubit 0 before its ``position``-th instruction."""
    mutant = circuit.copy_empty()
    for index, instruction in enumerate(circuit):
        if index == position:
            mutant.rz(1.0, 0)
        mutant.append_instruction(instruction)
    return mutant


def _pairs():
    pairs = {
        "bv": (bernstein_vazirani_static("1011"), bernstein_vazirani_dynamic("1011")),
        "qft": (qft_static_benchmark(3), qft_dynamic(3)),
        "qpe": (qpe_static(3), iterative_qpe(3)),
    }
    for name, (static, dynamic) in list(pairs.items()):
        pairs[f"{name}-rz"] = (_with_rz(static, 2), dynamic)
    return pairs


def _record(result) -> list:
    details = {key: value for key, value in result.details.items() if key not in TIMINGS}
    return [result.criterion.value, details]


def _results(name: str, first, second) -> dict:
    results = {}
    for method in METHODS:
        for backend in ("dd", "dense"):
            result = check_equivalence(first, second, method=method, backend=backend, seed=7)
            results[f"{name}/{method}/{backend}"] = _record(result)
    for backend in ("dd", "statevector"):
        result = check_behavioural_equivalence(first, second, backend=backend)
        results[f"{name}/behavioural/{backend}"] = _record(result)
    return results


def _assert_same(actual, expected, where: str) -> None:
    """Equal, floats to within a few ulps (dense kernels may differ by platform)."""
    if isinstance(expected, float):
        assert math.isclose(actual, expected, rel_tol=1e-12, abs_tol=1e-15), where
    elif isinstance(expected, dict):
        assert sorted(actual) == sorted(expected), where
        for key, value in expected.items():
            _assert_same(actual[key], value, f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), where
        for index, (got, want) in enumerate(zip(actual, expected)):
            _assert_same(got, want, f"{where}[{index}]")
    else:
        assert actual == expected, where


@pytest.mark.parametrize("name", sorted(_pairs()))
def test_results_equal_the_pinned_ones(name):
    expected = json.loads(PINS.read_text())
    actual = json.loads(json.dumps(_results(name, *_pairs()[name])))
    pinned = {key: value for key, value in expected.items() if key.startswith(f"{name}/")}
    assert sorted(actual) == sorted(pinned)
    _assert_same(actual, pinned, name)


if __name__ == "__main__":
    recorded = {}
    for name, pair in _pairs().items():
        recorded.update(_results(name, *pair))
    print(json.dumps(recorded, sort_keys=True, indent=1))
