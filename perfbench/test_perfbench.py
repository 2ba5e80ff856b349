"""Tests of the benchmark itself: known answers, metric names, spans.

Run with ``python -m pytest perfbench -q`` from the repository root.

The known-answer reference is an independent dense product of gate matrices
written out below: it uses neither repro's checkers nor its dense backend.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import random
import sys
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import inputs, run, spans  # noqa: E402
from repro.core import Configuration, to_unitary_circuit  # noqa: E402
from repro.service.fingerprint import canonical_pair_fingerprint  # noqa: E402

#: The metric names of the benchmark's specification, verbatim.
SPECIFIED_END_TO_END = (
    "prove_ms", "refute_ms", "p90_ms", "throughput_per_s", "setup_s",
    "peak_rss_mb", "wrong_verdicts", "failed_ratio",
)
SPECIFIED_PER_LAYER = (
    "dd.gate_build_ms", "dd.multiply_ms", "dd.identity_ms", "dd.count_nodes_ms",
    "dd.mv_multiply_ms", "dd.gate_builds", "dd.multiplies", "dd.gate_cache_hit_ratio",
    "dd.peak_nodes", "dd.matrix_nodes", "transform.ms", "transform.gates_out",
    "checker.alternating.ms", "checker.simulation.ms", "checker.simulation.wasted_ms",
    "portfolio.decisive_ratio", "scheduler.decide_ms", "manager.self_ms",
    "qasm.parse_ms", "fingerprint.raw_ms", "fingerprint.canonical_ms",
    "cache.lookup_ms", "cache.hit_ratio", "http.submit_ms", "http.result_ms",
    "http.requests_per_verdict", "http.overhead_ms", "obs.tracer_overhead",
    "trace.unattributed_ratio", "trace.wrapper_overhead",
)
SPECIFIED_WORKLOADS = ("table1-scheme1", "portfolio-default", "service-repeat")

# ----------------------------------------------------------------------
# independent dense reference
# ----------------------------------------------------------------------

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)


def _single(name: str, params: list[float]) -> np.ndarray:
    if name == "h":
        return _H
    if name == "x":
        return _X
    if name == "rz":
        (theta,) = params
        return np.diag([cmath.exp(-0.5j * theta), cmath.exp(0.5j * theta)])
    if name == "p":
        (lam,) = params
        return np.diag([1, cmath.exp(1j * lam)])
    if name == "u":
        theta, phi, lam = params
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return np.array(
            [[c, -cmath.exp(1j * lam) * s], [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c]]
        )
    raise KeyError(name)


def _local_matrix(name: str, params: list[float]) -> np.ndarray:
    """Gate matrix, local bit j of the index belonging to the j-th operand."""
    if name in ("cx", "cp"):
        base = _X if name == "cx" else _single("p", params)
        matrix = np.eye(4, dtype=complex)
        # Control is operand 0 (bit 0), target operand 1 (bit 1).
        for target_out in range(2):
            for target_in in range(2):
                matrix[1 + 2 * target_out, 1 + 2 * target_in] = base[target_out, target_in]
        return matrix
    return _single(name, params)


def dense_unitary(circuit) -> np.ndarray:
    """Product of the circuit's gate matrices; final measurements ignored."""
    n = circuit.num_qubits
    dim = 1 << n
    unitary = np.eye(dim, dtype=complex).reshape((2,) * n + (dim,))
    phase = 1.0 + 0j
    for instruction in circuit:
        if instruction.is_measurement:
            continue
        assert instruction.is_gate and instruction.condition is None, instruction
        operation = instruction.operation
        params = [float(value) for value in operation.params]
        if operation.name == "gphase":
            phase *= cmath.exp(1j * params[0])
            continue
        qubits = list(instruction.qubits)
        k = len(qubits)
        local = _local_matrix(operation.name, params).reshape((2,) * (2 * k))
        # Axis a of the state holds qubit n-1-a; axis m of a k-qubit block
        # holds its operand k-1-m.
        state_axes = [n - 1 - qubits[k - 1 - m] for m in range(k)]
        unitary = np.tensordot(local, unitary, axes=(list(range(k, 2 * k)), state_axes))
        unitary = np.moveaxis(unitary, list(range(k)), state_axes)
    return phase * unitary.reshape(dim, dim)


def same_up_to_phase(first, second) -> bool:
    a, b = dense_unitary(first), dense_unitary(second)
    overlap = abs(np.trace(a.conj().T @ b)) / a.shape[0]
    return overlap > 1 - 1e-9


def _assert_not_measured_after(circuit) -> None:
    assert not circuit.is_dynamic, "a mutant must stay static"


SMALL = [("qft", 2), ("qft", 3), ("qft", 5), ("qpe", 2), ("qpe", 4), ("qpe", 5), ("bv", 2), ("bv", 3), ("bv", 5)]


@pytest.mark.parametrize("family,n", SMALL)
def test_originals_equivalent_and_mutants_not(family, n):
    rng = random.Random(f"test:{family}:{n}")
    for _ in range(3):
        original = inputs.make_pair(family, n, True, rng)
        reconstructed = to_unitary_circuit(original.second).circuit
        assert same_up_to_phase(original.first, reconstructed)
        mutant = inputs.make_pair(family, n, False, rng)
        _assert_not_measured_after(mutant.first)
        reconstructed = to_unitary_circuit(mutant.second).circuit
        assert not same_up_to_phase(mutant.first, reconstructed)


@pytest.mark.parametrize("family", ["ghz", "bv"])
def test_first_seen_pairs(family):
    rng = random.Random(f"test:first-seen:{family}")
    for n in (4, 5, 6):
        equivalent = inputs.first_seen_pair(family, n, True, rng)
        assert same_up_to_phase(equivalent.first, equivalent.second)
        mutant = inputs.first_seen_pair(family, n, False, rng)
        _assert_not_measured_after(mutant.first)
        assert not same_up_to_phase(mutant.first, mutant.second)


def test_translated_subsets_keep_answer_and_canonical_key():
    configuration = Configuration(scheduler="adaptive", seed=0, verdict_cache=True)
    rng = random.Random("test:translate")
    for family, n in (("qft", 4), ("qpe", 3), ("bv", 4)):
        for equivalent in (True, False):
            pair = inputs.make_pair(family, n, equivalent, rng)
            key = canonical_pair_fingerprint(pair.first, pair.second, configuration)
            gates = inputs.gate_count(pair.first)
            for mask in (1, (1 << gates) - 1, rng.randrange(1, 1 << gates)):
                translated = inputs.translate_subset(pair.first, mask)
                assert same_up_to_phase(translated, pair.first)
                assert canonical_pair_fingerprint(translated, pair.second, configuration) == key


# ----------------------------------------------------------------------
# blocks and names
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["table1-scheme1", "portfolio-default"])
def test_algorithm_blocks_are_seeded_and_a_quarter_mutants(workload):
    first = list(itertools.islice(inputs.algorithm_blocks(workload, 7), 2))
    again = list(itertools.islice(inputs.algorithm_blocks(workload, 7), 2))
    for block, same in zip(first, again):
        assert [pair.cls for pair in block] == [pair.cls for pair in same]
        assert [pair.first.to_qasm() for pair in block] == [pair.first.to_qasm() for pair in same]
        assert len(block) == 40
        assert sum(not pair.equivalent for pair in block) == 10


def test_service_block_shares():
    block = inputs.ServiceInputs(3).block()
    tiers = [request.tier for request in block]
    assert (tiers.count("hit"), tiers.count("canonical"), tiers.count("miss")) == (56, 20, 4)
    assert sum(not request.equivalent for request in block) == 20


def test_names_match_specification_and_benchmark_json():
    design = inputs.DESIGN
    assert tuple(run.WORKLOADS) == SPECIFIED_WORKLOADS
    assert set(design["workloads"]) == set(SPECIFIED_WORKLOADS)
    assert tuple(design["end_to_end"]) == SPECIFIED_END_TO_END
    assert tuple(run.END_TO_END) + tuple(run.CORRECTNESS) == SPECIFIED_END_TO_END
    assert tuple(design["per_layer"]) == SPECIFIED_PER_LAYER
    assert tuple(run.PER_LAYER) == SPECIFIED_PER_LAYER
    for name, entry in design["per_layer"].items():
        assert set(entry["moves"]) <= set(SPECIFIED_END_TO_END), name
        assert set(entry["on"]) <= set(SPECIFIED_WORKLOADS), name
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in benchmark["workloads"]] == list(SPECIFIED_WORKLOADS)
    assert {m["name"]: m["unit"] for m in benchmark["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in benchmark["per_layer"]} == run.PER_LAYER
    assert benchmark["paths"] == ["perfbench"]


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------


class _Tree:
    def depth(self, n):
        return 0 if n == 0 else 1 + self.depth(n - 1)


@pytest.fixture
def toy_module():
    module = types.ModuleType("perfbench_toy")

    def inner(n):
        return sum(range(n))

    def outer(n):
        return module.inner(n) + module.inner(n)

    module.inner, module.outer, module.Tree = inner, outer, _Tree
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


def test_self_time_excludes_children_and_recursion_is_one_span(toy_module):
    recorder = spans.Recorder()
    recorder.wrap("perfbench_toy:outer", "outer")
    recorder.wrap("perfbench_toy:inner", "inner")
    recorder.wrap("perfbench_toy:Tree.depth", "depth", recursive=True)
    try:
        with recorder.verdict("v"):
            toy_module.outer(20000)
            assert toy_module.Tree().depth(50) == 50
    finally:
        recorder.restore()
    group = recorder.groups["v"]
    assert group["layers"]["inner"][1] == 2
    assert group["layers"]["depth"][1] == 1
    total = sum(self_ns for self_ns, _ in group["layers"].values())
    assert total == group["root_ns"]
    assert toy_module.outer.__name__ == "outer"
    assert "depth" not in vars(toy_module.Tree())
    metrics = spans.reduce_groups(recorder.verdict_groups())
    assert set(spans.SELF_TIME_METRICS) <= set(metrics)
