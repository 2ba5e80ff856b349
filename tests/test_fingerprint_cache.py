"""The fingerprint forms a circuit keeps, and circuits shared through the parse memo.

A circuit keeps the text of its canonical form and of its canonicalized
form once fingerprinted; the digests built from those texts must equal the
ones hashed from the form tuples, and every change to the circuit must drop
them.  The service's parse memo hands one circuit to every job that sends
its text, so nothing the manager runs may change an input circuit.
"""

import hashlib
import math
import pickle
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    bernstein_vazirani_dynamic,
    bernstein_vazirani_static,
    ghz_ladder,
    ghz_with_bug,
    iterative_qpe,
    qft_dynamic,
    qft_static_benchmark,
    qpe_static,
)
from repro.circuit import ClassicalRegister, QuantumCircuit, QuantumRegister
from repro.circuit.gates import CPhaseGate, HGate
from repro.circuit.operations import Instruction
from repro.circuit.parameter import Parameter
from repro.circuit.qasm import _format_number, _format_param, _memo_format_float
from repro.compilation import (
    canonical,
    decompose_to_cx_and_single_qubit,
    rewrite_single_qubit_to_u,
)
from repro.compilation.canonical import canonicalize
from repro.core import Configuration, EquivalenceCheckingManager
from repro.core.checkers.base import available_checkers
from repro.service.fingerprint import (
    _FORM_VERSION,
    canonical_circuit_form,
    canonical_configuration_form,
    canonical_pair_fingerprint,
    circuit_fingerprint,
    pair_fingerprint,
)
from repro.service.server import ParseMemo, VerificationService, circuit_from_qasm


def conditioned_reset(equivalent: bool = True) -> QuantumCircuit:
    """A reset conditioned on its own qubit's measurement: Scheme 1 cannot
    rebuild it.  One single-bit register per condition bit keeps it
    exportable to OpenQASM 2."""
    circuit = QuantumCircuit(
        QuantumRegister(1, "q"), ClassicalRegister(1, "m"), ClassicalRegister(1, "r")
    )
    circuit.h(0)
    circuit.measure(0, 0)
    circuit.reset(0, condition=(0, 1))
    if not equivalent:
        circuit.x(0)
    circuit.measure(0, 1)
    return circuit


PAIRS = {
    "qft-4": lambda: (qft_static_benchmark(4), qft_dynamic(4)),
    "qpe-3": lambda: (qpe_static(3), iterative_qpe(3)),
    "bv-1011": lambda: (
        bernstein_vazirani_static("1011"),
        bernstein_vazirani_dynamic("1011"),
    ),
    "conditioned-reset": lambda: (conditioned_reset(), conditioned_reset(False)),
}

#: (raw, canonical) digests computed with the fingerprint module as it was
#: before circuits kept their form texts, by hashing the form tuples.  A
#: change here orphans every persisted verdict journal.
PINNED = {
    ("qft-4", None): (
        "f4ff8ae4bb71352748e1d6c5cbd62a3034c1073aee6017f0c88413f96841ca61",
        "e600cf299a4f898e011393e097cb19f7d7fdbcae1edb1019d2e7d99df964246f",
    ),
    ("qft-4", "default"): (
        "42250ce86afaa29ecc1cf63ec6236f9665d825a2e8b5adef8c753bfdfbb93bcd",
        "86fe02acb41bad7324161888039ffabce0583aa7d8df3906aaac808e2cd2d764",
    ),
    ("qpe-3", None): (
        "f84e03d886c791c989caeb87daaaeb2d63ec150058c4c05ab89ac6f6c1249b92",
        "da08172b581440ba697100a568990d7ca4c35a8ca30e893f2dbad06566ce655d",
    ),
    ("qpe-3", "default"): (
        "fe3a5118dbb3b59359c705968c3e39bb06fd1ba8238166472e2d01cab554730a",
        "4d2b3e943071cb90c8d4a28addb02dc7dff85754539bbbbb3c13f2f0b739b57c",
    ),
    ("bv-1011", None): (
        "dc70ab9677a9275d35fc3adaac3437fceba0643d067d847c480e707215da1435",
        "acb98b59445eb6b582c071580a40bf1ccdd6b694b5494f0028a21eeb3b780e3d",
    ),
    ("bv-1011", "default"): (
        "7c96d6b2cb8a4ed20f098aed9e6295a3fd4e6a68721344bbe54f9d6d4bebbc5c",
        "e5e79131eb80a77c82c6f542835648714781b29516dcff37778d328a0c06cb72",
    ),
    ("conditioned-reset", None): (
        "f45b9908e6dad8555e885f8a32ec71cdcf55fe03b033f2a40a4ef4d40f54c902",
        "74e77006fdad4f7d9b0751583f9fe113d9853af945a43c783c410edf46cffa01",
    ),
    ("conditioned-reset", "default"): (
        "62c5cc93c608ae60f2866017c9772166dcb547fdbcae52a6fa7e31a0c74cbb20",
        "d0da84563a9f11f5789c40ec85c662651e09d08d91d0ff5a9f7d821637e3ac31",
    ),
}


#: Canonical pair digests recorded before the canonical key was built in one
#: walk.  Every translation of a circuit has the same canonical form, so one
#: digest per circuit covers all of its translation levels and subsets.
PINNED_CANONICAL = {
    "bv-101101": "55f586272844e67c3c00af2d3bdeeadcc2a6f3a5c596043b5c2c6ce066fb1705",
    "qft-5": "b80ad2af6b3cbf80e6533370ced085849315db0c07adbb26a66cdf8d4eea8360",
    "qpe-4": "1c88b01d0b1402a0d4bea560cf850311c0cee277a430dbc26e3cf1afb622761a",
    "qft-4": "fc36d34d9a002d0f31309eb30c0385483d787f6cc7b629b89cea18c3c9acda7a",
    "qft-6": "e58ffdbf0355711aaa2a9ba428f2bc05f52c8f86f45b8dc0a5505c04015a14f3",
    "bv-1011001": "ea4628263056d37cd0fed634153bf1a8c1baa61a8bb8242ad5d75b3db0703d2d",
}

#: ``benchmarks/bench_rewrite.py``'s full-mode families.
REWRITE_FAMILIES = {
    "bv-101101": lambda: bernstein_vazirani_static("101101"),
    "qft-5": lambda: qft_static_benchmark(5),
    "qpe-4": lambda: qpe_static(4),
}

#: The circuits whose gate subsets ``service-repeat`` translates.
SUBSET_FAMILIES = {
    "qft-4": lambda: qft_static_benchmark(4),
    "qft-6": lambda: qft_static_benchmark(6),
    "qpe-4": lambda: qpe_static(4),
    "bv-1011001": lambda: bernstein_vazirani_static("1011001"),
}


def translate_subset(circuit: QuantumCircuit, mask: int) -> QuantumCircuit:
    """The gates whose bit is set in ``mask`` translated to another level, as
    perfbench's ``service-repeat`` builds its canonical-tier requests."""
    result = circuit.copy_empty()
    gate_index = 0
    for instruction in circuit:
        if not instruction.is_gate or instruction.is_barrier:
            result.append_instruction(instruction)
            continue
        if mask >> gate_index & 1:
            single = circuit.copy_empty()
            single.append_instruction(instruction)
            if instruction.operation.num_qubits > 1:
                translated = decompose_to_cx_and_single_qubit(single)
            else:
                translated = rewrite_single_qubit_to_u(single)
            for piece in translated:
                result.append_instruction(piece)
        else:
            result.append_instruction(instruction)
        gate_index += 1
    return result


def translated_subsets(name: str, count: int = 5) -> list[QuantumCircuit]:
    """``count`` seeded subset translations of a circuit, parsed from QASM."""
    circuit = SUBSET_FAMILIES[name]()
    gates = sum(1 for instruction in circuit if instruction.is_gate)
    rng = random.Random(f"pinned-subsets:{name}")
    return [
        circuit_from_qasm(translate_subset(circuit, rng.randrange(1, 1 << gates)).to_qasm())
        for _ in range(count)
    ]


def _configuration(label):
    return None if label is None else Configuration()


def _tuple_digest(tag, first, second, configuration) -> str:
    """A pair digest hashed from the form tuple itself."""
    form = (
        _FORM_VERSION,
        tag,
        canonical_circuit_form(first),
        canonical_circuit_form(second),
        canonical_configuration_form(configuration),
    )
    return hashlib.sha256(repr(form).encode("utf-8")).hexdigest()


@st.composite
def circuits(draw):
    """Random circuits with angles off the pi grid, conditions and resets."""
    num_qubits = draw(st.integers(min_value=1, max_value=3))
    circuit = QuantumCircuit(num_qubits, num_qubits)
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        kind = draw(st.sampled_from(["h", "rz", "u", "cx", "measure", "reset", "x_if"]))
        qubit = draw(st.integers(min_value=0, max_value=num_qubits - 1))
        angle = draw(st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False))
        if kind == "h":
            circuit.h(qubit)
        elif kind == "rz":
            circuit.rz(angle, qubit)
        elif kind == "u":
            circuit.u(angle, angle / 3, -angle, qubit)
        elif kind == "cx" and num_qubits > 1:
            circuit.cx(qubit, (qubit + 1) % num_qubits)
        elif kind == "measure":
            circuit.measure(qubit, qubit)
        elif kind == "reset":
            circuit.reset(qubit)
        elif kind == "x_if":
            circuit.x(qubit, condition=(qubit, 1))
    return circuit


class TestPinnedDigests:
    @pytest.mark.parametrize("label", [None, "default"], ids=["none", "default"])
    @pytest.mark.parametrize("name", list(PAIRS))
    def test_digests_are_unchanged(self, name, label):
        first, second = PAIRS[name]()
        configuration = _configuration(label)
        raw, canonical = PINNED[(name, label)]
        # Twice: once computing the forms, once from the kept texts.
        for _ in range(2):
            assert pair_fingerprint(first, second, configuration) == raw
            assert canonical_pair_fingerprint(first, second, configuration) == canonical


class TestPinnedCanonicalDigests:
    @pytest.mark.parametrize("level", [1, 2, 3])
    @pytest.mark.parametrize("name", list(REWRITE_FAMILIES))
    def test_every_translation_level(self, name, level):
        circuit = REWRITE_FAMILIES[name]()
        one = decompose_to_cx_and_single_qubit(circuit)
        other = (circuit.copy(), one, rewrite_single_qubit_to_u(one))[level - 1]
        assert canonical_pair_fingerprint(circuit, other) == PINNED_CANONICAL[name]

    @pytest.mark.parametrize("name", list(SUBSET_FAMILIES))
    def test_translated_gate_subsets(self, name):
        original = circuit_from_qasm(SUBSET_FAMILIES[name]().to_qasm())
        for translated in translated_subsets(name):
            assert canonical_pair_fingerprint(translated, original) == PINNED_CANONICAL[name]


class TestDigestsEqualTupleDigests:
    @settings(max_examples=60, deadline=None)
    @given(first=circuits(), second=circuits(), default=st.booleans())
    def test_pair_digests(self, first, second, default):
        configuration = Configuration() if default else None
        expected_raw = _tuple_digest("pair", first, second, configuration)
        expected_canonical = _tuple_digest(
            "canonical-pair", canonicalize(first), canonicalize(second), configuration
        )
        for _ in range(2):
            assert pair_fingerprint(first, second, configuration) == expected_raw
            assert (
                canonical_pair_fingerprint(first, second, configuration)
                == expected_canonical
            )

    @settings(max_examples=30, deadline=None)
    @given(circuit=circuits())
    def test_circuit_digest(self, circuit):
        expected = hashlib.sha256(
            repr(canonical_circuit_form(circuit)).encode("utf-8")
        ).hexdigest()
        assert circuit_fingerprint(circuit) == expected
        assert circuit_fingerprint(circuit) == expected


def _fingerprints(circuit):
    other = ghz_ladder(2)
    return (
        circuit_fingerprint(circuit),
        pair_fingerprint(circuit, other),
        canonical_pair_fingerprint(circuit, other),
    )


class TestKeptFormsFollowChanges:
    @pytest.mark.parametrize(
        "change",
        [
            lambda circuit: circuit.rz(0.3, 0),
            lambda circuit: circuit.append(HGate(), [1]),
            lambda circuit: circuit.append_instruction(Instruction(HGate(), (0,))),
            lambda circuit: circuit.add_register(QuantumRegister(1, "extra")),
            lambda circuit: circuit.add_register(ClassicalRegister(2, "extra")),
        ],
        ids=["rz", "append", "append_instruction", "add_qreg", "add_creg"],
    )
    def test_a_changed_circuit_fingerprints_as_a_fresh_copy(self, change):
        circuit = qft_static_benchmark(3)
        before = _fingerprints(circuit)
        change(circuit)
        after = _fingerprints(circuit)
        assert after != before
        assert after == _fingerprints(circuit.copy())
        assert after == _fingerprints(pickle.loads(pickle.dumps(circuit)))

    def test_pickle_carries_no_kept_form(self):
        circuit = qft_dynamic(3)
        _fingerprints(circuit)
        assert circuit._forms
        assert "_forms" not in circuit.__getstate__()
        restored = pickle.loads(pickle.dumps(circuit))
        assert restored._forms == {}
        assert _fingerprints(restored) == _fingerprints(circuit)

    def test_an_uncanonicalizable_circuit_keeps_its_none(self):
        circuit = QuantumCircuit(1)
        circuit.rz(Parameter("theta"), 0)
        assert canonical_pair_fingerprint(circuit, circuit) is None
        assert circuit._forms["canonical"] is None
        assert canonical_pair_fingerprint(circuit, circuit) is None
        assert pair_fingerprint(circuit, circuit)

    def test_an_untranslatable_circuit_keeps_its_none(self):
        circuit = QuantumCircuit(3)
        circuit.mcp(0.3, [0, 1], 2)  # no CX + single-qubit rule: CompilationError
        assert canonical_pair_fingerprint(circuit, circuit) is None
        assert circuit._forms["canonical"] is None
        assert pair_fingerprint(circuit, circuit)

    def test_a_fault_in_the_walk_reaches_the_caller(self, monkeypatch):
        def broken(operation):
            raise AttributeError("injected")

        monkeypatch.setattr(canonical, "_template", broken)
        circuit = qft_static_benchmark(3)
        with pytest.raises(AttributeError, match="injected"):
            canonical_pair_fingerprint(circuit, circuit)
        assert "canonical" not in circuit._forms
        manager = EquivalenceCheckingManager(seed=3, verdict_cache=True)
        with pytest.raises(AttributeError, match="injected"):
            manager.run(qft_static_benchmark(3), qft_static_benchmark(3))


#: Angles at the edges of the pi-multiple snapping and of float range.
_EDGE_ANGLES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1.7e308]
_EDGE_ANGLES += [
    sign * numerator * math.pi / denominator + offset
    for sign in (1, -1)
    for numerator in (1, 3, 7)
    for denominator in (1, 2, 3, 4, 6, 8, 16, 32)
    for offset in (0.0, 1e-13, -1e-13, 2e-12)
]


class TestFormatMemo:
    @settings(max_examples=300, deadline=None)
    @given(
        value=st.one_of(
            st.sampled_from(_EDGE_ANGLES),
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(min_value=-20.0, max_value=20.0),
            st.integers(-64, 64).map(lambda k: k * math.pi / 32),
            st.tuples(st.integers(-64, 64), st.sampled_from([1e-13, -1e-13])).map(
                lambda pair: pair[0] * math.pi / 32 + pair[1]
            ),
        ),
        numpy_first=st.booleans(),
    )
    def test_memoized_format_equals_the_unmemoized_one(self, value, numpy_first):
        expected = _format_number(value)
        kinds = [np.float64(value), value] if numpy_first else [value, np.float64(value)]
        for kind in kinds + kinds:
            assert _format_param(kind) == expected

    def test_edge_angles_after_a_cleared_memo(self):
        _memo_format_float.cache_clear()
        for value in _EDGE_ANGLES + [-value for value in _EDGE_ANGLES]:
            assert _format_param(value) == _format_number(value)
            assert _format_param(np.float64(value)) == _format_number(value)
        assert _format_param(Parameter("theta") * 2) == str(Parameter("theta") * 2)


class TestProcessWideCanonicalMemos:
    def test_the_template_memo_stays_at_its_bound(self):
        for index in range(canonical._CACHE_SIZE + 50):
            canonical._template(CPhaseGate(0.001 * (index + 1)))
        info = canonical._template.cache_info()
        assert info.maxsize == canonical._CACHE_SIZE
        assert info.currsize == canonical._CACHE_SIZE

    def test_template_entries_are_never_mutated(self):
        circuits = [circuit for name in SUBSET_FAMILIES for circuit in translated_subsets(name, 2)]
        operations = {
            instruction.operation
            for circuit in circuits
            for instruction in circuit
            if instruction.is_gate and instruction.operation.name != "cx"
        }
        templates = {operation: canonical._template(operation) for operation in operations}
        before = {
            operation: [
                (piece, piece.params, local, None if matrix is None else matrix.copy())
                for piece, local, matrix in template
            ]
            for operation, template in templates.items()
        }
        for template in templates.values():
            assert isinstance(template, tuple)
            for piece, local, matrix in template:
                assert isinstance(local, tuple)
                if matrix is not None:
                    assert not matrix.flags.writeable
                    with pytest.raises(ValueError):
                        matrix[0, 0] = 0.0
        manager = EquivalenceCheckingManager(seed=3, verdict_cache=True)
        for circuit in circuits:
            manager.run(circuit, circuit_from_qasm(circuit.to_qasm()))
            canonicalize(circuit)
        for operation, template in templates.items():
            assert canonical._template(operation) is template
            for (piece, params, local, matrix), (now, now_local, now_matrix) in zip(
                before[operation], template
            ):
                assert now is piece and now.params == params and now_local == local
                if matrix is not None:
                    assert np.array_equal(now_matrix, matrix)

    def test_four_threads_on_memo_shared_circuits_get_the_single_threaded_digests(self):
        texts = [
            circuit.to_qasm() for name in SUBSET_FAMILIES for circuit in translated_subsets(name)
        ]
        originals = [SUBSET_FAMILIES[name]().to_qasm() for name in SUBSET_FAMILIES]
        expected = {}
        for text in texts:
            for original in originals:
                expected[text, original] = canonical_pair_fingerprint(
                    circuit_from_qasm(text), circuit_from_qasm(original)
                )
        memo = ParseMemo()
        for text in texts + originals:
            key, _ = memo.lookup(text)
            memo.store(key, circuit_from_qasm(text), len(text))
        canonical._template.cache_clear()
        canonical._merged_gate.cache_clear()
        _memo_format_float.cache_clear()
        start = threading.Barrier(4)
        results = [{} for _ in range(4)]

        def work(index):
            start.wait()
            order = list(expected)
            random.Random(index).shuffle(order)
            for text, original in order:
                results[index][text, original] = canonical_pair_fingerprint(
                    memo.lookup(text)[1], memo.lookup(original)[1]
                )

        threads = [threading.Thread(target=work, args=(index,)) for index in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(result == expected for result in results)


# ----------------------------------------------------------------------
# circuits shared through the parse memo
# ----------------------------------------------------------------------


def _snapshot(circuit):
    return (
        list(circuit._data),
        circuit.qregs,
        circuit.cregs,
        circuit.name,
        circuit_fingerprint(circuit.copy()),
        canonical_pair_fingerprint(circuit.copy(), circuit.copy()),
    )


def _memoized(pair):
    memo = ParseMemo()
    shared = []
    for circuit in pair:
        text = circuit.to_qasm()
        key, _ = memo.lookup(text)
        memo.store(key, circuit_from_qasm(text), len(text))
        shared.append(memo.lookup(text)[1])
    return shared


#: Static, dynamic and unreconstructible pairs (the last only Scheme 2 can
#: decide), equivalent and mutant.
SHARED_PAIRS = {
    "ghz-3": lambda: (ghz_ladder(3), ghz_ladder(3)),
    "ghz-mutant": lambda: (ghz_ladder(3), ghz_with_bug(3)),
    "qft-dynamic-3": lambda: (qft_dynamic(3), qft_dynamic(3)),
    "bv-101": lambda: (bernstein_vazirani_static("101"), bernstein_vazirani_dynamic("101")),
    "bv-mutant": lambda: (bernstein_vazirani_static("101"), bernstein_vazirani_dynamic("111")),
    "qft-3": lambda: (qft_static_benchmark(3), qft_dynamic(3)),
    "conditioned-reset": lambda: (conditioned_reset(), conditioned_reset()),
    "conditioned-reset-mutant": lambda: (conditioned_reset(), conditioned_reset(False)),
}


class TestMemoizedCircuitsAreNeverChanged:
    @pytest.mark.parametrize("backend", ["dd", "dense"])
    @pytest.mark.parametrize("name", list(SHARED_PAIRS))
    def test_every_checker_and_the_default_manager(self, name, backend):
        first, second = _memoized(SHARED_PAIRS[name]())
        # Fingerprinted first, as the service does on submission.
        pair_fingerprint(first, second)
        canonical_pair_fingerprint(first, second)
        before = (_snapshot(first), _snapshot(second))
        lineups = [None] + [(checker,) for checker in available_checkers()]
        for lineup in lineups:
            configuration = Configuration(seed=3, backend=backend, portfolio=lineup)
            for cache in (False, True):
                manager = EquivalenceCheckingManager(
                    configuration.updated(verdict_cache=cache)
                )
                manager.run(first, second)
                manager.run(first, second)
        assert (_snapshot(first), _snapshot(second)) == before
        assert pair_fingerprint(first, second) == pair_fingerprint(
            first.copy(), second.copy()
        )
        assert canonical_pair_fingerprint(first, second) == canonical_pair_fingerprint(
            first.copy(), second.copy()
        )

    def test_the_service_shares_one_circuit_per_text(self):
        first, second = (circuit.to_qasm() for circuit in SHARED_PAIRS["qft-3"]())
        service = VerificationService(Configuration(seed=3, max_workers=2))
        try:
            verdicts = []
            for _ in range(3):
                submission = service.submit_qasm(first, second)
                assert service.wait_settled(submission["job_id"], 30.0)
                verdicts.append(service.job_result(submission["job_id"])["criterion"])
            assert len(set(verdicts)) == 1
            memo = service.stats()["parse_memo"]
            assert memo["misses"] == 2 and memo["hits"] == 4
            shared = service.parse_memo.lookup(first)[1]
            assert shared is service.parse_memo.lookup(first)[1]
            assert list(shared._data) == list(QuantumCircuit.from_qasm(first)._data)
        finally:
            service.shutdown()
