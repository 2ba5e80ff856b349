"""Canonical fingerprint stability and sensitivity (repro.service.fingerprint)."""

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import (
    ClassicalRegister,
    QuantumCircuit,
    QuantumRegister,
)
from repro.core import Configuration
from repro.service.fingerprint import (
    canonical_circuit_form,
    circuit_fingerprint,
    configuration_fingerprint,
    pair_fingerprint,
)

SEED = 7


@st.composite
def qasm_native_circuits(draw):
    """Random circuits over gates with a native OpenQASM 2 representation.

    The QASM round-trip property only holds for gates the exporter does not
    decompose, so the vocabulary is restricted accordingly.
    """
    num_qubits = draw(st.integers(min_value=1, max_value=4))
    circuit = QuantumCircuit(num_qubits, num_qubits, name="hypothesis")
    num_ops = draw(st.integers(min_value=1, max_value=12))
    for _ in range(num_ops):
        kind = draw(st.sampled_from(["h", "x", "rz", "cx", "p", "barrier"]))
        qubit = draw(st.integers(min_value=0, max_value=num_qubits - 1))
        if kind == "h":
            circuit.h(qubit)
        elif kind == "x":
            circuit.x(qubit)
        elif kind == "rz":
            circuit.rz(draw(st.floats(0.0, math.pi, allow_nan=False)), qubit)
        elif kind == "p":
            circuit.p(draw(st.floats(0.0, math.pi, allow_nan=False)), qubit)
        elif kind == "barrier":
            circuit.barrier()
        elif kind == "cx" and num_qubits > 1:
            target = draw(
                st.integers(min_value=0, max_value=num_qubits - 1).filter(
                    lambda t: t != qubit
                )
            )
            circuit.cx(qubit, target)
    if draw(st.booleans()):
        circuit.measure_all()
    return circuit


def _bell(name="bell", reg_names=("q", "c")) -> QuantumCircuit:
    circuit = QuantumCircuit(
        QuantumRegister(2, reg_names[0]), ClassicalRegister(2, reg_names[1]), name=name
    )
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.measure(0, 0)
    circuit.measure(1, 1)
    return circuit


class TestCircuitFingerprintStability:
    def test_register_names_and_circuit_name_are_ignored(self):
        assert circuit_fingerprint(_bell()) == circuit_fingerprint(
            _bell(name="other", reg_names=("alpha", "beta"))
        )

    def test_split_registers_same_flat_indices_match(self):
        # One 2-qubit register vs two 1-qubit registers: the flat instruction
        # stream is identical, so the fingerprints must match.
        split = QuantumCircuit(
            QuantumRegister(1, "a"), QuantumRegister(1, "b"), name="split"
        )
        split.h(0)
        split.cx(0, 1)
        joined = QuantumCircuit(2, name="joined")
        joined.h(0)
        joined.cx(0, 1)
        assert circuit_fingerprint(split) == circuit_fingerprint(joined)

    def test_barriers_are_ignored(self):
        plain = QuantumCircuit(2)
        plain.h(0)
        plain.cx(0, 1)
        fenced = QuantumCircuit(2)
        fenced.h(0)
        fenced.barrier()
        fenced.cx(0, 1)
        assert circuit_fingerprint(plain) == circuit_fingerprint(fenced)

    def test_pi_multiple_params_survive_qasm_roundtrip(self):
        # The exporter renders pi/2 symbolically; the reconstructed float is
        # exactly math.pi / 2, and both must fingerprint identically.
        circuit = QuantumCircuit(1)
        circuit.rz(math.pi / 2, 0)
        rebuilt = QuantumCircuit.from_qasm(circuit.to_qasm())
        assert circuit_fingerprint(circuit) == circuit_fingerprint(rebuilt)

    def test_conditioned_operations_fingerprint_their_condition(self):
        base = QuantumCircuit(2, 2)
        base.h(0)
        base.measure(0, 0)
        conditioned = base.copy()
        conditioned.x(1, condition=(0, 1))
        other_value = base.copy()
        other_value.x(1, condition=(0, 0))
        unconditioned = base.copy()
        unconditioned.x(1)
        prints = {
            circuit_fingerprint(conditioned),
            circuit_fingerprint(other_value),
            circuit_fingerprint(unconditioned),
        }
        assert len(prints) == 3

    @settings(max_examples=40, deadline=None)
    @given(circuit=qasm_native_circuits())
    def test_pickle_roundtrip_stable(self, circuit):
        restored = pickle.loads(pickle.dumps(circuit))
        assert circuit_fingerprint(restored) == circuit_fingerprint(circuit)

    @settings(max_examples=40, deadline=None)
    @given(circuit=qasm_native_circuits())
    def test_qasm_roundtrip_stable(self, circuit):
        rebuilt = QuantumCircuit.from_qasm(circuit.to_qasm())
        assert circuit_fingerprint(rebuilt) == circuit_fingerprint(circuit)

    @settings(max_examples=40, deadline=None)
    @given(circuit=qasm_native_circuits())
    def test_canonical_form_is_deterministic(self, circuit):
        assert canonical_circuit_form(circuit) == canonical_circuit_form(circuit)
        assert circuit_fingerprint(circuit) == circuit_fingerprint(circuit)


class TestCircuitFingerprintSensitivity:
    def test_different_gate_differs(self):
        a = QuantumCircuit(1)
        a.x(0)
        b = QuantumCircuit(1)
        b.y(0)
        assert circuit_fingerprint(a) != circuit_fingerprint(b)

    def test_different_params_differ(self):
        a = QuantumCircuit(1)
        a.rz(0.25, 0)
        b = QuantumCircuit(1)
        b.rz(0.75, 0)
        assert circuit_fingerprint(a) != circuit_fingerprint(b)

    def test_gate_order_differs(self):
        a = QuantumCircuit(1)
        a.h(0)
        a.x(0)
        b = QuantumCircuit(1)
        b.x(0)
        b.h(0)
        assert circuit_fingerprint(a) != circuit_fingerprint(b)

    def test_operand_order_differs(self):
        a = QuantumCircuit(2)
        a.cx(0, 1)
        b = QuantumCircuit(2)
        b.cx(1, 0)
        assert circuit_fingerprint(a) != circuit_fingerprint(b)

    def test_control_state_differs(self):
        from repro.circuit.gates import XGate

        a = QuantumCircuit(2)
        a.append(XGate().control(1, ctrl_state=1), [0, 1])
        b = QuantumCircuit(2)
        b.append(XGate().control(1, ctrl_state=0), [0, 1])
        assert circuit_fingerprint(a) != circuit_fingerprint(b)

    def test_idle_qubit_differs(self):
        # Same instruction stream over different system sizes is a different
        # check (the identity on the extra qubit is part of the semantics).
        a = QuantumCircuit(1)
        a.h(0)
        b = QuantumCircuit(2)
        b.h(0)
        assert circuit_fingerprint(a) != circuit_fingerprint(b)

    @settings(max_examples=30, deadline=None)
    @given(circuit=qasm_native_circuits(), data=st.data())
    def test_appending_a_gate_changes_the_fingerprint(self, circuit, data):
        before = circuit_fingerprint(circuit)
        extended = circuit.copy()
        extended.sdg(data.draw(st.integers(0, circuit.num_qubits - 1)))
        assert circuit_fingerprint(extended) != before


class TestPairAndConfigurationFingerprints:
    def test_pair_order_matters(self):
        a = _bell()
        b = QuantumCircuit(2, 2)
        b.h(0)
        assert pair_fingerprint(a, b) != pair_fingerprint(b, a)

    def test_verdict_relevant_fields_partition_the_cache(self):
        a, b = _bell(), _bell()
        base = Configuration(seed=1)
        for overrides in (
            {"seed": 2},
            {"tolerance": 1e-5},
            {"num_simulations": 8},
            {"portfolio": ("alternating",)},
            {"timeout": 30.0},
        ):
            changed = base.updated(**overrides)
            assert pair_fingerprint(a, b, base) != pair_fingerprint(a, b, changed), (
                f"{overrides} must change the pair fingerprint"
            )

    def test_performance_knobs_share_entries(self):
        a, b = _bell(), _bell()
        base = Configuration(seed=1)
        for overrides in (
            {"executor": "process"},
            {"max_workers": 16},
            {"batch_chunk_size": 4},
            {"gate_cache_size": 32},
            {"verdict_cache": True},
            {"cache_size": 2},
        ):
            changed = base.updated(**overrides)
            assert pair_fingerprint(a, b, base) == pair_fingerprint(a, b, changed), (
                f"{overrides} must not change the pair fingerprint"
            )

    def test_default_portfolio_matches_explicit_spelling(self):
        from repro.core.manager import DEFAULT_PORTFOLIO

        a, b = _bell(), _bell()
        implicit = Configuration(seed=1)
        explicit = Configuration(seed=1, portfolio=DEFAULT_PORTFOLIO)
        assert pair_fingerprint(a, b, implicit) == pair_fingerprint(a, b, explicit)

    def test_configuration_fingerprint_none_is_distinct(self):
        assert configuration_fingerprint(None) != configuration_fingerprint(
            Configuration()
        )

    def test_fingerprint_is_hex_sha256(self):
        fingerprint = circuit_fingerprint(_bell())
        assert len(fingerprint) == 64
        assert set(fingerprint) <= set("0123456789abcdef")


class TestCanonicalPairFingerprint:
    """Translation-level invariance of the canonical (second-tier) cache key."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_invariant_under_translation_levels(self, seed):
        from repro.circuit.random_circuits import random_static_circuit
        from repro.compilation import (
            decompose_to_cx_and_single_qubit,
            rewrite_single_qubit_to_u,
        )
        from repro.service.fingerprint import canonical_pair_fingerprint

        configuration = Configuration(seed=SEED)
        original = random_static_circuit(3, 3, seed=seed)
        level_one = decompose_to_cx_and_single_qubit(original)
        level_two = rewrite_single_qubit_to_u(level_one)
        base = canonical_pair_fingerprint(original, original, configuration)
        assert base is not None
        for level in (level_one, level_two):
            assert (
                canonical_pair_fingerprint(level, level, configuration) == base
            ), f"canonical fingerprint drifted at seed {seed}"

    def test_raw_and_canonical_keys_are_distinct(self):
        from repro.service.fingerprint import canonical_pair_fingerprint

        configuration = Configuration(seed=SEED)
        first = _bell()
        assert canonical_pair_fingerprint(
            first, first, configuration
        ) != pair_fingerprint(first, first, configuration)

    def test_tight_tolerance_disables_the_canonical_key(self):
        from repro.service.fingerprint import (
            canonical_fingerprints_sound_for,
            canonical_pair_fingerprint,
        )

        tight = Configuration(tolerance=1e-10)
        assert canonical_fingerprints_sound_for(tight) is False
        assert canonical_pair_fingerprint(_bell(), _bell(), tight) is None
