"""Tests for Scheme 1: unitary reconstruction through circuit transformation."""

import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    bernstein_vazirani_dynamic,
    iterative_qpe,
    qft_dynamic,
    qpe_static,
    running_example_lambda,
)
from repro.circuit import ClassicalRegister, QuantumCircuit, QuantumRegister
from repro.circuit.operations import Instruction
from repro.core.checkers.base import gate_lists
from repro.core.transformation import (
    defer_measurements,
    permute_qubits,
    substitute_resets,
    to_unitary_circuit,
)
from repro.exceptions import CircuitError, TransformationError
from repro.service.fingerprint import circuit_fingerprint
from repro.simulators.unitary import circuit_unitary, matrices_equal_up_to_global_phase


class TestConditionedResets:
    def _conditioned_reset_circuit(self):
        circuit = QuantumCircuit(1, 2)
        circuit.x(0)
        circuit.measure(0, 0)
        circuit.reset(0, condition=(0, 1))
        circuit.measure(0, 1)
        return circuit

    def _cross_qubit_conditioned_reset_circuit(self):
        circuit = QuantumCircuit(2, 2)
        circuit.h(0)
        circuit.x(1)
        circuit.measure(0, 0)
        circuit.reset(1, condition=(0, 1))
        circuit.measure(1, 1)
        return circuit

    def test_substitute_resets_emits_conditioned_swap(self):
        # A conditioned reset becomes a conditioned SWAP with a fresh |0>
        # ancilla: the role qubit conditionally trades its state for |0>,
        # which is a reset with the garbage parked on the ancilla.  (The old
        # behaviour — raising — would have miscompiled nothing, but forced
        # every such pair onto the Scheme 2 checkers only.)
        substituted = substitute_resets(self._cross_qubit_conditioned_reset_circuit())
        assert substituted.num_qubits == 3
        assert substituted.num_resets == 0
        swaps = [inst for inst in substituted if inst.operation.name == "swap"]
        assert len(swaps) == 1
        assert swaps[0].qubits == (1, 2)
        assert swaps[0].condition is not None

    def test_conditioned_reset_reconstruction_preserves_distribution(self):
        from repro.core.extraction import extract_distribution

        circuit = self._cross_qubit_conditioned_reset_circuit()
        reconstructed = to_unitary_circuit(circuit).circuit
        assert not reconstructed.is_dynamic
        original = extract_distribution(circuit).distribution
        rebuilt = extract_distribution(reconstructed).distribution
        assert original == pytest.approx(rebuilt)

    def test_self_conditioned_reset_still_rejected_at_deferral(self):
        # Resetting the very qubit that sourced the condition has no unitary
        # reconstruction: the deferred control and the swap target coincide.
        # substitute_resets succeeds (the swap is structurally fine) but
        # defer_measurements reports the measured-qubit reuse.
        substituted = substitute_resets(self._conditioned_reset_circuit())
        assert substituted.num_resets == 0
        with pytest.raises(TransformationError, match="used after being measured"):
            to_unitary_circuit(self._conditioned_reset_circuit())

    def _untouched_conditioned_reset_circuit(self):
        circuit = QuantumCircuit(2, 2)
        circuit.h(0)
        circuit.measure(0, 0)
        circuit.reset(1, condition=(0, 1))  # qubit 1 still |0>: no-op either way
        return circuit

    def test_conditioned_reset_on_untouched_qubit_is_dropped(self):
        substituted = substitute_resets(self._untouched_conditioned_reset_circuit())
        assert substituted.num_qubits == 2
        assert all(inst.operation.name != "swap" for inst in substituted)

    @staticmethod
    def _random_conditioned_reset_circuit(num_qubits: int, seed: int):
        """A reconstructible random circuit containing a conditioned reset.

        ``random_dynamic_circuit`` never emits conditioned resets, so this
        builds the shape by hand: random state preparation, a mid-circuit
        measurement, then a reset of a *different* qubit conditioned on that
        outcome (the self-conditioned case has no unitary reconstruction).
        """
        rng = random.Random(seed)
        circuit = QuantumCircuit(num_qubits, 2)
        gates = ("h", "x", "s", "t", "sx")
        for _ in range(rng.randint(1, 4)):
            getattr(circuit, rng.choice(gates))(rng.randrange(num_qubits))
        if num_qubits >= 2 and rng.random() < 0.5:
            control, target = rng.sample(range(num_qubits), 2)
            circuit.cx(control, target)
        measured = rng.randrange(num_qubits)
        circuit.measure(measured, 0)
        target = rng.choice([q for q in range(num_qubits) if q != measured])
        # Touch the target first so the reset is not dropped as a no-op.
        getattr(circuit, rng.choice(gates))(target)
        circuit.reset(target, condition=(0, rng.choice((0, 1))))
        if rng.random() < 0.5:
            getattr(circuit, rng.choice(gates))(target)
        circuit.measure(target, 1)
        return circuit

    @settings(max_examples=15, deadline=None)
    @given(num_qubits=st.integers(2, 3), seed=st.integers(0, 10_000))
    def test_reconstruction_agrees_with_distribution_extraction(
        self, num_qubits, seed
    ):
        """Scheme 1 on conditioned resets matches the Scheme 2 semantics."""
        from repro.core.extraction import extract_distribution

        circuit = self._random_conditioned_reset_circuit(num_qubits, seed)
        assert circuit.num_resets == 1
        reconstructed = to_unitary_circuit(circuit).circuit
        assert not reconstructed.is_dynamic
        assert reconstructed.num_resets == 0
        original = extract_distribution(circuit).distribution
        rebuilt = extract_distribution(reconstructed).distribution
        for key in set(original) | set(rebuilt):
            assert original.get(key, 0.0) == pytest.approx(
                rebuilt.get(key, 0.0), abs=1e-9
            ), key

    def test_unconditioned_resets_still_substituted(self):
        circuit = QuantumCircuit(1, 2)
        circuit.x(0)
        circuit.measure(0, 0)
        circuit.reset(0)
        circuit.measure(0, 1)
        substituted = substitute_resets(circuit)
        assert substituted.num_qubits == 2
        assert substituted.num_resets == 0


class TestSubstituteResets:
    def test_no_resets_returns_copy(self):
        circuit = QuantumCircuit(2, 2)
        circuit.h(0)
        result = substitute_resets(circuit)
        assert result.num_qubits == 2
        assert result.size == 1

    def test_one_reset_adds_one_qubit(self):
        circuit = QuantumCircuit(1, 2)
        circuit.h(0)
        circuit.measure(0, 0)
        circuit.reset(0)
        circuit.h(0)
        circuit.measure(0, 1)
        result = substitute_resets(circuit)
        assert result.num_qubits == 2
        assert result.num_resets == 0
        # The second H acts on the fresh qubit.
        h_targets = [inst.qubits[0] for inst in result if inst.operation.name == "h"]
        assert h_targets == [0, 1]

    def test_reset_on_untouched_qubit_is_dropped(self):
        circuit = QuantumCircuit(2, 1)
        circuit.reset(1)
        circuit.h(0)
        result = substitute_resets(circuit)
        assert result.num_qubits == 2
        assert result.num_resets == 0

    def test_multiple_resets_same_qubit(self):
        circuit = QuantumCircuit(1, 3)
        for k in range(3):
            circuit.h(0)
            circuit.measure(0, k)
            if k < 2:
                circuit.reset(0)
        result = substitute_resets(circuit)
        assert result.num_qubits == 3
        measured = [inst.qubits[0] for inst in result if inst.is_measurement]
        assert measured == [0, 1, 2]

    def test_paper_example_qubit_count(self):
        """An n-qubit circuit with r resets becomes an (n + r)-qubit circuit."""
        dynamic = iterative_qpe(3)
        assert dynamic.num_qubits == 2
        assert dynamic.num_resets == 2
        result = substitute_resets(dynamic)
        assert result.num_qubits == 4

    def test_conditions_are_preserved(self):
        circuit = QuantumCircuit(1, 1)
        circuit.measure(0, 0)
        circuit.reset(0)
        circuit.x(0, condition=(0, 1))
        result = substitute_resets(circuit)
        conditioned = [inst for inst in result if inst.condition is not None]
        assert len(conditioned) == 1
        assert conditioned[0].qubits == (1,)


class TestDeferMeasurements:
    def test_measurements_moved_to_end(self):
        circuit = QuantumCircuit(2, 1)
        circuit.h(0)
        circuit.measure(0, 0)
        circuit.h(1)
        deferred, sources = defer_measurements(circuit)
        assert deferred.data[-1].is_measurement
        assert sources == {0: 0}

    def test_classical_control_becomes_quantum_control(self):
        circuit = QuantumCircuit(2, 1)
        circuit.h(0)
        circuit.measure(0, 0)
        circuit.x(1, condition=(0, 1))
        deferred, _ = defer_measurements(circuit)
        names = [inst.operation.name for inst in deferred]
        assert "cx" in names
        cx = next(inst for inst in deferred if inst.operation.name == "cx")
        assert cx.qubits == (0, 1)

    def test_condition_value_zero_becomes_negative_control(self):
        circuit = QuantumCircuit(2, 1)
        circuit.h(0)
        circuit.measure(0, 0)
        circuit.x(1, condition=(0, 0))
        deferred, _ = defer_measurements(circuit)
        controlled = next(inst for inst in deferred if inst.operation.num_qubits == 2)
        assert controlled.operation.ctrl_state == 0

    def test_condition_on_never_written_bit(self):
        circuit = QuantumCircuit(1, 1)
        # The classical bit is never written: requiring 1 drops the gate,
        # requiring 0 keeps it unconditioned.
        circuit.x(0, condition=(0, 1))
        circuit.h(0, condition=(0, 0))
        deferred, _ = defer_measurements(circuit)
        names = [inst.operation.name for inst in deferred]
        assert names == ["h"]

    def test_reset_must_be_removed_first(self):
        circuit = QuantumCircuit(1, 1)
        circuit.h(0)
        circuit.reset(0)
        with pytest.raises(TransformationError):
            defer_measurements(circuit)

    def test_measured_qubit_reuse_raises(self):
        circuit = QuantumCircuit(1, 1)
        circuit.measure(0, 0)
        circuit.h(0)
        with pytest.raises(TransformationError):
            defer_measurements(circuit)

    def test_control_equal_to_target_raises(self):
        circuit = QuantumCircuit(2, 1)
        circuit.h(0)
        circuit.measure(0, 0)
        # After substitution the source qubit of c0 is qubit 0; conditioning a
        # gate on qubit 0 itself cannot be converted.
        circuit.x(1, condition=(0, 1))
        # Manually craft the conflicting case: condition controls the gate's own qubit.
        conflict = QuantumCircuit(1, 1)
        conflict.h(0)
        conflict.measure(0, 0)
        with pytest.raises(TransformationError):
            conflict.x(0, condition=(0, 1))
            defer_measurements(conflict)

    def test_deferred_circuit_preserves_fixed_input_behaviour(self):
        from repro.core.extraction import extract_distribution

        circuit = QuantumCircuit(2, 2)
        circuit.h(0)
        circuit.measure(0, 0)
        circuit.x(1, condition=(0, 1))
        circuit.measure(1, 1)
        deferred, _ = defer_measurements(circuit)
        original = extract_distribution(circuit).distribution
        reconstructed = extract_distribution(deferred).distribution
        assert original == pytest.approx(reconstructed)


class TestToUnitaryCircuit:
    def test_result_is_unitary_circuit(self):
        result = to_unitary_circuit(iterative_qpe(3))
        assert not result.circuit.is_dynamic
        assert result.circuit.num_resets == 0
        assert result.num_added_qubits == 2
        assert result.num_original_qubits == 2
        assert result.time_taken >= 0.0

    def test_measurement_sources_cover_all_clbits(self):
        result = to_unitary_circuit(iterative_qpe(4))
        assert set(result.measurement_sources.keys()) == set(range(4))

    def test_iqpe_reconstruction_equals_static_qpe(self):
        """Fig. 3b equals Fig. 1a: the reconstructed IQPE is the static QPE."""
        for num_bits in (2, 3):
            dynamic = iterative_qpe(num_bits, running_example_lambda)
            static = qpe_static(num_bits, running_example_lambda)
            reconstructed = to_unitary_circuit(dynamic).circuit
            assert matrices_equal_up_to_global_phase(
                circuit_unitary(reconstructed.remove_final_measurements()),
                circuit_unitary(static.remove_final_measurements()),
            )

    def test_already_static_circuit_passes_through(self):
        circuit = QuantumCircuit(2, 2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.measure_all()
        result = to_unitary_circuit(circuit)
        assert result.num_added_qubits == 0
        assert np.allclose(
            circuit_unitary(result.circuit), circuit_unitary(circuit), atol=1e-12
        )


def _value_zero_conditioned_reset_circuit():
    """A reset that fires on outcome 0, after which its qubit is used again."""
    circuit = QuantumCircuit(2, 2)
    circuit.h(0)
    circuit.h(1)
    circuit.measure(0, 0)
    circuit.reset(1, condition=(0, 0))
    circuit.h(1)
    circuit.measure(1, 1)
    return circuit


class TestPinnedRebuilds:
    """The rebuilt circuits are pinned by their structural fingerprint.

    The digests, fresh-wire counts and measurement sources were computed
    with the two-pass rebuild (``substitute_resets`` then a separate
    ``defer_measurements`` pass) that the one-pass walk replaced, so any
    change to the emitted instructions shows here.  A change of
    ``repro.service.fingerprint``'s canonical form also changes them.
    """

    @pytest.mark.parametrize(
        "build,digest,added,sources",
        [
            (
                lambda: qft_dynamic(128),
                "106da337e986f33e422a3d3f87f5d27927b6521109ba39f4d4fc84013a5e483e",
                127,
                {k: k for k in range(128)},
            ),
            (
                lambda: iterative_qpe(50, running_example_lambda),
                "70a77ee5f619cdeb294d436ae9e41fe040abdd4946fd696ed42463df6eb23b73",
                49,
                {k: k + 1 for k in range(50)},
            ),
            (
                lambda: bernstein_vazirani_dynamic("1101" * 32),
                "96cc811d8e641ac36f7101de993ef65f29cb98e709928064a34adc8daad5a650",
                127,
                {k: k + 1 for k in range(128)},
            ),
            (
                TestConditionedResets()._cross_qubit_conditioned_reset_circuit,
                "880fe38ae5a6ebbbde2df95dd0cf6f2be4093d2cd521c14b6503a3321542c57b",
                1,
                {0: 0, 1: 1},
            ),
            (
                TestConditionedResets()._untouched_conditioned_reset_circuit,
                "2bb98f233c65b301d511a35901c569df22dc445c1d3762b61bf9f3514965b681",
                0,
                {0: 0},
            ),
            (
                _value_zero_conditioned_reset_circuit,
                "82233840398a1b5551624fc267a213825752ba647a51f19f69bdd101efa4f7e8",
                1,
                {0: 0, 1: 1},
            ),
        ],
        ids=["qft_128", "qpe_50", "bv_128", "cross_qubit", "untouched", "value_zero"],
    )
    def test_rebuild_is_pinned(self, build, digest, added, sources):
        result = to_unitary_circuit(build())
        assert circuit_fingerprint(result.circuit) == digest
        assert result.num_added_qubits == added
        assert result.measurement_sources == sources
        assert result.fresh_qubits == tuple(
            range(result.num_original_qubits, result.num_original_qubits + added)
        )
        assert not result.circuit.is_dynamic


_CONDITIONABLE = ("h", "x", "s", "t", "sx")


@st.composite
def _dynamic_circuits(draw):
    """Small dynamic circuits: resets, mid-circuit measurements, conditions
    on one or several bits, barriers and multi-qubit gates, including the
    shapes the rebuild rejects (a measured qubit reused, a condition that
    controls its own target)."""
    num_qubits = draw(st.integers(1, 3))
    num_clbits = draw(st.integers(1, 3))
    if draw(st.booleans()):
        circuit = QuantumCircuit(num_qubits, num_clbits)
    else:
        circuit = QuantumCircuit(
            QuantumRegister(num_qubits, "q"),
            *[ClassicalRegister(1, f"c{k}") for k in range(num_clbits)],
        )
    qubit = st.integers(0, num_qubits - 1)
    for _ in range(draw(st.integers(1, 10))):
        condition = None
        if draw(st.integers(0, 2)) == 0:
            bits = draw(st.lists(st.integers(0, num_clbits - 1), min_size=1, unique=True))
            condition = (bits, draw(st.integers(0, (1 << len(bits)) - 1)))
        kind = draw(st.sampled_from(("gate", "two", "measure", "reset", "barrier")))
        if kind == "gate":
            getattr(circuit, draw(st.sampled_from(_CONDITIONABLE)))(
                draw(qubit), condition=condition
            )
        elif kind == "two" and num_qubits >= 2:
            first, second = draw(st.permutations(range(num_qubits)))[:2]
            name = draw(st.sampled_from(("cx", "swap")))
            getattr(circuit, name)(first, second, condition=condition)
        elif kind == "measure":
            circuit.measure(draw(qubit), draw(st.integers(0, num_clbits - 1)))
        elif kind == "reset":
            circuit.reset(draw(qubit), condition=condition)
        elif kind == "barrier":
            circuit.barrier(draw(qubit))
    return circuit


def _outcome(function, circuit):
    try:
        return function(circuit)
    except TransformationError as error:
        return str(error)


def _layout(circuit):
    return [(reg.name, reg.size) for reg in circuit.qregs + circuit.cregs]


def _same_source_twice_circuit():
    """A condition on two bits that one qubit wrote: no controlled form."""
    circuit = QuantumCircuit(2, 2)
    circuit.h(0)
    circuit.measure(0, 0)
    circuit.measure(0, 1)
    circuit.x(1, condition=([0, 1], 3))
    return circuit


class TestOnePassRebuild:
    @settings(max_examples=200, deadline=None)
    @given(circuit=_dynamic_circuits())
    @example(circuit=_same_source_twice_circuit())
    def test_one_pass_equals_its_two_views_composed(self, circuit):
        one_pass = _outcome(to_unitary_circuit, circuit)
        composed = _outcome(lambda c: defer_measurements(substitute_resets(c)), circuit)
        if isinstance(one_pass, str) or isinstance(composed, str):
            assert one_pass == composed
            return
        deferred, sources = composed
        assert list(one_pass.circuit) == list(deferred)
        assert one_pass.circuit.name == deferred.name
        assert _layout(one_pass.circuit) == _layout(deferred)
        assert one_pass.measurement_sources == sources
        assert one_pass.num_added_qubits == deferred.num_qubits - circuit.num_qubits
        assert len(one_pass.fresh_qubits) == one_pass.num_added_qubits
        assert not one_pass.circuit.is_dynamic

    @settings(max_examples=200, deadline=None)
    @given(circuit=_dynamic_circuits())
    def test_rebuilt_instructions_pass_validation(self, circuit):
        rebuilt = [substitute_resets(circuit)]
        unitary = _outcome(to_unitary_circuit, circuit)
        if not isinstance(unitary, str):
            rebuilt.append(unitary.circuit)
        for result in rebuilt:
            checked = result.copy_empty()
            for instruction in result:
                assert all(type(q) is int for q in instruction.qubits + instruction.clbits)
                again = Instruction(
                    instruction.operation,
                    instruction.qubits,
                    instruction.clbits,
                    instruction.condition,
                )
                checked.append_instruction(again)
                assert again == instruction
            assert checked.num_qubits == result.num_qubits

    @settings(max_examples=100, deadline=None)
    @given(circuit=_dynamic_circuits())
    def test_gate_lists_strip_what_remove_final_measurements_strips(self, circuit):
        # The checkers' one-walk gate streams against the two-step reference.
        rebuilt = _outcome(to_unitary_circuit, circuit)
        circuits = [circuit] if isinstance(rebuilt, str) else [circuit, rebuilt.circuit]
        for candidate in circuits:
            try:
                expected = list(candidate.remove_final_measurements().gate_instructions())
            except CircuitError as error:
                with pytest.raises(CircuitError, match=re.escape(str(error))):
                    gate_lists(candidate, candidate)
                continue
            left, right = gate_lists(candidate, candidate)
            assert left == right == expected
            assert all(a is b for a, b in zip(left, expected))

    def test_same_source_twice_raises(self):
        with pytest.raises(TransformationError, match="same source qubit twice"):
            to_unitary_circuit(_same_source_twice_circuit())

    def test_unmoved_instructions_are_reused(self):
        circuit = QuantumCircuit(2, 2)
        circuit.h(0)
        circuit.measure(0, 0)
        circuit.reset(0)
        circuit.cx(1, 0)
        rebuilt = to_unitary_circuit(circuit).circuit
        assert rebuilt[0] is circuit[0]
        assert rebuilt[1] == Instruction(circuit[3].operation, (1, 2))
        assert rebuilt[1] is not circuit[3]


class TestPermuteQubits:
    def test_permutation_relabels_gates(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 2)
        permuted = permute_qubits(circuit, {0: 2, 1: 1, 2: 0})
        assert permuted.data[0].qubits == (2, 0)

    def test_permutation_preserves_gate_count(self):
        circuit = QuantumCircuit(3)
        circuit.h(0)
        circuit.ccx(0, 1, 2)
        permuted = permute_qubits(circuit, {0: 1, 1: 2, 2: 0})
        assert permuted.count_ops() == circuit.count_ops()

    def test_invalid_permutation_raises(self):
        circuit = QuantumCircuit(2)
        with pytest.raises(TransformationError):
            permute_qubits(circuit, {0: 0, 1: 0})

    def test_identity_permutation_keeps_functionality(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        permuted = permute_qubits(circuit, {0: 0, 1: 1})
        assert np.allclose(circuit_unitary(permuted), circuit_unitary(circuit))
