"""Tests for the QuantumCircuit IR."""

import numpy as np
import pytest

from repro.circuit import (
    ClassicalRegister,
    QuantumCircuit,
    QuantumRegister,
)
from repro.exceptions import CircuitError
from repro.simulators.unitary import circuit_unitary


def bell_pair() -> QuantumCircuit:
    circuit = QuantumCircuit(2, 2)
    circuit.h(0)
    circuit.cx(0, 1)
    return circuit


class TestConstruction:
    def test_integer_constructor(self):
        circuit = QuantumCircuit(3, 2)
        assert circuit.num_qubits == 3
        assert circuit.num_clbits == 2

    def test_register_constructor(self):
        qreg = QuantumRegister(2, "a")
        creg = ClassicalRegister(1, "m")
        circuit = QuantumCircuit(qreg, creg)
        assert circuit.qregs == [qreg]
        assert circuit.cregs == [creg]

    def test_mixed_registers(self):
        circuit = QuantumCircuit(QuantumRegister(1, "a"), QuantumRegister(2, "b"))
        assert circuit.num_qubits == 3

    def test_three_integers_raise(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(1, 2, 3)

    def test_duplicate_register_names_raise(self):
        circuit = QuantumCircuit(QuantumRegister(1, "q"))
        with pytest.raises(CircuitError):
            circuit.add_register(QuantumRegister(2, "q"))

    def test_qubit_object_resolution(self):
        qreg = QuantumRegister(2, "q")
        circuit = QuantumCircuit(qreg)
        circuit.h(qreg[1])
        assert circuit.data[0].qubits == (1,)

    def test_out_of_range_qubit_raises(self):
        circuit = QuantumCircuit(1)
        with pytest.raises(CircuitError):
            circuit.h(3)

    def test_foreign_qubit_raises(self):
        circuit = QuantumCircuit(1)
        other = QuantumRegister(1, "other")
        with pytest.raises(CircuitError):
            circuit.h(other[0])


class TestGateMethods:
    def test_all_single_qubit_methods(self):
        circuit = QuantumCircuit(1)
        circuit.i(0)
        circuit.x(0)
        circuit.y(0)
        circuit.z(0)
        circuit.h(0)
        circuit.s(0)
        circuit.sdg(0)
        circuit.t(0)
        circuit.tdg(0)
        circuit.sx(0)
        circuit.sxdg(0)
        circuit.rx(0.1, 0)
        circuit.ry(0.2, 0)
        circuit.rz(0.3, 0)
        circuit.p(0.4, 0)
        circuit.u(0.1, 0.2, 0.3, 0)
        circuit.u2(0.1, 0.2, 0)
        assert circuit.size == 17

    def test_all_multi_qubit_methods(self):
        circuit = QuantumCircuit(4)
        circuit.cx(0, 1)
        circuit.cy(0, 1)
        circuit.cz(0, 1)
        circuit.ch(0, 1)
        circuit.cp(0.1, 0, 1)
        circuit.crx(0.2, 0, 1)
        circuit.cry(0.3, 0, 1)
        circuit.crz(0.4, 0, 1)
        circuit.cu(0.1, 0.2, 0.3, 0, 1)
        circuit.swap(0, 1)
        circuit.iswap(2, 3)
        circuit.ccx(0, 1, 2)
        circuit.ccz(0, 1, 2)
        circuit.cswap(0, 1, 2)
        circuit.mcx([0, 1, 2], 3)
        circuit.mcp(0.5, [0, 1], 2)
        assert circuit.size == 16

    def test_count_ops(self):
        circuit = bell_pair()
        counts = circuit.count_ops()
        assert counts["h"] == 1
        assert counts["cx"] == 1

    def test_global_phase(self):
        circuit = QuantumCircuit(1)
        circuit.global_phase(0.5)
        assert np.allclose(circuit_unitary(circuit), np.exp(0.5j) * np.eye(2))


class TestDynamicClassification:
    def test_static_circuit_with_final_measurements(self):
        circuit = bell_pair()
        circuit.measure_all()
        assert not circuit.is_dynamic
        assert circuit.contains_non_unitaries

    def test_reset_makes_dynamic(self):
        circuit = QuantumCircuit(1, 1)
        circuit.h(0)
        circuit.reset(0)
        assert circuit.is_dynamic

    def test_mid_circuit_measurement_makes_dynamic(self):
        circuit = QuantumCircuit(1, 1)
        circuit.measure(0, 0)
        circuit.h(0)
        assert circuit.is_dynamic

    def test_classical_condition_makes_dynamic(self):
        circuit = QuantumCircuit(2, 1)
        circuit.measure(0, 0)
        circuit.x(1, condition=(0, 1))
        assert circuit.is_dynamic
        assert circuit.num_classically_controlled == 1

    def test_cached_answer_flips_on_append(self):
        circuit = bell_pair()
        assert not circuit.is_dynamic
        circuit.reset(1)
        assert circuit.is_dynamic

    def test_cached_answer_flips_on_append_instruction(self):
        circuit = bell_pair()
        circuit.measure(0, 0)
        assert not circuit.is_dynamic
        circuit.append_instruction(circuit.data[0])  # h on the measured qubit
        assert circuit.is_dynamic

    def test_derived_circuits_answer_for_their_own_instructions(self):
        import pickle

        dynamic = QuantumCircuit(1, 1)
        dynamic.h(0)
        dynamic.measure(0, 0)
        assert not dynamic.is_dynamic
        dynamic.reset(0)
        assert dynamic.is_dynamic
        assert dynamic.copy().is_dynamic
        assert pickle.loads(pickle.dumps(dynamic)).is_dynamic
        assert not dynamic.copy_empty().is_dynamic
        static = bell_pair()
        assert not static.is_dynamic
        static.measure(0, 0)
        assert not static.remove_final_measurements().is_dynamic

    def test_counts(self):
        circuit = QuantumCircuit(2, 2)
        circuit.measure(0, 0)
        circuit.reset(0)
        circuit.measure(0, 1)
        assert circuit.num_measurements == 2
        assert circuit.num_resets == 1

    def test_condition_on_register(self):
        creg = ClassicalRegister(2, "c")
        circuit = QuantumCircuit(QuantumRegister(1, "q"), creg)
        circuit.x(0, condition=(creg, 2))
        condition = circuit.data[0].condition
        assert condition.clbits == (0, 1)
        assert condition.value == 2


class TestStructuralQueries:
    def test_depth_parallel_gates(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.h(1)
        assert circuit.depth() == 1

    def test_depth_sequential_gates(self):
        circuit = bell_pair()
        assert circuit.depth() == 2

    def test_depth_ignores_barriers(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.barrier()
        circuit.h(1)
        assert circuit.depth() == 1

    def test_size_ignores_barriers(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.barrier()
        assert circuit.size == 1

    def test_depth_accounts_for_conditions(self):
        circuit = QuantumCircuit(2, 1)
        circuit.measure(0, 0)
        circuit.x(1, condition=(0, 1))
        assert circuit.depth() == 2

    def test_used_qubits(self):
        circuit = QuantumCircuit(4)
        circuit.h(1)
        circuit.cx(1, 3)
        assert circuit.used_qubits() == {1, 3}

    def test_measure_all_requires_enough_clbits(self):
        circuit = QuantumCircuit(3, 1)
        with pytest.raises(CircuitError):
            circuit.measure_all()

    def test_summary_and_repr(self):
        circuit = bell_pair()
        assert "2 qubits" in circuit.summary()
        assert "QuantumCircuit" in repr(circuit)


class TestTransformations:
    def test_copy_is_independent(self):
        circuit = bell_pair()
        clone = circuit.copy()
        clone.x(0)
        assert circuit.size == 2
        assert clone.size == 3

    def test_copy_empty_keeps_registers(self):
        circuit = bell_pair()
        empty = circuit.copy_empty()
        assert empty.num_qubits == 2
        assert empty.size == 0

    def test_inverse_reverses_and_inverts(self):
        circuit = QuantumCircuit(1)
        circuit.s(0)
        circuit.t(0)
        inverse = circuit.inverse()
        names = [inst.operation.name for inst in inverse]
        assert names == ["tdg", "sdg"]

    def test_inverse_of_dynamic_circuit_raises(self):
        circuit = QuantumCircuit(1, 1)
        circuit.measure(0, 0)
        circuit.x(0, condition=(0, 1))
        with pytest.raises(CircuitError):
            circuit.inverse()

    def test_inverse_composed_gives_identity(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.crx(0.7, 0, 1)
        circuit.swap(0, 1)
        combined = circuit.compose(circuit.inverse())
        assert np.allclose(circuit_unitary(combined), np.eye(4), atol=1e-12)

    def test_compose_with_mapping(self):
        inner = QuantumCircuit(1)
        inner.x(0)
        outer = QuantumCircuit(3)
        combined = outer.compose(inner, qubits=[2])
        assert combined.data[0].qubits == (2,)

    def test_compose_maps_conditions(self):
        inner = QuantumCircuit(1, 1)
        inner.x(0, condition=(0, 1))
        outer = QuantumCircuit(2, 2)
        combined = outer.compose(inner, qubits=[1], clbits=[1])
        assert combined.data[0].condition.clbits == (1,)

    def test_compose_size_mismatch_raises(self):
        inner = QuantumCircuit(2)
        outer = QuantumCircuit(3)
        with pytest.raises(CircuitError):
            outer.compose(inner, qubits=[0])

    def test_remove_barriers(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.barrier()
        cleaned = circuit.remove_barriers()
        assert cleaned.size == 1
        assert all(not inst.is_barrier for inst in cleaned)

    def test_remove_final_measurements(self):
        circuit = bell_pair()
        circuit.measure_all()
        stripped = circuit.remove_final_measurements()
        assert stripped.num_measurements == 0
        assert stripped.size == 2

    def test_remove_final_measurements_keeps_mid_circuit(self):
        circuit = QuantumCircuit(1, 2)
        circuit.measure(0, 0)
        circuit.h(0)
        circuit.measure(0, 1)
        stripped = circuit.remove_final_measurements()
        assert stripped.num_measurements == 1

    def test_gate_instructions_rejects_dynamic(self):
        circuit = QuantumCircuit(1, 1)
        circuit.measure(0, 0)
        circuit.h(0)
        with pytest.raises(CircuitError):
            list(circuit.gate_instructions())


class TestDrawer:
    def test_draw_contains_wires_and_gates(self):
        circuit = bell_pair()
        circuit.measure(0, 0)
        drawing = circuit.draw()
        assert "q0:" in drawing
        assert "c0:" in drawing
        assert "h" in drawing
        assert "M" in drawing

    def test_draw_dynamic_circuit(self):
        circuit = QuantumCircuit(1, 1)
        circuit.measure(0, 0)
        circuit.reset(0)
        circuit.x(0, condition=(0, 1))
        drawing = circuit.draw()
        assert "?" in drawing  # condition marker
        assert "0" in drawing  # reset marker
