"""Tests for the compilation substrate and the 'verify compilation' use case."""

import numpy as np
import pytest

from repro.algorithms import qft_circuit, qpe_static, running_example_lambda
from repro.circuit import QuantumCircuit
from repro.circuit.random_circuits import random_static_circuit
from repro.compilation import (
    CouplingMap,
    cancel_inverse_pairs,
    compile_circuit,
    decompose_to_cx_and_single_qubit,
    ibmq_london,
    linear_coupling,
    merge_rotations,
    optimize_circuit,
    pad_circuit,
    remove_identities,
    rewrite_single_qubit_to_u,
    ring_coupling,
    route_circuit,
    zyz_decomposition,
)
from repro.core import check_equivalence
from repro.exceptions import CompilationError
from repro.simulators.unitary import circuit_unitary, matrices_equal_up_to_global_phase


def assert_equivalent(first: QuantumCircuit, second: QuantumCircuit) -> None:
    assert matrices_equal_up_to_global_phase(
        circuit_unitary(first.remove_final_measurements()),
        circuit_unitary(second.remove_final_measurements()),
    )


class TestCouplingMap:
    def test_london_topology(self):
        device = ibmq_london()
        assert device.num_qubits == 5
        assert device.are_adjacent(1, 3)
        assert not device.are_adjacent(0, 4)
        assert device.distance(0, 4) == 3
        assert device.shortest_path(0, 4) == [0, 1, 3, 4]

    def test_linear_and_ring(self):
        assert linear_coupling(4).distance(0, 3) == 3
        assert ring_coupling(4).distance(0, 3) == 1

    def test_connectivity_check(self):
        disconnected = CouplingMap(4, [(0, 1), (2, 3)])
        assert not disconnected.is_connected()
        with pytest.raises(CompilationError):
            disconnected.distance(0, 3)

    def test_invalid_edges_raise(self):
        with pytest.raises(CompilationError):
            CouplingMap(2, [(0, 5)])
        with pytest.raises(CompilationError):
            CouplingMap(2, [(1, 1)])

    def test_neighbors(self):
        assert ibmq_london().neighbors(1) == {0, 2, 3}


class TestZYZ:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_unitary_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        matrix = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        alpha, theta, phi, lam = zyz_decomposition(matrix)
        from repro.circuit.gates import RYGate, RZGate

        reconstructed = (
            np.exp(1j * alpha)
            * RZGate(phi).matrix
            @ RYGate(theta).matrix
            @ RZGate(lam).matrix
        )
        assert np.allclose(reconstructed, matrix, atol=1e-9)

    def test_diagonal_matrix(self):
        from repro.circuit.gates import SGate

        alpha, theta, phi, lam = zyz_decomposition(SGate().matrix)
        assert theta == pytest.approx(0.0)

    def test_antidiagonal_matrix(self):
        from repro.circuit.gates import XGate

        alpha, theta, phi, lam = zyz_decomposition(XGate().matrix)
        assert theta == pytest.approx(np.pi)

    def test_bad_shape_raises(self):
        with pytest.raises(CompilationError):
            zyz_decomposition(np.eye(4))


class TestDecomposition:
    def test_all_standard_multi_qubit_gates(self):
        circuit = QuantumCircuit(3)
        circuit.cp(0.7, 0, 1)
        circuit.crx(1.1, 1, 2)
        circuit.cry(-0.4, 0, 2)
        circuit.crz(2.2, 2, 0)
        circuit.ch(0, 1)
        circuit.cy(0, 1)
        circuit.cu(0.3, 0.4, 0.5, 1, 2)
        circuit.swap(0, 2)
        circuit.iswap(0, 1)
        circuit.ccx(0, 1, 2)
        circuit.ccz(1, 2, 0)
        circuit.cswap(2, 0, 1)
        decomposed = decompose_to_cx_and_single_qubit(circuit)
        assert_equivalent(circuit, decomposed)
        for instruction in decomposed:
            gate = instruction.operation
            assert gate.num_qubits <= 2
            if gate.num_qubits == 2:
                assert gate.name == "cx"

    def test_negative_control_decomposition(self):
        circuit = QuantumCircuit(2)
        from repro.circuit.gates import CPhaseGate

        circuit.append(CPhaseGate(0.9, ctrl_state=0), [0, 1])
        decomposed = decompose_to_cx_and_single_qubit(circuit)
        assert_equivalent(circuit, decomposed)

    def test_conditions_are_propagated(self):
        circuit = QuantumCircuit(2, 1)
        circuit.measure(0, 0)
        # A conditioned SWAP is decomposed into conditioned CNOTs.
        circuit.swap(0, 1)
        decomposed = decompose_to_cx_and_single_qubit(circuit)
        assert decomposed.count_ops()["cx"] == 3

    def test_single_qubit_rewrite_to_u(self):
        circuit = random_static_circuit(2, 4, seed=3)
        rewritten = rewrite_single_qubit_to_u(circuit)
        assert_equivalent(circuit, rewritten)
        single_qubit_names = {
            inst.operation.name
            for inst in rewritten
            if inst.operation.num_qubits == 1 and inst.is_gate
        }
        assert single_qubit_names <= {"u", "gphase"}

    def test_unsupported_gate_raises(self):
        circuit = QuantumCircuit(4)
        circuit.mcx([0, 1, 2], 3)
        with pytest.raises(CompilationError):
            decompose_to_cx_and_single_qubit(circuit)


class TestOptimization:
    def test_cancel_inverse_pairs(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.cx(0, 1)
        circuit.t(1)
        optimized = cancel_inverse_pairs(circuit)
        assert optimized.size == 1
        assert optimized.data[0].operation.name == "t"

    def test_cancellation_respects_intervening_gates(self):
        circuit = QuantumCircuit(1)
        circuit.h(0)
        circuit.t(0)
        circuit.h(0)
        assert cancel_inverse_pairs(circuit).size == 3

    def test_cancellation_across_disjoint_wires(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.x(1)
        circuit.h(0)
        assert cancel_inverse_pairs(circuit).size == 1

    def test_merge_rotations(self):
        circuit = QuantumCircuit(1)
        circuit.rz(0.3, 0)
        circuit.rz(0.4, 0)
        merged = merge_rotations(circuit)
        assert merged.size == 1
        assert merged.data[0].operation.params[0] == pytest.approx(0.7)

    def test_merge_to_zero_then_removed(self):
        circuit = QuantumCircuit(1)
        circuit.p(0.5, 0)
        circuit.p(-0.5, 0)
        optimized = optimize_circuit(circuit)
        assert optimized.size == 0

    def test_remove_identities(self):
        circuit = QuantumCircuit(1)
        circuit.i(0)
        circuit.rx(0.0, 0)
        circuit.x(0)
        assert remove_identities(circuit).size == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_optimization_preserves_functionality(self, seed):
        circuit = random_static_circuit(3, 6, seed=seed)
        padded = circuit.copy()
        padded.h(0)
        padded.h(0)
        padded.rz(0.2, 1)
        padded.rz(-0.2, 1)
        optimized = optimize_circuit(padded)
        assert optimized.size <= padded.size
        assert check_equivalence(circuit, optimized).equivalent

    def test_broken_optimization_is_caught(self):
        circuit = random_static_circuit(3, 5, seed=11)
        broken = circuit.copy()
        broken.s(2)  # a stray gate, as an "optimizer bug"
        assert not check_equivalence(circuit, optimize_circuit(broken)).equivalent


class TestRouting:
    def test_all_two_qubit_gates_respect_coupling(self):
        circuit = qft_circuit(4, include_swaps=False)
        decomposed = decompose_to_cx_and_single_qubit(circuit)
        result = route_circuit(decomposed, linear_coupling(4))
        for instruction in result.circuit:
            if instruction.operation.num_qubits == 2 and instruction.is_gate:
                assert linear_coupling(4).are_adjacent(*instruction.qubits)

    def test_layout_is_restored(self):
        circuit = decompose_to_cx_and_single_qubit(qft_circuit(4, include_swaps=False))
        result = route_circuit(circuit, linear_coupling(4))
        assert result.final_layout[: circuit.num_qubits] == result.initial_layout

    def test_routed_circuit_is_equivalent(self):
        circuit = decompose_to_cx_and_single_qubit(qft_circuit(3, include_swaps=False))
        result = route_circuit(circuit, linear_coupling(3))
        assert_equivalent(circuit, result.circuit)

    def test_a_qubit_read_into_two_bits_stays_read_out(self):
        circuit = QuantumCircuit(3, 2)
        circuit.h(0)
        circuit.cx(0, 2)
        circuit.measure(0, 0)
        circuit.measure(0, 1)
        result = route_circuit(circuit, linear_coupling(3))
        assert result.num_swaps >= 1
        assert not result.circuit.is_dynamic
        assert [inst.operation.name for inst in result.circuit][-2:] == ["measure"] * 2
        assert_equivalent(circuit, result.circuit)

    def test_a_measurement_a_condition_reads_stays_in_the_body(self):
        # h q0; measure q0->c0; if(c0==1) x q1; measure q0->c1: the first
        # measurement must still write c0 before the conditioned x reads it.
        from repro.core import extract_distribution

        circuit = QuantumCircuit(2, 3)
        circuit.h(0)
        circuit.measure(0, 0)
        circuit.x(1, condition=(0, 1))
        circuit.measure(0, 1)
        circuit.measure(1, 2)
        routed = route_circuit(circuit, linear_coupling(2)).circuit
        names = [inst.operation.name for inst in routed]
        assert names.index("measure") < names.index("x")
        assert [inst.clbits for inst in routed if inst.is_measurement] == [(0,), (1,), (2,)]
        original = extract_distribution(circuit).distribution
        assert extract_distribution(routed).distribution == pytest.approx(original)

    def test_too_many_logical_qubits_raises(self):
        with pytest.raises(CompilationError):
            route_circuit(QuantumCircuit(6), ibmq_london())

    def test_three_qubit_gate_raises(self):
        circuit = QuantumCircuit(3)
        circuit.ccx(0, 1, 2)
        with pytest.raises(CompilationError):
            route_circuit(circuit, linear_coupling(3))

    def test_disconnected_coupling_raises(self):
        with pytest.raises(CompilationError):
            route_circuit(QuantumCircuit(2), CouplingMap(4, [(0, 1), (2, 3)]))

    def test_custom_initial_layout(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        result = route_circuit(circuit, ibmq_london(), initial_layout=[0, 2])
        assert result.num_swaps >= 1

    def test_pad_circuit(self):
        circuit = QuantumCircuit(2, 2)
        circuit.h(0)
        padded = pad_circuit(circuit, 5)
        assert padded.num_qubits == 5
        with pytest.raises(CompilationError):
            pad_circuit(padded, 2)


class TestFullCompilationFlow:
    """The Fig. 1 scenario: QPE compiled to IBMQ London, then verified."""

    def test_compiled_qpe_is_equivalent(self):
        original = qpe_static(3, running_example_lambda)
        result = compile_circuit(original, ibmq_london())
        assert result.stats["compiled_cx"] > 0
        verification = check_equivalence(result.padded_original, result.circuit)
        assert verification.equivalent

    def test_compiled_circuit_uses_only_native_gates(self):
        result = compile_circuit(qpe_static(3), ibmq_london())
        for instruction in result.circuit:
            if instruction.is_gate:
                assert instruction.operation.name in {"u", "cx", "gphase"}

    def test_compilation_without_coupling_map(self):
        original = qft_circuit(3)
        result = compile_circuit(original)
        assert result.coupling_map is None
        assert check_equivalence(original, result.circuit).equivalent

    def test_miscompilation_is_detected(self):
        original = qpe_static(3, running_example_lambda)
        result = compile_circuit(original, ibmq_london())
        broken = result.circuit.remove_final_measurements()
        broken.x(1)
        assert not check_equivalence(
            result.padded_original.remove_final_measurements(), broken
        ).equivalent

    def test_random_circuits_survive_compilation(self):
        for seed in range(3):
            original = random_static_circuit(4, 4, seed=seed)
            result = compile_circuit(original, ibmq_london())
            assert check_equivalence(result.padded_original, result.circuit).equivalent
