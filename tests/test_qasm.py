"""Tests for OpenQASM 2 export and import."""

import math

import numpy as np
import pytest

from repro.algorithms import (
    bernstein_vazirani_dynamic,
    iterative_qpe,
    qft_dynamic,
    qft_static_benchmark,
    qpe_static,
)
from repro.circuit import (
    ClassicalRegister,
    QuantumCircuit,
    QuantumRegister,
    circuit_from_qasm,
    circuit_to_qasm,
    random_static_circuit,
)
from repro.circuit.qasm import _MEMO_MAX_CHARS, _eval_param, _memo_numeric_param
from repro.compilation import decompose_to_cx_and_single_qubit
from repro.exceptions import QasmError
from repro.simulators.unitary import circuit_unitary, matrices_equal_up_to_global_phase


def assert_same_functionality(first: QuantumCircuit, second: QuantumCircuit) -> None:
    assert first.num_qubits == second.num_qubits
    if not first.is_dynamic and not second.is_dynamic:
        assert matrices_equal_up_to_global_phase(
            circuit_unitary(first), circuit_unitary(second)
        )


class TestExport:
    def test_header_and_registers(self):
        circuit = QuantumCircuit(QuantumRegister(2, "qr"), ClassicalRegister(1, "cr"))
        qasm = circuit_to_qasm(circuit)
        assert qasm.startswith("OPENQASM 2.0;")
        assert "qreg qr[2];" in qasm
        assert "creg cr[1];" in qasm

    def test_gate_statements(self):
        circuit = QuantumCircuit(2, 2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.rz(math.pi / 2, 1)
        circuit.measure(1, 0)
        qasm = circuit_to_qasm(circuit)
        assert "h q[0];" in qasm
        assert "cx q[0], q[1];" in qasm
        assert "rz(pi/2) q[1];" in qasm
        assert "measure q[1] -> c[0];" in qasm

    def test_reset_and_barrier(self):
        circuit = QuantumCircuit(2, 1)
        circuit.reset(0)
        circuit.barrier()
        qasm = circuit_to_qasm(circuit)
        assert "reset q[0];" in qasm
        assert "barrier" in qasm

    def test_condition_on_full_register(self):
        circuit = QuantumCircuit(QuantumRegister(1, "q"), ClassicalRegister(1, "flag"))
        circuit.x(0, condition=(0, 1))
        qasm = circuit_to_qasm(circuit)
        assert "if (flag == 1) x q[0];" in qasm

    def test_condition_on_partial_register_raises(self):
        circuit = QuantumCircuit(QuantumRegister(1, "q"), ClassicalRegister(2, "c"))
        circuit.x(0, condition=(0, 1))
        with pytest.raises(QasmError):
            circuit_to_qasm(circuit)

    def test_mcx_without_representation_raises(self):
        circuit = QuantumCircuit(4)
        circuit.mcx([0, 1, 2], 3)
        with pytest.raises(QasmError):
            circuit_to_qasm(circuit)

    def test_pi_formatting(self):
        circuit = QuantumCircuit(1)
        circuit.p(3 * math.pi / 8, 0)
        assert "3*pi/8" in circuit_to_qasm(circuit)


class TestImport:
    def test_simple_program(self):
        qasm = """
        OPENQASM 2.0;
        include "qelib1.inc";
        qreg q[2];
        creg c[2];
        h q[0];
        cx q[0], q[1];
        measure q[0] -> c[0];
        measure q[1] -> c[1];
        """
        circuit = circuit_from_qasm(qasm)
        assert circuit.num_qubits == 2
        assert circuit.num_measurements == 2
        assert circuit.count_ops()["cx"] == 1

    def test_parameter_expressions(self):
        circuit = circuit_from_qasm(
            'OPENQASM 2.0; include "qelib1.inc"; qreg q[1]; rz(3*pi/4) q[0]; p(0.25) q[0];'
        )
        assert circuit.data[0].operation.params[0] == pytest.approx(3 * math.pi / 4)
        assert circuit.data[1].operation.params[0] == pytest.approx(0.25)

    def test_comments_are_ignored(self):
        circuit = circuit_from_qasm(
            "OPENQASM 2.0; qreg q[1]; // a comment\nx q[0]; // trailing"
        )
        assert circuit.count_ops()["x"] == 1

    def test_if_statement(self):
        qasm = (
            "OPENQASM 2.0; qreg q[1]; creg c0[1]; measure q[0] -> c0[0]; "
            "if (c0 == 1) x q[0];"
        )
        circuit = circuit_from_qasm(qasm)
        assert circuit.data[-1].condition is not None
        assert circuit.data[-1].condition.value == 1

    def test_unknown_gate_raises(self):
        with pytest.raises(Exception):
            circuit_from_qasm("OPENQASM 2.0; qreg q[1]; frobnicate q[0];")

    def test_unknown_register_raises(self):
        with pytest.raises(QasmError):
            circuit_from_qasm("OPENQASM 2.0; qreg q[1]; x r[0];")

    def test_out_of_range_index_raises(self):
        with pytest.raises(QasmError):
            circuit_from_qasm("OPENQASM 2.0; qreg q[1]; x q[3];")

    def test_malformed_parameter_raises(self):
        with pytest.raises(QasmError):
            circuit_from_qasm("OPENQASM 2.0; qreg q[1]; rz(import) q[0];")

    @pytest.mark.parametrize("expression", ["1/0", "(1", "pi.real", "1e400", "1e400-1e400"])
    def test_rejected_parameter_raises_again_on_the_second_call(self, expression):
        # Numeric parameter values are memoized; errors must never be.
        for _ in range(2):
            with pytest.raises(QasmError):
                circuit_from_qasm(f"OPENQASM 2.0; qreg q[1]; rz({expression}) q[0];")

    def test_repeated_numeric_parameters_are_memoized(self):
        # Two gate names, so the repeated text is evaluated twice (a
        # repeated statement reuses its gate and evaluates nothing).
        _memo_numeric_param.cache_clear()
        circuit = circuit_from_qasm(
            "OPENQASM 2.0; qreg q[1]; rz(3*pi/4) q[0]; p(3*pi/4) q[0]; rz(0.5) q[0];"
        )
        assert [instruction.operation.params[0] for instruction in circuit.data] == [
            pytest.approx(3 * math.pi / 4),
            pytest.approx(3 * math.pi / 4),
            0.5,
        ]
        info = _memo_numeric_param.cache_info()
        assert (info.hits, info.misses) == (1, 2)

    def test_long_parameter_texts_are_not_memoized(self):
        _memo_numeric_param.cache_clear()
        long_text = "0." + "1" * _MEMO_MAX_CHARS
        circuit = circuit_from_qasm(
            f"OPENQASM 2.0; qreg q[1]; rz({long_text}) q[0]; rz({long_text}) q[0];"
        )
        assert circuit.data[0].operation.params[0] == pytest.approx(0.1111111111111111)
        assert _memo_numeric_param.cache_info().currsize == 0

    def test_equal_gates_share_one_object_within_a_parse(self):
        text = decompose_to_cx_and_single_qubit(qft_static_benchmark(6)).to_qasm()
        operations = [
            instruction.operation
            for instruction in circuit_from_qasm(text)
            if instruction.is_gate
        ]
        distinct = []
        for operation in operations:
            if operation not in distinct:
                distinct.append(operation)
        assert (len(operations), len(distinct)) == (81, 12)
        assert len({id(operation) for operation in operations}) == 12
        # Each parse builds its own gates.
        again = circuit_from_qasm(text)
        assert all(
            first.operation is not second.operation
            for first, second in zip(circuit_from_qasm(text), again)
        )

    def test_symbolic_gates_are_not_shared(self):
        circuit = circuit_from_qasm(
            "OPENQASM 2.0; qreg q[1]; "
            "rz(2*theta) q[0]; rz(2*theta) q[0]; rz(pi) q[0]; rz(pi) q[0];"
        )
        first, second, third, fourth = (instruction.operation for instruction in circuit)
        assert first is not second and first == second
        assert third is fourth

    def test_symbolic_parameters_are_built_afresh(self):
        first, second = _eval_param("2*theta + pi"), _eval_param("2*theta + pi")
        assert first is not second
        assert str(first) == str(second)


class TestConditionedNonUnitaries:
    def test_conditioned_reset_import_keeps_condition(self):
        # Regression: the importer used to drop the ``if`` silently, turning a
        # conditional reset into an unconditional one.
        qasm = (
            'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
            "qreg q[1];\ncreg c[1];\n"
            "measure q[0] -> c[0];\n"
            "if (c == 1) reset q[0];\n"
        )
        circuit = circuit_from_qasm(qasm)
        reset = circuit.data[-1]
        assert reset.is_reset
        assert reset.condition is not None
        assert reset.condition.clbits == (0,)
        assert reset.condition.value == 1

    def test_conditioned_reset_round_trips(self):
        circuit = QuantumCircuit(1, 1)
        circuit.measure(0, 0)
        circuit.reset(0, condition=(0, 1))
        exported = circuit_to_qasm(circuit)
        assert "if (c == 1) reset q[0];" in exported
        assert circuit_from_qasm(exported).data == circuit.data

    def test_conditioned_measure_rejected(self):
        qasm = (
            'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
            "qreg q[1];\ncreg c[1];\n"
            "if (c == 1) measure q[0] -> c[0];\n"
        )
        with pytest.raises(QasmError, match="conditioned measurement"):
            circuit_from_qasm(qasm)


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_static_circuits(self, seed):
        circuit = random_static_circuit(3, 4, seed=seed, measure=True)
        restored = circuit_from_qasm(circuit_to_qasm(circuit))
        assert_same_functionality(circuit.remove_final_measurements(), restored.remove_final_measurements())

    def test_dynamic_iqpe_roundtrip(self):
        circuit = iterative_qpe(3)
        restored = circuit_from_qasm(circuit_to_qasm(circuit))
        assert restored.num_resets == circuit.num_resets
        assert restored.num_measurements == circuit.num_measurements
        assert restored.num_classically_controlled == circuit.num_classically_controlled

    def test_dynamic_bv_roundtrip_behaviour(self):
        from repro.core import extract_distribution

        circuit = bernstein_vazirani_dynamic("101")
        restored = circuit_from_qasm(circuit_to_qasm(circuit))
        original = extract_distribution(circuit).distribution
        recovered = extract_distribution(restored).distribution
        for key, value in original.items():
            assert recovered[key] == pytest.approx(value, abs=1e-9)

    def test_qft_dynamic_roundtrip_structure(self):
        circuit = qft_dynamic(3)
        restored = circuit_from_qasm(circuit_to_qasm(circuit))
        assert restored.count_ops() == circuit.count_ops()

    def test_qpe_static_roundtrip_unitary(self):
        circuit = qpe_static(3)
        restored = circuit_from_qasm(circuit_to_qasm(circuit))
        assert np.allclose(
            circuit_unitary(circuit.remove_final_measurements()),
            circuit_unitary(restored.remove_final_measurements()),
            atol=1e-9,
        )
