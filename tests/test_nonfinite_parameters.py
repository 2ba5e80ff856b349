"""Non-finite gate parameters are rejected where circuits enter the program.

A gate with a ``nan`` or infinite angle has no matrix; before it was
rejected, a circuit holding ``rz(nan)`` reached the DD kernels and was
reported not equivalent to itself.  These tests pin the rejection at each
entry point: circuit construction (which ``check_equivalence`` and the
manager consume), OpenQASM parsing and the verification service.
"""

import math

import pytest

from repro.circuit import QuantumCircuit
from repro.circuit.gates import CPhaseGate, RZGate, UGate, get_gate
from repro.circuit.parameter import Parameter
from repro.circuit.qasm import circuit_from_qasm
from repro.core import Configuration, EquivalenceCheckingManager, check_equivalence
from repro.exceptions import CircuitError, QasmError, ServiceError
from repro.service import VerificationClient, VerificationServer

NON_FINITE = [math.nan, math.inf, -math.inf]
NON_FINITE_IDS = ["nan", "inf", "-inf"]


def _self_pair(angle):
    """Two copies of ``h; rz(angle)`` — built inside the assertion."""
    circuits = []
    for _ in range(2):
        circuit = QuantumCircuit(1)
        circuit.h(0)
        circuit.rz(angle, 0)
        circuits.append(circuit)
    return circuits


@pytest.mark.parametrize("angle", NON_FINITE, ids=NON_FINITE_IDS)
class TestGateConstruction:
    def test_gates_reject_non_finite_parameters(self, angle):
        with pytest.raises(CircuitError, match="finite"):
            RZGate(angle)
        with pytest.raises(CircuitError, match="finite"):
            CPhaseGate(angle)
        with pytest.raises(CircuitError, match="finite"):
            UGate(0.5, angle, 0.25)
        with pytest.raises(CircuitError, match="finite"):
            get_gate("p", [angle])

    def test_binding_a_non_finite_value_is_rejected(self, angle):
        theta = Parameter("theta")
        template = QuantumCircuit(1)
        template.rz(theta, 0)
        with pytest.raises(CircuitError, match="finite"):
            template.bind_parameters({theta: angle})

    def test_check_equivalence_never_sees_the_circuit(self, angle):
        with pytest.raises(CircuitError, match="finite"):
            check_equivalence(*_self_pair(angle))

    def test_default_manager_never_sees_the_circuit(self, angle):
        with pytest.raises(CircuitError, match="finite"):
            EquivalenceCheckingManager(Configuration(seed=1)).run(*_self_pair(angle))


QASM_HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'


class TestQasmInput:
    @pytest.mark.parametrize("expression", ["1e400", "-1e400", "1e400-1e400", "2*1e308"])
    def test_non_finite_expressions_are_qasm_errors(self, expression):
        with pytest.raises(QasmError, match="not finite"):
            circuit_from_qasm(QASM_HEADER + f"rz({expression}) q[0];\n")

    def test_large_finite_angles_still_parse(self):
        circuit = circuit_from_qasm(QASM_HEADER + "rz(1e300) q[0];\ncp(pi/2) q[0],q[1];\n")
        assert circuit.data[0].operation.params == (1e300,)


class TestService:
    def test_non_finite_qasm_submission_is_400(self):
        server = VerificationServer(port=0, configuration=Configuration(seed=1, max_workers=1))
        server.start_background()
        try:
            client = VerificationClient(server.url, timeout=10.0)
            valid = QASM_HEADER + "h q[0];\n"
            with pytest.raises(ServiceError) as excinfo:
                client.verify(QASM_HEADER + "rz(1e400) q[0];\n", valid)
            assert excinfo.value.status == 400
            assert "not finite" in str(excinfo.value)
        finally:
            server.close()
