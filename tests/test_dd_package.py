"""Tests for the decision-diagram package (states, operators, arithmetic)."""

import math

import numpy as np
import pytest

from repro.dd.package import DDPackage
from repro.exceptions import DDError

H2 = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
P0 = np.array([[1, 0], [0, 0]], dtype=complex)


class TestStates:
    def test_zero_state(self):
        package = DDPackage(3)
        vector = package.vector_to_numpy(package.zero_state())
        expected = np.zeros(8)
        expected[0] = 1
        assert np.allclose(vector, expected)

    def test_basis_state_from_int(self):
        package = DDPackage(3)
        vector = package.vector_to_numpy(package.basis_state(5))
        assert vector[5] == pytest.approx(1.0)
        assert np.count_nonzero(vector) == 1

    def test_basis_state_from_bits(self):
        package = DDPackage(3)
        vector = package.vector_to_numpy(package.basis_state([1, 0, 1]))
        assert vector[0b101] == pytest.approx(1.0)

    def test_basis_state_out_of_range(self):
        package = DDPackage(2)
        with pytest.raises(DDError):
            package.basis_state(7)

    def test_vector_from_numpy_roundtrip(self):
        package = DDPackage(3)
        rng = np.random.default_rng(0)
        amplitudes = rng.normal(size=8) + 1j * rng.normal(size=8)
        amplitudes /= np.linalg.norm(amplitudes)
        edge = package.vector_from_numpy(amplitudes)
        assert np.allclose(package.vector_to_numpy(edge), amplitudes, atol=1e-12)

    def test_basis_state_node_count_is_linear(self):
        package = DDPackage(20)
        edge = package.basis_state(0)
        assert package.count_nodes(edge) == 20


class TestOperators:
    def test_identity(self):
        package = DDPackage(3)
        assert np.allclose(package.matrix_to_numpy(package.identity()), np.eye(8))

    def test_operator_chain_single(self):
        package = DDPackage(2)
        chain = package.operator_chain({0: X2})
        expected = np.kron(np.eye(2), X2)
        assert np.allclose(package.matrix_to_numpy(chain), expected)

    def test_operator_chain_multiple(self):
        package = DDPackage(3)
        chain = package.operator_chain({0: H2, 2: Z2})
        expected = np.kron(Z2, np.kron(np.eye(2), H2))
        assert np.allclose(package.matrix_to_numpy(chain), expected)

    def test_controlled_gate_positive_control(self):
        package = DDPackage(2)
        gate = package.controlled_gate(X2, target=1, controls={0: 1})
        from repro.circuit.gates import CXGate
        from repro.simulators.unitary import embed_gate_matrix

        expected = embed_gate_matrix(CXGate().matrix, [0, 1], 2)
        assert np.allclose(package.matrix_to_numpy(gate), expected)

    def test_controlled_gate_negative_control(self):
        package = DDPackage(2)
        gate = package.controlled_gate(X2, target=1, controls={0: 0})
        dense = package.matrix_to_numpy(gate)
        # X applied to qubit 1 when qubit 0 is |0>: |00> -> |10>.
        assert dense[0b10, 0b00] == pytest.approx(1.0)
        assert dense[0b01, 0b01] == pytest.approx(1.0)

    def test_multi_controlled_gate(self):
        package = DDPackage(3)
        gate = package.controlled_gate(X2, target=2, controls={0: 1, 1: 1})
        from repro.circuit.gates import CCXGate
        from repro.simulators.unitary import embed_gate_matrix

        expected = embed_gate_matrix(CCXGate().matrix, [0, 1, 2], 3)
        assert np.allclose(package.matrix_to_numpy(gate), expected)

    def test_identity_node_count_is_linear(self):
        package = DDPackage(30)
        assert package.count_nodes(package.identity()) == 30

    def test_controlled_gate_rejects_target_in_controls(self):
        package = DDPackage(2)
        with pytest.raises(DDError):
            package.controlled_gate(X2, target=0, controls={0: 1})

    def test_controlled_gate_rejects_bad_activation(self):
        package = DDPackage(2)
        with pytest.raises(DDError):
            package.controlled_gate(X2, target=0, controls={1: 2})

    def test_operator_chain_rejects_bad_shape(self):
        package = DDPackage(1)
        with pytest.raises(DDError):
            package.operator_chain({0: np.eye(4)})

    @pytest.mark.parametrize("qubit", [5, -1])
    def test_operator_chain_rejects_out_of_range_qubits(self, qubit):
        package = DDPackage(2)
        with pytest.raises(DDError, match="out of range"):
            package.operator_chain({qubit: X2})


class TestArithmetic:
    def test_matrix_vector_multiplication(self):
        package = DDPackage(2)
        rng = np.random.default_rng(1)
        amplitudes = rng.normal(size=4) + 1j * rng.normal(size=4)
        vector = package.vector_from_numpy(amplitudes)
        gate = package.controlled_gate(H2, target=0, controls={1: 1})
        product = package.multiply_matrix_vector(gate, vector)
        expected = package.matrix_to_numpy(gate) @ amplitudes
        assert np.allclose(package.vector_to_numpy(product), expected, atol=1e-10)

    def test_matrix_matrix_multiplication(self):
        package = DDPackage(2)
        a = package.operator_chain({0: H2, 1: X2})
        b = package.controlled_gate(Z2, target=1, controls={0: 1})
        product = package.multiply_matrices(a, b)
        expected = package.matrix_to_numpy(a) @ package.matrix_to_numpy(b)
        assert np.allclose(package.matrix_to_numpy(product), expected, atol=1e-10)

    def test_addition_of_vectors(self):
        package = DDPackage(2)
        rng = np.random.default_rng(2)
        first = rng.normal(size=4) + 1j * rng.normal(size=4)
        second = rng.normal(size=4) + 1j * rng.normal(size=4)
        total = package.add_vectors(
            package.vector_from_numpy(first), package.vector_from_numpy(second)
        )
        assert np.allclose(package.vector_to_numpy(total), first + second, atol=1e-10)

    def test_addition_of_matrices(self):
        package = DDPackage(2)
        a = package.operator_chain({0: X2})
        b = package.operator_chain({1: Z2})
        total = package.add_matrices(a, b)
        expected = package.matrix_to_numpy(a) + package.matrix_to_numpy(b)
        assert np.allclose(package.matrix_to_numpy(total), expected, atol=1e-10)

    def test_addition_with_zero_edge(self):
        package = DDPackage(1)
        state = package.basis_state(1)
        total = package.add_vectors(state, package.zero_vector_edge())
        assert np.allclose(package.vector_to_numpy(total), [0, 1])

    def test_scaling(self):
        package = DDPackage(1)
        scaled = package.scale_vector(package.basis_state(0), 0.5j)
        assert np.allclose(package.vector_to_numpy(scaled), [0.5j, 0])

    def test_multiplication_keeps_unitarity(self):
        package = DDPackage(3)
        gate_a = package.controlled_gate(H2, target=1, controls={0: 1})
        gate_b = package.controlled_gate(X2, target=2, controls={1: 1})
        product = package.multiply_matrices(gate_a, gate_b)
        dense = package.matrix_to_numpy(product)
        assert np.allclose(dense @ dense.conj().T, np.eye(8), atol=1e-10)


class TestQueries:
    def test_norm_and_inner_product(self):
        package = DDPackage(2)
        rng = np.random.default_rng(3)
        first = rng.normal(size=4) + 1j * rng.normal(size=4)
        second = rng.normal(size=4) + 1j * rng.normal(size=4)
        edge_first = package.vector_from_numpy(first)
        edge_second = package.vector_from_numpy(second)
        assert package.norm_squared(edge_first) == pytest.approx(np.linalg.norm(first) ** 2)
        assert package.inner_product(edge_first, edge_second) == pytest.approx(
            np.vdot(first, second)
        )

    def test_fidelity(self):
        package = DDPackage(1)
        plus = package.multiply_matrix_vector(
            package.operator_chain({0: H2}), package.zero_state()
        )
        assert package.fidelity(plus, package.zero_state()) == pytest.approx(0.5)

    def test_probability_of_one(self):
        package = DDPackage(2)
        state = package.multiply_matrix_vector(
            package.operator_chain({1: H2}), package.zero_state()
        )
        assert package.probability_of_one(state, 1) == pytest.approx(0.5)
        assert package.probability_of_one(state, 0) == pytest.approx(0.0)

    def test_collapse(self):
        package = DDPackage(2)
        bell = package.multiply_matrix_vector(
            package.controlled_gate(X2, target=1, controls={0: 1}),
            package.multiply_matrix_vector(package.operator_chain({0: H2}), package.zero_state()),
        )
        collapsed = package.collapse(bell, 0, 1)
        assert np.allclose(package.vector_to_numpy(collapsed), [0, 0, 0, 1], atol=1e-10)

    def test_collapse_zero_probability_raises(self):
        package = DDPackage(1)
        with pytest.raises(DDError):
            package.collapse(package.zero_state(), 0, 1)

    def test_apply_reset_branches(self):
        package = DDPackage(1)
        plus = package.multiply_matrix_vector(
            package.operator_chain({0: H2}), package.zero_state()
        )
        branches = package.apply_reset(plus, 0)
        assert len(branches) == 2
        for probability, edge in branches:
            assert probability == pytest.approx(0.5)
            assert np.allclose(package.vector_to_numpy(edge), [1, 0], atol=1e-10)

    def test_trace(self):
        package = DDPackage(2)
        assert package.trace(package.identity()) == pytest.approx(4.0)
        assert package.trace(package.operator_chain({0: Z2})) == pytest.approx(0.0)

    def test_max_entry_magnitude(self):
        package = DDPackage(2)
        chain = package.operator_chain({0: 2.0 * X2})
        assert package.max_entry_magnitude(chain) == pytest.approx(2.0)

    def test_identity_detection(self):
        package = DDPackage(3)
        assert package.is_identity(package.identity())
        assert package.is_identity(package.scale_matrix(package.identity(), np.exp(0.3j)))
        assert not package.is_identity(
            package.scale_matrix(package.identity(), np.exp(0.3j)), up_to_global_phase=False
        )
        assert not package.is_identity(package.operator_chain({1: X2}))
        assert not package.is_identity(package.scale_matrix(package.identity(), 2.0))

    def test_identity_scalar_of_projector_is_none(self):
        package = DDPackage(2)
        assert package.identity_scalar(package.operator_chain({0: P0})) is None

    def test_nodes_created_sums_both_unique_tables_and_never_decreases(self):
        package = DDPackage(3)
        assert package.nodes_created == 0
        readings = [package.nodes_created]

        def read():
            stats = package.statistics()
            assert package.nodes_created == stats["vector_nodes"] + stats["matrix_nodes"]
            readings.append(package.nodes_created)

        state = package.basis_state(5)
        read()
        gate = package.operator_chain({0: H2, 2: X2})
        read()
        package.multiply_matrix_vector(gate, state)
        read()
        package.multiply_matrices(gate, package.identity())
        read()
        package.clear_caches()
        read()
        package.multiply_matrices(gate, gate)
        read()
        assert readings == sorted(readings)
        assert readings[-1] > 0

    def test_statistics_and_cache_clear(self):
        package = DDPackage(2)
        package.multiply_matrices(package.identity(), package.operator_chain({0: H2}))
        stats = package.statistics()
        assert stats["matrix_nodes"] > 0
        package.clear_caches()
        assert len(package._mult_mm) == 0


class TestValidation:
    def test_zero_qubits_raises(self):
        with pytest.raises(DDError):
            DDPackage(0)

    def test_add_different_depths_raises(self):
        small = DDPackage(1)
        with pytest.raises(DDError):
            small.add_vectors(small.basis_state(0), small.zero_state().node.edges[0])

    def test_probability_out_of_range_raises(self):
        package = DDPackage(1)
        with pytest.raises(DDError):
            package.probability_of_one(package.zero_state(), 3)
