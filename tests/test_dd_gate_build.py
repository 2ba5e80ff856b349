"""Tests of the one-pass controlled-gate builder and the identity short-cut
of the DD multiplication kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.random_circuits import random_static_circuit
from repro.dd.circuits import circuit_to_unitary_dd
from repro.dd.nodes import M_ONE, M_ZERO, MEdge
from repro.dd.package import DDPackage
from repro.exceptions import DDError

MAX_EXAMPLES = 40

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1, -1]).astype(complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
T = np.diag([1, np.exp(1j * np.pi / 4)])
P0 = np.diag([1, 0]).astype(complex)
P1 = np.diag([0, 1]).astype(complex)


def _random_unitary(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _dense_controlled(num_qubits, matrix, target, controls) -> np.ndarray:
    """Dense little-endian embedding of a (multi-)controlled 2x2 gate."""
    size = 1 << num_qubits
    unitary = np.zeros((size, size), dtype=complex)
    for column in range(size):
        if all((column >> qubit) & 1 == value for qubit, value in controls.items()):
            bit = (column >> target) & 1
            for row_bit in (0, 1):
                row = (column & ~(1 << target)) | (row_bit << target)
                unitary[row, column] += matrix[row_bit, bit]
        else:
            unitary[column, column] = 1.0
    return unitary


def _legacy_controlled(package, matrix, target, controls):
    """The former ``I - blocked + active`` construction, from the same package."""
    projectors = {qubit: (P1 if value else P0) for qubit, value in controls.items()}
    active = package.operator_chain({**projectors, target: matrix})
    blocked = package.operator_chain({**projectors, target: np.eye(2, dtype=complex)})
    inactive = package.add_matrices(package.identity(), package.scale_matrix(blocked, -1.0))
    return package.add_matrices(active, inactive)


def _make_based_controlled(package, matrix, target, controls):
    """The one-pass builder with every level normalized through the package."""
    if not controls:
        return package.operator_chain({target: matrix})
    make = package.make_matrix_node
    identities = [M_ONE]
    for qubit in range(package.num_qubits - 1):
        identities.append(make(qubit, (identities[-1], M_ZERO, M_ZERO, identities[-1])))
    blocks = [
        MEdge(None, value) if value != 0 else M_ZERO
        for value in map(complex, matrix.reshape(-1))
    ]
    for qubit in range(target):
        value = controls.get(qubit)
        if value is None:
            blocks = [
                block if block is M_ZERO else make(qubit, (block, M_ZERO, M_ZERO, block))
                for block in blocks
            ]
            continue
        idle = (identities[qubit], M_ZERO, M_ZERO, identities[qubit])
        if value:
            quads = [(idle[slot], M_ZERO, M_ZERO, block) for slot, block in enumerate(blocks)]
        else:
            quads = [(block, M_ZERO, M_ZERO, idle[slot]) for slot, block in enumerate(blocks)]
        blocks = [make(qubit, quad) for quad in quads]
    edge = make(target, blocks)
    for qubit in range(target + 1, package.num_qubits):
        value = controls.get(qubit)
        if value is None:
            edge = make(qubit, (edge, M_ZERO, M_ZERO, edge))
        elif value:
            edge = make(qubit, (identities[qubit], M_ZERO, M_ZERO, edge))
        else:
            edge = make(qubit, (edge, M_ZERO, M_ZERO, identities[qubit]))
    return edge


def _node_dense(node) -> np.ndarray:
    """Dense matrix of a node's sub-diagram with root weight 1."""
    size = 1 << node.index
    blocks = []
    for edge in node.edges:
        if edge.node is None:
            block = np.full((size, size), edge.weight, dtype=complex)
        else:
            block = edge.weight * _node_dense(edge.node)
        blocks.append(block)
    return np.block([[blocks[0], blocks[1]], [blocks[2], blocks[3]]])


@st.composite
def controlled_gates(draw):
    num_qubits = draw(st.integers(min_value=1, max_value=6))
    qubits = draw(st.permutations(range(num_qubits)))
    target = qubits[0]
    count = draw(st.integers(min_value=0, max_value=num_qubits - 1))
    controls = {
        qubit: draw(st.sampled_from((0, 1))) for qubit in qubits[1 : 1 + count]
    }
    kind = draw(st.sampled_from(("x", "z", "phase", "random")))
    if kind == "x":
        matrix = X
    elif kind == "z":
        matrix = Z
    elif kind == "phase":
        angle = draw(st.floats(min_value=-np.pi, max_value=np.pi))
        matrix = np.diag([1, np.exp(1j * angle)])
    else:
        matrix = _random_unitary(draw(st.integers(min_value=0, max_value=10_000)))
    return num_qubits, matrix, target, controls


class TestControlledGateBuilder:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(gate=controlled_gates())
    def test_matches_dense_embedding(self, gate):
        num_qubits, matrix, target, controls = gate
        package = DDPackage(num_qubits)
        built = package.controlled_gate(matrix, target, controls)
        assert np.allclose(
            package.matrix_to_numpy(built),
            _dense_controlled(num_qubits, matrix, target, controls),
            atol=1e-10,
        )

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(gate=controlled_gates())
    def test_matches_legacy_construction(self, gate):
        num_qubits, matrix, target, controls = gate
        package = DDPackage(num_qubits)
        built = package.controlled_gate(matrix, target, controls)
        legacy = _legacy_controlled(package, matrix, target, controls)
        assert np.allclose(
            package.matrix_to_numpy(built), package.matrix_to_numpy(legacy), atol=1e-10
        )

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(gate=controlled_gates())
    def test_identity_blocks_intern_the_make_based_node(self, gate):
        # Below the first control the builder re-weights the interned
        # identity instead of normalizing; the result must be the very node
        # and weight that normalizing every level produces.
        num_qubits, matrix, target, controls = gate
        package = DDPackage(num_qubits)
        built = package.controlled_gate(matrix, target, controls)
        reference = _make_based_controlled(package, matrix, target, controls)
        assert built.node is reference.node
        assert built.weight == reference.weight

    def test_negligible_identity_blocks_become_the_zero_edge(self):
        package = DDPackage(3)
        tiny = np.array([[1, 1e-14], [0, 1]], dtype=complex)
        built = package.controlled_gate(tiny, 1, {2: 1})
        reference = _make_based_controlled(package, tiny, 1, {2: 1})
        assert built.node is reference.node and built.weight == reference.weight
        assert built.node.edges[3].node.edges[1] is M_ZERO

    @pytest.mark.parametrize("matrix", [X, Z], ids=["cx", "cz"])
    @pytest.mark.parametrize(
        "target, controls",
        [
            (0, {1: 1}),
            (1, {0: 1}),
            (0, {3: 0}),
            (3, {0: 0}),
            (1, {0: 1, 3: 0}),
            (2, {0: 0, 1: 1, 3: 1}),
        ],
    )
    def test_cx_and_cz_intern_the_legacy_node(self, matrix, target, controls):
        package = DDPackage(4)
        built = package.controlled_gate(matrix, target, controls)
        legacy = _legacy_controlled(package, matrix, target, controls)
        assert built.node is legacy.node
        assert built.weight == legacy.weight

    def test_rejects_bad_shape_and_out_of_range_qubits(self):
        package = DDPackage(3)
        with pytest.raises(DDError, match="2x2"):
            package.controlled_gate(np.eye(4), 0, {1: 1})
        with pytest.raises(DDError, match="target"):
            package.controlled_gate(X, 3, {1: 1})
        with pytest.raises(DDError, match="control qubit"):
            package.controlled_gate(X, 0, {5: 1})


class TestIdentityFlag:
    def test_identity_nodes_are_flagged_on_every_level(self):
        package = DDPackage(5)
        edge = package.identity()
        while edge.node is not None:
            assert edge.node.identity
            edge = edge.node.edges[0]

    @pytest.mark.parametrize(
        "factor",
        [X, Z, H, T, P0, P1, _random_unitary(3)],
        ids=["x", "z", "h", "t", "p0", "p1", "u"],
    )
    @pytest.mark.parametrize("qubit", range(4))
    def test_chains_with_a_non_identity_factor_are_not_flagged(self, factor, qubit):
        package = DDPackage(4)
        assert not package.operator_chain({qubit: factor}).node.identity
        other = (qubit + 2) % 4
        assert not package.operator_chain({qubit: factor, other: H}).node.identity

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(gate=controlled_gates())
    def test_flagged_nodes_are_exactly_the_identity(self, gate):
        num_qubits, matrix, target, controls = gate
        package = DDPackage(num_qubits)
        built = package.controlled_gate(matrix, target, controls)
        package.multiply_matrices(built, built)
        for node in package._matrix_table._table.values():
            if node.identity:
                assert np.array_equal(_node_dense(node), np.eye(2 << node.index))


class TestIdentityShortCut:
    def test_identity_times_gate_returns_the_gate_node_without_a_table_entry(self):
        package = DDPackage(3)
        identity = package.identity()
        gate = package.operator_chain({1: X})
        entries = len(package._mult_mm)
        left = package.multiply_matrices(identity, gate)
        right = package.multiply_matrices(gate, identity)
        assert left.node is gate.node and left.weight == gate.weight
        assert right.node is gate.node and right.weight == gate.weight
        assert len(package._mult_mm) == entries

    def test_identity_times_vector_returns_the_vector_node(self):
        package = DDPackage(3)
        state = package.multiply_matrix_vector(
            package.operator_chain({0: H}), package.zero_state()
        )
        entries = len(package._mult_mv)
        scaled = package.scale_matrix(package.identity(), 0.5j)
        result = package.multiply_matrix_vector(scaled, state)
        assert result.node is state.node
        assert result.weight == pytest.approx(0.5j * state.weight)
        assert len(package._mult_mv) == entries

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_qubits=st.integers(min_value=1, max_value=4),
        depth=st.integers(min_value=0, max_value=6),
        cutoff=st.integers(min_value=1, max_value=5),
    )
    def test_results_unchanged_with_dense_cutoff(self, seed, num_qubits, depth, cutoff):
        circuit = random_static_circuit(num_qubits, depth, seed=seed)
        plain = DDPackage(num_qubits)
        hybrid = DDPackage(num_qubits, dense_cutoff=cutoff)
        reference = plain.matrix_to_numpy(circuit_to_unitary_dd(plain, circuit))
        unitary = circuit_to_unitary_dd(hybrid, circuit)
        assert np.allclose(hybrid.matrix_to_numpy(unitary), reference, atol=1e-10)
        product = hybrid.multiply_matrices(hybrid.identity(), unitary)
        assert product.node is unitary.node
