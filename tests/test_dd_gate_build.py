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
    )
    def test_identity_times_unitary_returns_the_unitary_node(self, seed, num_qubits, depth):
        circuit = random_static_circuit(num_qubits, depth, seed=seed)
        package = DDPackage(num_qubits)
        unitary = circuit_to_unitary_dd(package, circuit)
        product = package.multiply_matrices(package.identity(), unitary)
        assert product.node is unitary.node
        assert product.weight == unitary.weight


def _phase(angle: float) -> np.ndarray:
    return np.diag([1, np.exp(1j * angle)])


def _random_chain(package, levels, weights):
    """A matrix DD over levels ``0 .. levels-1`` built from drawn weights."""
    edge = M_ONE
    for level in range(levels):
        quad = weights[4 * level : 4 * level + 4]
        edge = package.make_matrix_node(
            level, [MEdge(edge.node, edge.weight * w) for w in quad]
        )
    return edge


tiny = st.floats(min_value=-2e-10, max_value=2e-10)
wrap_weights = st.one_of(
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    st.builds(complex, tiny, tiny),
    st.sampled_from([0j, 1 + 0j, -1 + 0j, 1j, 1e-10 + 1e-10j, 1.5e-10 + 0j]),
)


class TestWrapPath:
    @settings(max_examples=MAX_EXAMPLES * 2, deadline=None)
    @given(
        index=st.integers(min_value=0, max_value=3),
        weight=wrap_weights,
        chain=st.lists(
            st.complex_numbers(min_magnitude=0.1, max_magnitude=2, allow_nan=False),
            min_size=12,
            max_size=12,
        ),
        wrap_first=st.booleans(),
    )
    def test_matches_the_generic_normalizer(self, index, weight, chain, wrap_first):
        package = DDPackage(index + 1)
        below = _random_chain(package, index, chain)
        edge = MEdge(below.node, weight)
        if wrap_first:
            wrapped = package._wrap_matrix_node(index, edge)
            reference = package._make_matrix_node(index, edge, M_ZERO, M_ZERO, edge)
        else:
            reference = package._make_matrix_node(index, edge, M_ZERO, M_ZERO, edge)
            wrapped = package._wrap_matrix_node(index, edge)
        assert wrapped.node is reference.node
        assert abs(wrapped.weight - reference.weight) <= 1e-12

    @pytest.mark.parametrize("weight", [1.0, -1.0, 1j, np.exp(0.3j), 1e-3])
    def test_wrapped_identity_levels_stay_flagged(self, weight):
        package = DDPackage(4)
        levels = []
        edge = package.identity()
        while edge.node is not None:
            levels.append(edge.node)
            edge = edge.node.edges[0]
        levels.reverse()
        for index in range(1, 4):
            wrapped = package._wrap_matrix_node(index, MEdge(levels[index - 1], weight))
            assert wrapped.node is levels[index]
            assert wrapped.node.identity
            assert wrapped.weight == weight
        fresh = DDPackage(2)
        wrapped = fresh._wrap_matrix_node(0, MEdge(None, weight))
        assert wrapped.node.identity
        assert [e.weight for e in wrapped.node.edges] == [1.0, 0.0, 0.0, 1.0]


class TestPhaseOrientation:
    @pytest.mark.parametrize(
        "matrix", [Z, _phase(0.7), _phase(-2.5), T], ids=["cz", "cp", "cp-neg", "ct"]
    )
    @pytest.mark.parametrize("qubits", [(0, 1), (0, 3), (1, 2), (0, 2, 3), (0, 1, 2, 3)])
    def test_every_placement_gives_the_same_node(self, matrix, qubits):
        package = DDPackage(4)
        edges = []
        for target in qubits:
            controls = {qubit: 1 for qubit in qubits if qubit != target}
            edge = package.controlled_gate(matrix, target, controls)
            assert np.allclose(
                package.matrix_to_numpy(edge),
                _dense_controlled(4, matrix, target, controls),
                atol=1e-12,
            )
            edges.append(edge)
        assert all(edge.node is edges[0].node for edge in edges)
        assert all(edge.weight == edges[0].weight for edge in edges)

    def test_gate_classes_are_placement_independent(self):
        from itertools import permutations

        from repro.circuit.gates import CCZGate, CPhaseGate, CZGate, MCPhaseGate
        from repro.dd.circuits import gate_to_dd

        for gate in (CZGate(), CPhaseGate(0.4), CCZGate(), MCPhaseGate(1.1, 2)):
            package = DDPackage(4)
            nodes = {
                id(gate_to_dd(package, gate, order).node)
                for order in permutations((0, 2, 3)[: gate.num_qubits])
            }
            assert len(nodes) == 1
            edge = gate_to_dd(package, gate, (3, 0, 2)[: gate.num_qubits])
            dense = np.eye(16, dtype=complex)
            base = np.diag(gate.matrix)
            for column in range(16):
                local = sum(
                    ((column >> qubit) & 1) << k
                    for k, qubit in enumerate((3, 0, 2)[: gate.num_qubits])
                )
                dense[column, column] = base[local]
            assert np.allclose(package.matrix_to_numpy(edge), dense, atol=1e-12)

    def test_built_with_the_lowest_qubit_as_target(self):
        # Reoriented, a phase gate targeting qubit 3 makes exactly the
        # unique-table lookups of the same gate targeting qubit 0, none for
        # the blocks a target above the controls would grow below it.
        high = DDPackage(4)
        low = DDPackage(4)
        high.controlled_gate(_phase(0.9), 3, {0: 1, 2: 1})
        low.controlled_gate(_phase(0.9), 0, {2: 1, 3: 1})
        assert high._matrix_table.lookups == low._matrix_table.lookups

    @pytest.mark.parametrize(
        "matrix, controls",
        [
            (_phase(0.7), {0: 0}),
            (Z, {0: 1, 1: 0}),
            (np.diag([np.exp(-0.35j), np.exp(0.35j)]), {0: 1}),
            (np.diag([-1, 1]).astype(complex), {0: 1}),
            (np.diag([1j, 1]), {0: 1, 1: 1}),
        ],
        ids=["negative-cp", "mixed-cz", "crz", "u00-minus-one", "u00-i"],
    )
    @pytest.mark.parametrize("target", [2, 3])
    def test_asymmetric_gates_are_not_reoriented(self, matrix, controls, target):
        package = DDPackage(4)
        built = package.controlled_gate(matrix, target, controls)
        assert np.allclose(
            package.matrix_to_numpy(built),
            _dense_controlled(4, matrix, target, controls),
            atol=1e-12,
        )
        reference = _make_based_controlled(package, matrix, target, controls)
        assert built.node is reference.node and built.weight == reference.weight
