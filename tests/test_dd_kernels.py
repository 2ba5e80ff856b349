"""Tests of the DD kernel overhaul: flyweight edges, memoized
trace/probability queries, statistics stability, and the zero-block
multiplication short-cuts and iterative node count checked against numpy
and reference implementations."""

import dataclasses
import inspect
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.random_circuits import random_static_circuit
from repro.core import Configuration, check_equivalence
from repro.dd.circuits import circuit_to_unitary_dd
from repro.dd.nodes import M_ONE, M_ZERO, V_ONE, V_ZERO, MEdge, VEdge
from repro.dd.package import DDPackage
from repro.exceptions import DDError
from repro.simulators.dd_simulator import DDSimulator

H2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

MAX_EXAMPLES = 10


def _u3(theta: float, phi: float, lam: float) -> np.ndarray:
    return np.array(
        [
            [np.cos(theta / 2), -np.exp(1j * lam) * np.sin(theta / 2)],
            [np.exp(1j * phi) * np.sin(theta / 2), np.exp(1j * (phi + lam)) * np.cos(theta / 2)],
        ],
        dtype=complex,
    )


class TestFlyweightEdges:
    def test_zero_edges_are_singletons(self):
        package = DDPackage(2)
        assert package.zero_vector_edge() is V_ZERO
        assert package.zero_matrix_edge() is M_ZERO
        assert V_ZERO.is_zero and M_ZERO.is_zero
        assert V_ONE.is_terminal and M_ONE.is_terminal and not V_ONE.is_zero

    def test_normalizing_away_returns_the_zero_singleton(self):
        package = DDPackage(1)
        edge = package.make_vector_node(0, (VEdge(None, 1e-14), VEdge(None, -1e-13)))
        assert edge is V_ZERO

    def test_inline_keys_match_the_ckey_signature(self):
        # The kernels build signature keys inline; deriving the same
        # signature from the node's successors with ckey must find the SAME
        # node, including weights that need rounding and -0.0 collapsing —
        # this is the invariant that lets node identity stand in for
        # structural equality.
        from repro.dd.complexvalue import ckey

        package = DDPackage(1)
        for weights in [(0.6, 0.8), (1.0, 1.0 / 3.0), (1.0, -1e-14 + 1.0j)]:
            fast = package.make_vector_node(
                0, (VEdge(None, weights[0]), VEdge(None, weights[1]))
            )
            signature = [0]
            for edge in fast.node.edges:
                signature.append(id(edge.node) if edge.node is not None else 0)
                signature.extend(ckey(edge.weight))
            assert package._vector_table._table[tuple(signature)] is fast.node

    def test_ckey_returns_integer_grid_points(self):
        from repro.dd.complexvalue import HASH_DECIMALS, HASH_SCALE, ckey

        assert HASH_SCALE == 10**HASH_DECIMALS
        key = ckey(0.6 - 0.8j)
        assert key == (6_000_000_000, -8_000_000_000)
        assert all(type(component) is int for component in key)
        # One grid step is 10**-HASH_DECIMALS; rounding stays within it.
        assert ckey(0.25 + 0.4e-10j) == (2_500_000_000, 0)
        assert ckey(0.25 + 0.6e-10j) == (2_500_000_000, 1)
        assert ckey(complex(-0.0, -1e-12)) == (0, 0)
        assert ckey(1.0) == (10**HASH_DECIMALS, 0)

    def test_nodes_carry_their_signature_hash(self):
        package = DDPackage(1)
        first = package.make_vector_node(0, (VEdge(None, 1.0), VEdge(None, 0.5)))
        second = package.make_vector_node(0, (VEdge(None, 2.0), VEdge(None, 1.0)))
        # Same structure after normalization -> hash-consed to the same node,
        # whose ``hash`` slot was filled in at creation.
        assert first.node is second.node
        assert isinstance(first.node.hash, int)

    def test_gate_cache_statistics_unchanged_by_refactor(self):
        # 24 gate applications, 3 distinct (gate, qubits) keys.
        from repro.circuit import QuantumCircuit

        circuit = QuantumCircuit(3, name="repeated")
        for _ in range(8):
            circuit.h(0)
            circuit.cx(0, 1)
            circuit.t(2)
        package = DDPackage(3)
        circuit_to_unitary_dd(package, circuit)
        statistics = package.statistics()
        assert statistics["gate_cache_misses"] == 3
        assert statistics["gate_cache_hits"] == 21
        assert statistics["gate_cache_size"] == 3

    def test_lru_eviction_counters_unchanged_by_refactor(self):
        from repro.circuit import QuantumCircuit

        circuit = QuantumCircuit(3)
        for _ in range(4):
            circuit.h(0)
            circuit.cx(0, 1)
            circuit.t(2)
        package = DDPackage(3, gate_cache_size=2)
        circuit_to_unitary_dd(package, circuit)
        statistics = package.statistics()
        assert statistics["gate_cache_size"] <= 2
        assert statistics["gate_cache_evictions"] >= 1


class TestBasisStateValidation:
    def test_rejects_non_binary_bits(self):
        package = DDPackage(3)
        with pytest.raises(DDError, match="must be 0 or 1"):
            package.basis_state([0, 1, 2])

    def test_rejects_wrong_length(self):
        package = DDPackage(3)
        with pytest.raises(DDError, match="expected 3 bits"):
            package.basis_state([0, 1])

    def test_accepts_valid_bits(self):
        package = DDPackage(3)
        vector = package.vector_to_numpy(package.basis_state([1, 1, 0]))
        assert vector[0b011] == pytest.approx(1.0)


class TestMemoizedQueries:
    def test_trace_of_identity_is_linear_not_exponential(self):
        # Without the per-node memo this recursion is 2**64 calls.
        package = DDPackage(64)
        assert package.trace(package.identity()) == pytest.approx(2.0**64)

    def test_trace_matches_numpy(self):
        circuit = random_static_circuit(3, 5, seed=11)
        package = DDPackage(3)
        unitary = circuit_to_unitary_dd(package, circuit)
        assert package.trace(unitary) == pytest.approx(
            np.trace(package.matrix_to_numpy(unitary)), abs=1e-8
        )

    def test_probability_of_one_is_linear_on_shared_diagrams(self):
        # A uniform superposition over 48 qubits shares one node per level;
        # without the memo the recursion visits 2**47 paths.
        num_qubits = 48
        package = DDPackage(num_qubits)
        chain = package.operator_chain({qubit: H2 for qubit in range(num_qubits)})
        state = package.multiply_matrix_vector(chain, package.zero_state())
        assert package.probability_of_one(state, 0) == pytest.approx(0.5)
        assert package.probability_of_one(state, num_qubits - 1) == pytest.approx(0.5)


class TestOneKernelPath:
    """The package has one recursive kernel path and one (LRU) gate cache."""

    def test_package_constructor_parameters(self):
        parameters = list(inspect.signature(DDPackage.__init__).parameters)
        assert parameters == ["self", "num_qubits", "tolerance", "gate_cache_size"]

    def test_configuration_field_count(self):
        assert len(dataclasses.fields(Configuration)) == 24

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_qubits=st.integers(min_value=1, max_value=4),
        depth=st.integers(min_value=0, max_value=6),
    )
    def test_simulated_state_is_the_first_unitary_column(self, seed, num_qubits, depth):
        circuit = random_static_circuit(num_qubits, depth, seed=seed)
        package = DDPackage(num_qubits)
        unitary = package.matrix_to_numpy(circuit_to_unitary_dd(package, circuit))
        state = DDSimulator().run(circuit, package=DDPackage(num_qubits))
        assert np.allclose(state.to_statevector(), unitary[:, 0], atol=1e-10)

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_qubits=st.integers(min_value=1, max_value=4),
        bound=st.integers(min_value=1, max_value=3),
        equivalent=st.booleans(),
    )
    def test_verdicts_identical_under_a_tight_gate_cache(
        self, seed, num_qubits, bound, equivalent
    ):
        first = random_static_circuit(num_qubits, 4, seed=seed)
        if equivalent:
            second = random_static_circuit(num_qubits, 4, seed=seed)
        else:
            second = random_static_circuit(num_qubits, 5, seed=seed + 1)
        unbounded = check_equivalence(first, second)
        bounded = check_equivalence(first, second, gate_cache_size=bound)
        assert bounded.criterion is unbounded.criterion

    def test_statistics_cover_the_published_counters_only(self):
        from repro.obs.metrics import _DD_COUNTER_KEYS

        statistics = DDPackage(2).statistics()
        assert set(_DD_COUNTER_KEYS) <= set(statistics)
        assert not [key for key in statistics if "chain" in key or "dense" in key]
        assert not [key for key in statistics if "expiration" in key]

    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
    def test_identity_is_the_interned_top_level(self, num_qubits):
        package = DDPackage(num_qubits)
        identity = package.identity()
        assert np.allclose(package.matrix_to_numpy(identity), np.eye(1 << num_qubits))
        assert package.count_nodes(identity) == num_qubits
        assert package.operator_chain({}).node is identity.node

    def test_identity_survives_clear_caches(self):
        package = DDPackage(3)
        identity = package.identity()
        unitary = circuit_to_unitary_dd(package, random_static_circuit(3, 4, seed=5))
        package.clear_caches()
        assert package.identity() is identity
        assert package.multiply_matrices(identity, unitary).node is unitary.node

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(
        num_qubits=st.integers(min_value=1, max_value=4),
        data=st.data(),
    )
    def test_operator_chain_matches_kronecker_product(self, num_qubits, data):
        qubits = data.draw(st.sets(st.integers(min_value=0, max_value=num_qubits - 1)))
        angle = st.floats(min_value=-np.pi, max_value=np.pi)
        operators = {
            qubit: _u3(data.draw(angle), data.draw(angle), data.draw(angle)) for qubit in qubits
        }
        package = DDPackage(num_qubits)
        chain = package.operator_chain(operators)
        factors = [operators.get(q, np.eye(2)) for q in reversed(range(num_qubits))]
        assert np.allclose(package.matrix_to_numpy(chain), reduce(np.kron, factors), atol=1e-10)


# Entries of the random 2x2 operators: structural zeros and exact units
# next to generic values, so the operands have zero blocks, wrap levels and
# identity levels as well as dense ones.
_ENTRY = st.one_of(
    st.sampled_from([0j, 0j, 1 + 0j, -1 + 0j, 1j, 0.6 + 0.8j]),
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def _gate_dd(draw, package: DDPackage) -> MEdge:
    """An ``operator_chain`` or (negatively) ``controlled_gate`` DD."""
    num_qubits = package.num_qubits
    matrix = np.array([[draw(_ENTRY), draw(_ENTRY)], [draw(_ENTRY), draw(_ENTRY)]])
    qubits = list(range(num_qubits))
    target = draw(st.sampled_from(qubits))
    others = [qubit for qubit in qubits if qubit != target]
    if others and draw(st.booleans()):
        chosen = draw(st.lists(st.sampled_from(others), min_size=1, unique=True))
        controls = {qubit: draw(st.sampled_from([0, 1])) for qubit in chosen}
        return package.controlled_gate(matrix, target, controls)
    chain = {target: matrix}
    for qubit in draw(st.lists(st.sampled_from(qubits), unique=True)):
        chain.setdefault(qubit, np.array([[draw(_ENTRY), draw(_ENTRY)], [draw(_ENTRY), draw(_ENTRY)]]))
    return package.operator_chain(chain)


@st.composite
def _matrix_operand(draw, package: DDPackage) -> MEdge:
    """A product of gate DDs, the identity or zero, optionally scaled."""
    kind = draw(st.sampled_from(["product", "product", "product", "identity", "zero"]))
    if kind == "zero":
        return M_ZERO
    edge = package.identity()
    if kind == "product":
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            edge = package.multiply_matrices(draw(_gate_dd(package)), edge)
    if draw(st.booleans()):
        edge = package.scale_matrix(edge, draw(_ENTRY))
    return edge


@st.composite
def _vector_operand(draw, package: DDPackage) -> VEdge:
    """A basis state, a dense random vector with structural zeros, or zero."""
    kind = draw(st.sampled_from(["basis", "dense", "dense", "zero"]))
    if kind == "zero":
        return V_ZERO
    size = 1 << package.num_qubits
    if kind == "basis":
        return package.basis_state(draw(st.integers(min_value=0, max_value=size - 1)))
    amplitudes = [draw(_ENTRY) for _ in range(size)]
    return package.vector_from_numpy(np.array(amplitudes, dtype=complex))


def _reference_multiply_matrices(package: DDPackage, left: MEdge, right: MEdge, memo: dict) -> MEdge:
    """The full 8-product / 4-add expansion with only the identity short-cut."""
    lnode, rnode = left.node, right.node
    if (lnode is None and left.weight == 0) or (rnode is None and right.weight == 0):
        return M_ZERO
    if lnode is None:
        return MEdge(None, left.weight * right.weight)
    if lnode.identity:
        return MEdge(rnode, left.weight * right.weight)
    if rnode.identity:
        return MEdge(lnode, left.weight * right.weight)
    key = (id(lnode), id(rnode))
    cached = memo.get(key)
    if cached is None:
        l0, l1, l2, l3 = lnode.edges
        r0, r1, r2, r3 = rnode.edges

        def product(a, b):
            return _reference_multiply_matrices(package, a, b, memo)

        add = package.add_matrices
        cached = package.make_matrix_node(
            lnode.index,
            [
                add(product(l0, r0), product(l1, r2)),
                add(product(l0, r1), product(l1, r3)),
                add(product(l2, r0), product(l3, r2)),
                add(product(l2, r1), product(l3, r3)),
            ],
        )
        memo[key] = cached
    return MEdge(cached.node, cached.weight * (left.weight * right.weight))


def _reference_multiply_matrix_vector(
    package: DDPackage, matrix: MEdge, vector: VEdge, memo: dict
) -> VEdge:
    """The full 4-product / 2-add expansion with only the identity short-cut."""
    mnode, vnode = matrix.node, vector.node
    if (mnode is None and matrix.weight == 0) or (vnode is None and vector.weight == 0):
        return V_ZERO
    if mnode is None:
        return VEdge(None, matrix.weight * vector.weight)
    if mnode.identity:
        return VEdge(vnode, matrix.weight * vector.weight)
    key = (id(mnode), id(vnode))
    cached = memo.get(key)
    if cached is None:
        m0, m1, m2, m3 = mnode.edges
        v0, v1 = vnode.edges

        def product(a, b):
            return _reference_multiply_matrix_vector(package, a, b, memo)

        add = package.add_vectors
        cached = package.make_vector_node(
            mnode.index,
            [add(product(m0, v0), product(m1, v1)), add(product(m2, v0), product(m3, v1))],
        )
        memo[key] = cached
    return VEdge(cached.node, cached.weight * (matrix.weight * vector.weight))


def _reference_count_nodes(edge) -> int:
    seen: set[int] = set()

    def walk(current) -> None:
        node = current.node
        if node is None or id(node) in seen:
            return
        seen.add(id(node))
        for child in node.edges:
            walk(child)

    walk(edge)
    return len(seen)


def _assert_same_edge(fast, reference) -> None:
    assert fast.node is reference.node
    assert abs(fast.weight - reference.weight) <= 1e-12 * max(1.0, abs(reference.weight))


class TestZeroBlockKernels:
    """The zero-block short-cuts give the full expansion's nodes and weights."""

    @settings(max_examples=60, deadline=None)
    @given(num_qubits=st.integers(min_value=1, max_value=4), data=st.data())
    def test_multiply_matrices_matches_numpy_and_the_full_expansion(self, num_qubits, data):
        package = DDPackage(num_qubits)
        left = data.draw(_matrix_operand(package))
        right = data.draw(_matrix_operand(package))
        product = package.multiply_matrices(left, right)
        expected = package.matrix_to_numpy(left) @ package.matrix_to_numpy(right)
        assert np.allclose(package.matrix_to_numpy(product), expected, atol=1e-9)
        _assert_same_edge(product, _reference_multiply_matrices(package, left, right, {}))

    @settings(max_examples=60, deadline=None)
    @given(num_qubits=st.integers(min_value=1, max_value=4), data=st.data())
    def test_multiply_matrix_vector_matches_numpy_and_the_full_expansion(self, num_qubits, data):
        package = DDPackage(num_qubits)
        matrix = data.draw(_matrix_operand(package))
        vector = data.draw(_vector_operand(package))
        product = package.multiply_matrix_vector(matrix, vector)
        expected = package.matrix_to_numpy(matrix) @ package.vector_to_numpy(vector)
        assert np.allclose(package.vector_to_numpy(product), expected, atol=1e-9)
        _assert_same_edge(product, _reference_multiply_matrix_vector(package, matrix, vector, {}))

    def test_wrap_levels_multiply_into_a_wrap_level(self):
        package = DDPackage(3)
        left = package.operator_chain({0: _u3(0.3, 0.2, 0.1)})
        right = package.operator_chain({0: _u3(1.1, -0.4, 0.7)})
        product = package.multiply_matrices(left, right)
        e0, e1, e2, e3 = product.node.edges
        assert e1 is M_ZERO and e2 is M_ZERO
        assert e0.node is e3.node and e0.weight == e3.weight == 1
        # One product per level: each wrap level recurses once.
        assert package.statistics()["multiply_mm_cache"] == 3

    @pytest.mark.parametrize("swap", [False, True])
    def test_a_diagonal_level_is_not_a_wrap_level(self, swap):
        # ``Z`` on qubit 1 is ``[I, 0, 0, -I]``: the same node on the
        # diagonal with different weights, next to a true wrap level.
        package = DDPackage(2)
        left = package.operator_chain({1: np.diag([1.0, -1.0]).astype(complex)})
        right = package.operator_chain({0: H2})
        if swap:
            left, right = right, left
        product = package.multiply_matrices(left, right)
        expected = package.matrix_to_numpy(left) @ package.matrix_to_numpy(right)
        assert np.allclose(package.matrix_to_numpy(product), expected, atol=1e-12)
        _assert_same_edge(product, _reference_multiply_matrices(package, left, right, {}))

    @settings(max_examples=MAX_EXAMPLES * 3, deadline=None)
    @given(num_qubits=st.integers(min_value=1, max_value=4), data=st.data())
    def test_count_nodes_matches_a_recursive_walk(self, num_qubits, data):
        package = DDPackage(num_qubits)
        matrix = data.draw(_matrix_operand(package))
        vector = data.draw(_vector_operand(package))
        assert package.count_nodes(matrix) == _reference_count_nodes(matrix)
        assert package.count_nodes(vector) == _reference_count_nodes(vector)

    def test_count_nodes_needs_no_recursion(self):
        assert DDPackage.count_nodes(DDPackage(1200).identity()) == 1200

    def test_terminal_edges_count_no_nodes(self):
        assert DDPackage.count_nodes(M_ONE) == DDPackage.count_nodes(V_ZERO) == 0

    def test_identity_test_recurses_one_frame_per_level(self):
        # One frame per level keeps 600 levels inside the default recursion
        # limit of 1000.
        package = DDPackage(600)
        assert package.is_identity(package.identity())

    def test_wide_ghz_self_pair_is_proved(self):
        from repro.algorithms import ghz_ladder

        result = check_equivalence(ghz_ladder(520), ghz_ladder(520))
        assert result.criterion.value == "equivalent"


class TestSchemeOneShapes:
    """Verdict and DD shape of the seed-independent Table-1 Scheme-1 pairs.

    The literals pin the node counts the kernels produce: a hashing or
    gate-construction change that alters the diagrams shows up here even
    when every verdict stays right.  The last two entries pin the compute
    work (multiply and add compute-table sizes): the zero-block short-cuts
    skip only products and sums that were never memoized either.
    """

    @pytest.mark.parametrize(
        "family, n, shape",
        [
            ("qft", 10, (19, 10, 725, 385, 18)),
            ("qft", 14, (27, 14, 1939, 1015, 26)),
            ("qpe", 6, (71, 7, 673, 620, 212)),
            ("qpe", 8, (271, 9, 2435, 2472, 666)),
            ("qpe", 10, (543, 11, 6206, 6434, 1574)),
        ],
    )
    def test_verdict_and_node_counts(self, family, n, shape):
        from repro.algorithms import iterative_qpe, qft_dynamic, qft_static_benchmark, qpe_static
        from repro.core import transformation

        if family == "qft":
            static, dynamic = qft_static_benchmark(n), qft_dynamic(n)
        else:
            static, dynamic = qpe_static(n), iterative_qpe(n)
        result = check_equivalence(static, transformation.to_unitary_circuit(dynamic).circuit)
        details = result.details
        assert result.criterion.value == "equivalent"
        assert (
            details["max_nodes"],
            details["final_nodes"],
            details["dd_statistics"]["matrix_nodes"],
            details["dd_statistics"]["multiply_mm_cache"],
            details["dd_statistics"]["add_matrix_cache"],
        ) == shape

    def test_each_root_is_counted_once_per_check(self, monkeypatch):
        from repro.algorithms import iterative_qpe, qpe_static
        from repro.core import transformation

        roots = []
        counts = []
        count_nodes = DDPackage.count_nodes

        def recording(edge):
            roots.append(edge.node)
            counts.append(count_nodes(edge))
            return counts[-1]

        monkeypatch.setattr(DDPackage, "count_nodes", staticmethod(recording))
        static = qpe_static(6)
        dynamic = transformation.to_unitary_circuit(iterative_qpe(6)).circuit
        result = check_equivalence(static, dynamic)
        assert result.criterion.value == "equivalent"
        assert len(roots) == len(set(map(id, roots)))
        assert result.details["max_nodes"] in counts
