"""Tests of the DD kernel overhaul: flyweight edges, hybrid dense-subtree
cutoff, memoized trace/probability queries, and statistics stability."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.random_circuits import random_static_circuit
from repro.cli import build_parser
from repro.core import Configuration, check_equivalence
from repro.dd.circuits import circuit_to_unitary_dd
from repro.dd.nodes import M_ONE, M_ZERO, V_ONE, V_ZERO, VEdge
from repro.dd.package import DDPackage
from repro.exceptions import DDError, EquivalenceCheckingError
from repro.simulators.dd_simulator import DDSimulator

H2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

MAX_EXAMPLES = 10


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
        # Mirrors the PR 1 counting contract: 24 gate applications, 3 distinct
        # (gate, qubits) keys — also with the hybrid kernels enabled.
        from repro.circuit import QuantumCircuit

        circuit = QuantumCircuit(3, name="repeated")
        for _ in range(8):
            circuit.h(0)
            circuit.cx(0, 1)
            circuit.t(2)
        for cutoff in (0, 2):
            package = DDPackage(3, dense_cutoff=cutoff)
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


class TestDenseCutoff:
    def test_package_rejects_negative_cutoff(self):
        with pytest.raises(DDError):
            DDPackage(2, dense_cutoff=-1)

    def test_configuration_rejects_negative_cutoff(self):
        with pytest.raises(EquivalenceCheckingError):
            Configuration(dense_cutoff=-1)

    def test_cli_exposes_dense_cutoff(self):
        args = build_parser().parse_args(["verify", "a.qasm", "b.qasm", "--dense-cutoff", "4"])
        assert args.dense_cutoff == 4

    def test_dense_caches_populate_and_clear(self):
        package = DDPackage(3, dense_cutoff=3)
        first = package.operator_chain({0: H2})
        second = package.operator_chain({1: H2})
        package.multiply_matrices(first, second)
        statistics = package.statistics()
        assert statistics["dense_cutoff"] == 3
        assert statistics["dense_matrix_cache"] > 0
        package.clear_caches()
        assert package.statistics()["dense_matrix_cache"] == 0

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_qubits=st.integers(min_value=1, max_value=4),
        depth=st.integers(min_value=0, max_value=6),
        cutoff=st.integers(min_value=1, max_value=5),
    )
    def test_unitaries_numerically_equal_with_and_without_cutoff(
        self, seed, num_qubits, depth, cutoff
    ):
        circuit = random_static_circuit(num_qubits, depth, seed=seed)
        plain = DDPackage(num_qubits)
        hybrid = DDPackage(num_qubits, dense_cutoff=cutoff)
        reference = plain.matrix_to_numpy(circuit_to_unitary_dd(plain, circuit))
        dense = hybrid.matrix_to_numpy(circuit_to_unitary_dd(hybrid, circuit))
        assert np.allclose(dense, reference, atol=1e-10)

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_qubits=st.integers(min_value=1, max_value=4),
        depth=st.integers(min_value=0, max_value=6),
        cutoff=st.integers(min_value=1, max_value=5),
    )
    def test_states_numerically_equal_with_and_without_cutoff(
        self, seed, num_qubits, depth, cutoff
    ):
        circuit = random_static_circuit(num_qubits, depth, seed=seed)
        plain = DDSimulator().run(circuit, package=DDPackage(num_qubits))
        hybrid = DDSimulator().run(
            circuit, package=DDPackage(num_qubits, dense_cutoff=cutoff)
        )
        assert np.allclose(
            plain.to_statevector(), hybrid.to_statevector(), atol=1e-10
        )

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_qubits=st.integers(min_value=1, max_value=4),
        cutoff=st.integers(min_value=1, max_value=5),
        equivalent=st.booleans(),
    )
    def test_verdicts_identical_with_and_without_cutoff(
        self, seed, num_qubits, cutoff, equivalent
    ):
        first = random_static_circuit(num_qubits, 4, seed=seed)
        if equivalent:
            second = random_static_circuit(num_qubits, 4, seed=seed)
        else:
            second = random_static_circuit(num_qubits, 5, seed=seed + 1)
        plain = check_equivalence(first, second, dense_cutoff=0)
        hybrid = check_equivalence(first, second, dense_cutoff=cutoff)
        assert plain.criterion is hybrid.criterion


class TestSchemeOneShapes:
    """Verdict and DD shape of the seed-independent Table-1 Scheme-1 pairs.

    The literals pin the node counts the kernels produce: a hashing or
    gate-construction change that alters the diagrams shows up here even
    when every verdict stays right.
    """

    @pytest.mark.parametrize(
        "family, n, shape",
        [
            ("qft", 10, (19, 10, 725)),
            ("qft", 14, (27, 14, 1939)),
            ("qpe", 6, (71, 7, 673)),
            ("qpe", 8, (271, 9, 2435)),
            ("qpe", 10, (543, 11, 6206)),
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
        ) == shape
