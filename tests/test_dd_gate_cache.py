"""Tests for the per-package gate-DD memoization layer."""

import pytest

from repro.algorithms import (
    bernstein_vazirani_dynamic,
    bernstein_vazirani_static,
    qft_dynamic,
    qft_static_benchmark,
    teleportation_dynamic,
    teleportation_static,
)
from repro.circuit import QuantumCircuit
from repro.core import check_equivalence
from repro.dd.circuits import circuit_to_unitary_dd, instruction_to_dd
from repro.dd.package import DDPackage


def _repeated_gate_circuit(repetitions: int = 8) -> QuantumCircuit:
    circuit = QuantumCircuit(3, name="repeated")
    for _ in range(repetitions):
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.t(2)
    return circuit


class TestGateCacheStatistics:
    def test_hits_on_repeated_gate_circuits(self):
        package = DDPackage(3)
        circuit_to_unitary_dd(package, _repeated_gate_circuit(8))
        statistics = package.statistics()
        # 24 gate applications but only 3 distinct (gate, qubits) keys.
        assert statistics["gate_cache_misses"] == 3
        assert statistics["gate_cache_hits"] == 21
        assert statistics["gate_cache_size"] == 3
        assert statistics["gate_cache_hit_ratio"] == pytest.approx(21 / 24)

    def test_statistics_surface_through_equivalence_check(self):
        # A non-equivalent pair: on an equivalent one the alternating check
        # cancels every matched pair and builds no gate DD at all.
        result = check_equivalence(
            bernstein_vazirani_static("101"), bernstein_vazirani_dynamic("111")
        )
        statistics = result.details["dd_statistics"]
        assert "gate_cache_hits" in statistics
        assert "gate_cache_misses" in statistics
        assert statistics["gate_cache_misses"] > 0

    def test_clear_caches_drops_gate_cache(self):
        package = DDPackage(3)
        circuit_to_unitary_dd(package, _repeated_gate_circuit(4))
        assert package.statistics()["gate_cache_size"] > 0
        package.clear_caches()
        assert package.statistics()["gate_cache_size"] == 0


class TestGateCacheEviction:
    def test_bounded_cache_evicts_least_recently_used(self):
        package = DDPackage(3, gate_cache_size=2)
        circuit_to_unitary_dd(package, _repeated_gate_circuit(1))  # h, cx, t
        statistics = package.statistics()
        assert statistics["gate_cache_limit"] == 2
        assert statistics["gate_cache_size"] <= 2
        assert statistics["gate_cache_evictions"] >= 1

    def test_lru_order_hit_refreshes_entry(self):
        package = DDPackage(2, gate_cache_size=2)
        circuit_a = QuantumCircuit(2)
        circuit_a.h(0)
        circuit_b = QuantumCircuit(2)
        circuit_b.x(1)
        a = next(iter(circuit_a.gate_instructions()))
        b = next(iter(circuit_b.gate_instructions()))
        instruction_to_dd(package, a)  # miss: cache = [a]
        instruction_to_dd(package, b)  # miss: cache = [a, b]
        instruction_to_dd(package, a)  # hit: refreshes a -> cache = [b, a]
        circuit_c = QuantumCircuit(2)
        circuit_c.t(0)
        c = next(iter(circuit_c.gate_instructions()))
        instruction_to_dd(package, c)  # evicts b, the least recently used
        statistics = package.statistics()
        assert statistics["gate_cache_evictions"] == 1
        hits_before = statistics["gate_cache_hits"]
        instruction_to_dd(package, a)  # still cached
        assert package.statistics()["gate_cache_hits"] == hits_before + 1
        instruction_to_dd(package, b)  # evicted, so a fresh miss
        assert package.statistics()["gate_cache_misses"] == statistics["gate_cache_misses"] + 1

    def test_bound_holds_for_single_qubit_gates(self):
        package = DDPackage(4, gate_cache_size=1)
        circuit = QuantumCircuit(4)
        for qubit in range(4):
            circuit.h(qubit)
        circuit_to_unitary_dd(package, circuit)
        statistics = package.statistics()
        assert statistics["gate_cache_size"] == 1
        assert statistics["gate_cache_evictions"] == 3

    def test_invalid_bound_rejected(self):
        from repro.exceptions import DDError

        with pytest.raises(DDError):
            DDPackage(2, gate_cache_size=0)

    def test_verdicts_unchanged_under_tight_bound(self):
        static = qft_static_benchmark(4)
        dynamic = qft_dynamic(4)
        unbounded = check_equivalence(static, dynamic, seed=1)
        bounded = check_equivalence(static, dynamic, seed=1, gate_cache_size=2)
        assert bounded.criterion is unbounded.criterion
        stats = bounded.details["dd_statistics"]
        assert stats["gate_cache_size"] <= 2
        assert stats["gate_cache_limit"] == 2


class TestGateCacheSemantics:
    def test_repeated_instruction_reuses_the_same_edge(self):
        package = DDPackage(2)
        circuit = QuantumCircuit(2)
        first = circuit.cx(0, 1)
        second = circuit.cx(0, 1)
        edge_one = instruction_to_dd(package, first)
        edge_two = instruction_to_dd(package, second)
        assert edge_one is edge_two

    def test_distinct_qubits_do_not_collide(self):
        package = DDPackage(3)
        circuit = QuantumCircuit(3)
        a = circuit.cx(0, 1)
        b = circuit.cx(1, 2)
        edge_a = instruction_to_dd(package, a)
        edge_b = instruction_to_dd(package, b)
        assert package.statistics()["gate_cache_misses"] == 2
        assert edge_a is not edge_b

    def test_distinct_parameters_do_not_collide(self):
        package = DDPackage(1)
        circuit = QuantumCircuit(1)
        a = circuit.rz(0.25, 0)
        b = circuit.rz(0.50, 0)
        instruction_to_dd(package, a)
        instruction_to_dd(package, b)
        assert package.statistics()["gate_cache_misses"] == 2
        assert package.statistics()["gate_cache_hits"] == 0

    def test_identity_chain_is_memoized(self):
        package = DDPackage(4)
        identity = package.identity()
        assert package.identity() is identity
        assert identity.node.identity


class TestCachedVerdictsAndStatistics:
    """The always-on gate cache keeps the known verdicts and its counters.

    Expected values are each pair's known answer and the gate-cache
    hits/misses its circuits produce, so a cache change that alters either
    shows up here.
    """

    PAIRS = [
        ("bv", lambda: (bernstein_vazirani_static("1011"), bernstein_vazirani_dynamic("1011"))),
        ("teleport", lambda: (teleportation_static(), teleportation_dynamic())),
        ("qft", lambda: (qft_static_benchmark(4), qft_dynamic(4))),
        # 41 qubits: too wide for the alternating check to stop at the
        # identical pairs that follow the differing oracle gate.
        (
            "bv-broken",
            lambda: (
                bernstein_vazirani_static("10" * 20),
                bernstein_vazirani_dynamic("11" + "10" * 19),
            ),
        ),
    ]
    #: (label, method) -> (criterion, gate_cache_hits, gate_cache_misses).
    #: The construction method builds every gate of both circuits; the
    #: alternating one cancels matched pairs while its product is a
    #: multiple of the identity, so on the equivalent pairs it builds none.
    EXPECTED = {
        ("bv", "construction"): ("equivalent", 17, 9),
        ("teleport", "construction"): ("equivalent", 7, 9),
        ("qft", "construction"): ("equivalent", 4, 16),
        ("bv-broken", "construction"): ("not_equivalent", 142, 63),
        ("bv", "alternating"): ("equivalent", 0, 0),
        ("teleport", "alternating"): ("equivalent", 0, 0),
        ("qft", "alternating"): ("equivalent", 0, 0),
        ("bv-broken", "alternating"): ("not_equivalent", 3, 4),
    }

    @pytest.mark.parametrize("label,make", PAIRS, ids=[p[0] for p in PAIRS])
    @pytest.mark.parametrize("method", ["alternating", "construction"])
    def test_cached_criteria_and_counters(self, label, make, method):
        first, second = make()
        result = check_equivalence(first, second, method=method)
        statistics = result.details["dd_statistics"]
        observed = (
            result.criterion.value,
            statistics["gate_cache_hits"],
            statistics["gate_cache_misses"],
        )
        assert observed == self.EXPECTED[label, method]

    def test_cached_criterion_and_counters(self):
        first, second = qft_static_benchmark(4), qft_dynamic(4)
        result = check_equivalence(first, second)
        assert result.criterion.value == "equivalent"
        statistics = result.details["dd_statistics"]
        assert (statistics["gate_cache_hits"], statistics["gate_cache_misses"]) == (0, 0)
