"""Tests for circuit feature extraction, portfolio scheduling and the
pluggable checker registry."""

import pickle
import threading

import pytest

from repro.algorithms import (
    bernstein_vazirani_dynamic,
    bernstein_vazirani_static,
    ghz_ladder,
    ghz_with_bug,
    qft_dynamic,
    qft_static_benchmark,
    teleportation_dynamic,
    teleportation_static,
)
from repro.circuit import QuantumCircuit
from repro.core import (
    Checker,
    CheckerOutcome,
    Configuration,
    EquivalenceCheckingManager,
    EquivalenceCriterion,
    ScheduledChecker,
    circuit_features,
    extract_pair_features,
    register_checker,
    resolve_checker,
    resolve_scheduler,
    unregister_checker,
)
from repro.exceptions import ConfigurationError, EquivalenceCheckingError

SEED = 1234


def _conditioned_reset_pair(equivalent: bool = True):
    """Two builds of a circuit with a classically-conditioned reset.

    Scheme 1 cannot reconstruct such circuits
    (:func:`~repro.core.transformation.substitute_resets` raises — the PR 2
    fix this guards), so only a Scheme-2 checker can decide the pair.
    """
    first = QuantumCircuit(1, 2)
    first.h(0)
    first.measure(0, 0)
    first.reset(0, condition=(0, 1))
    first.measure(0, 1)

    second = QuantumCircuit(1, 2)
    second.h(0)
    second.measure(0, 0)
    second.reset(0, condition=(0, 1))
    if not equivalent:
        second.x(0)
    second.measure(0, 1)
    return first, second


class TestCircuitFeatures:
    def test_static_circuit_features(self):
        circuit = ghz_ladder(4)
        features = circuit_features(circuit)
        assert features.num_qubits == 4
        assert features.num_gates == circuit.size
        assert features.num_resets == 0
        assert features.num_classically_controlled == 0
        assert not features.is_dynamic
        assert not features.needs_scheme_two
        assert features.depth == circuit.depth()
        assert 0.0 < features.two_qubit_ratio < 1.0
        assert set(features.gate_types) == {"h", "cx"}

    def test_reset_sets_dynamic_flag(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.reset(0)
        features = circuit_features(circuit)
        assert features.num_resets == 1
        assert features.is_dynamic
        assert not features.needs_scheme_two

    def test_mid_circuit_measurement_sets_dynamic_flag(self):
        circuit = QuantumCircuit(2, 1)
        circuit.h(0)
        circuit.measure(0, 0)
        circuit.h(0)  # further op on the measured qubit
        features = circuit_features(circuit)
        assert features.num_measurements == 1
        assert features.has_mid_circuit_measurement
        assert features.is_dynamic

    def test_final_measurement_stays_static(self):
        circuit = QuantumCircuit(2, 2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.measure(0, 0)
        circuit.measure(1, 1)
        features = circuit_features(circuit)
        assert features.num_measurements == 2
        assert not features.has_mid_circuit_measurement
        assert not features.is_dynamic

    def test_classically_conditioned_op_sets_dynamic_flag(self):
        circuit = QuantumCircuit(2, 1)
        circuit.h(0)
        circuit.measure(0, 0)
        circuit.x(1, condition=(0, 1))
        features = circuit_features(circuit)
        assert features.num_classically_controlled == 1
        assert features.is_dynamic
        assert not features.needs_scheme_two  # conditioned *gate*, scheme 1 ok

    def test_conditioned_reset_needs_scheme_two(self):
        first, _ = _conditioned_reset_pair()
        features = circuit_features(first)
        assert features.num_conditioned_resets == 1
        assert features.needs_scheme_two
        assert features.is_dynamic

    def test_dynamic_bv_matches_circuit_properties(self):
        circuit = bernstein_vazirani_dynamic("1011")
        features = circuit_features(circuit)
        assert features.is_dynamic == circuit.is_dynamic
        assert features.num_resets == circuit.num_resets
        assert features.num_measurements == circuit.num_measurements
        assert (
            features.num_classically_controlled == circuit.num_classically_controlled
        )
        assert features.depth == circuit.depth()

    def test_to_dict_is_json_friendly(self):
        import json

        payload = circuit_features(teleportation_dynamic()).to_dict()
        assert json.dumps(payload)  # serializable
        assert payload["is_dynamic"] is True


class TestPairFeatures:
    def test_identical_builds_have_similarity_one(self):
        pair = extract_pair_features(ghz_ladder(4), ghz_ladder(4))
        assert pair.structural_similarity == 1.0
        assert pair.gate_count_ratio == 1.0
        assert pair.qubit_counts_match

    def test_bugged_pair_similarity_below_one(self):
        pair = extract_pair_features(ghz_ladder(4), ghz_with_bug(4))
        assert pair.structural_similarity < 1.0

    def test_structurally_unrelated_pair_is_dissimilar(self):
        pair = extract_pair_features(
            qft_static_benchmark(4), bernstein_vazirani_static("1011")
        )
        assert pair.structural_similarity < 0.5

    def test_pair_features_pickle_roundtrip(self):
        pair = extract_pair_features(
            teleportation_static(), teleportation_dynamic()
        )
        clone = pickle.loads(pickle.dumps(pair))
        assert clone == pair


class TestSchedulers:
    def test_static_replays_configured_order(self):
        config = Configuration(portfolio=("alternating", "simulation"))
        schedule = resolve_scheduler("static")().build(
            ghz_ladder(3), ghz_ladder(3), config
        )
        assert schedule.checker_names == ("alternating", "simulation")
        assert schedule.scheduler == "static"
        assert schedule.features is None

    def test_adaptive_puts_provers_first_on_clones(self):
        config = Configuration(scheduler="adaptive")
        schedule = resolve_scheduler("adaptive")().build(
            ghz_ladder(4), ghz_ladder(4), config
        )
        assert schedule.checker_names == ("alternating", "simulation")
        assert schedule.features is not None

    def test_adaptive_front_loads_falsifier_on_dissimilar_pairs(self):
        config = Configuration(
            scheduler="adaptive", portfolio=("alternating", "simulation"), timeout=60.0
        )
        schedule = resolve_scheduler("adaptive")().build(
            qft_static_benchmark(4), bernstein_vazirani_static("1011"), config
        )
        assert schedule.checker_names[0] == "simulation"
        falsifier = schedule.checkers[0]
        assert falsifier.budget_fraction is not None
        assert falsifier.budget(config) == pytest.approx(
            falsifier.budget_fraction * 60.0
        )

    def test_adaptive_never_selects_scheme_one_only_path_for_conditioned_reset(self):
        # Regression guard for the PR 2 substitute_resets fix: a conditioned
        # reset cannot be rewired onto a fresh qubit, so every Scheme-1
        # checker is doomed; the adaptive lineup must contain a Scheme-2
        # checker and lead with it.
        first, second = _conditioned_reset_pair()
        config = Configuration(scheduler="adaptive")
        schedule = resolve_scheduler("adaptive")().build(first, second, config)
        roles = [resolve_checker(name).scheme_two for name in schedule.checker_names]
        assert any(roles), "schedule is a scheme-1-only path"
        assert roles[0], "scheme-2 checker must run first for conditioned resets"

    def test_scheduled_checker_budget_defaults_to_checker_timeout(self):
        config = Configuration(checker_timeout=5.0)
        assert ScheduledChecker("simulation").budget(config) == 5.0
        assert ScheduledChecker("simulation").budget(Configuration()) is None

    def test_schedule_pickle_roundtrip(self):
        config = Configuration(scheduler="adaptive")
        schedule = resolve_scheduler("adaptive")().build(
            teleportation_static(), teleportation_dynamic(), config
        )
        clone = pickle.loads(pickle.dumps(schedule))
        assert clone.checker_names == schedule.checker_names
        assert clone.features == schedule.features


class TestAdaptiveManager:
    def test_adaptive_rescues_equivalent_conditioned_reset_pair(self):
        first, second = _conditioned_reset_pair(equivalent=True)
        static = EquivalenceCheckingManager(seed=SEED).run(first, second)
        assert static.criterion is EquivalenceCriterion.NO_INFORMATION
        adaptive = EquivalenceCheckingManager(seed=SEED, scheduler="adaptive").run(
            first, second
        )
        assert adaptive.criterion is EquivalenceCriterion.PROBABLY_EQUIVALENT
        assert adaptive.schedule[0] == "distribution"
        assert adaptive.features["needs_scheme_two"] is True

    def test_adaptive_refutes_non_equivalent_conditioned_reset_pair(self):
        first, second = _conditioned_reset_pair(equivalent=False)
        adaptive = EquivalenceCheckingManager(seed=SEED, scheduler="adaptive").run(
            first, second
        )
        assert adaptive.criterion is EquivalenceCriterion.NOT_EQUIVALENT
        assert adaptive.decided_by == "distribution"

    def test_adaptive_skips_falsifier_on_clone_pairs(self):
        result = EquivalenceCheckingManager(seed=SEED, scheduler="adaptive").run(
            ghz_ladder(4), ghz_ladder(4)
        )
        assert result.criterion is EquivalenceCriterion.EQUIVALENT
        assert result.decided_by == "alternating"
        # Provers first: the falsifier only gets the turn once the prover has
        # applied a gate, and the prover proves within the turn that follows
        # the falsifier's first stimulus, so simulation never completes.
        statuses = {a.method: a.status for a in result.attempts}
        assert statuses["simulation"] == "preempted"
        assert result.schedule == ["alternating", "simulation"]

    def test_result_records_schedule_and_features(self):
        result = EquivalenceCheckingManager(seed=SEED, scheduler="adaptive").run(
            bernstein_vazirani_static("101"), bernstein_vazirani_dynamic("101")
        )
        assert result.scheduler == "adaptive"
        assert set(result.schedule) == {"simulation", "alternating"}
        assert result.features is not None
        assert result.features["second"]["is_dynamic"] is True


def _agreement_pairs():
    """A mixed batch: clones, static/dynamic realizations, and bugged pairs."""
    pairs = [
        (ghz_ladder(3), ghz_ladder(3)),
        (ghz_ladder(4), ghz_ladder(4)),
        (bernstein_vazirani_static("101"), bernstein_vazirani_dynamic("101")),
        (bernstein_vazirani_static("0110"), bernstein_vazirani_dynamic("0110")),
        (teleportation_static(), teleportation_dynamic()),
        (qft_static_benchmark(4), qft_dynamic(4)),
        (ghz_ladder(3), ghz_with_bug(3)),
        (bernstein_vazirani_static("101"), bernstein_vazirani_dynamic("111")),
    ]
    return pairs


class TestSchedulerAgreement:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_adaptive_never_changes_a_verdict(self, executor):
        # Acceptance criterion: entry-for-entry identical criteria between
        # scheduler="static" and scheduler="adaptive", on both executors.
        pairs = _agreement_pairs()
        static = EquivalenceCheckingManager(
            seed=SEED, scheduler="static", executor=executor, max_workers=2
        ).verify_batch(pairs)
        adaptive = EquivalenceCheckingManager(
            seed=SEED, scheduler="adaptive", executor=executor, max_workers=2
        ).verify_batch(pairs)
        assert static.num_pairs == adaptive.num_pairs == len(pairs)
        for static_entry, adaptive_entry in zip(static.entries, adaptive.entries):
            assert static_entry.error is None and adaptive_entry.error is None
            assert (
                adaptive_entry.result.criterion is static_entry.result.criterion
            ), adaptive_entry.index

    def test_process_workers_replay_parent_schedules(self):
        pairs = _agreement_pairs()
        thread = EquivalenceCheckingManager(
            seed=SEED, scheduler="adaptive", executor="thread", max_workers=2
        ).verify_batch(pairs)
        process = EquivalenceCheckingManager(
            seed=SEED, scheduler="adaptive", executor="process", max_workers=2
        ).verify_batch(pairs)
        for thread_entry, process_entry in zip(thread.entries, process.entries):
            assert process_entry.result.schedule == thread_entry.result.schedule
            assert process_entry.result.scheduler == "adaptive"


class _NeverDecides(Checker):
    """Third-party-style checker used to exercise the registry."""

    name = "never-decides"
    role = "falsifier"

    def check(self, first, second, configuration, *, interrupt=None):
        return CheckerOutcome(EquivalenceCriterion.NO_INFORMATION, {"custom": True})


class TestCheckerRegistry:
    def test_third_party_checker_plugs_in_by_name(self):
        register_checker(_NeverDecides)
        try:
            config = Configuration(portfolio=("never-decides", "alternating"))
            result = EquivalenceCheckingManager(config).run(
                ghz_ladder(3), ghz_ladder(3)
            )
            assert result.criterion is EquivalenceCriterion.EQUIVALENT
            custom = result.attempts[0]
            assert custom.method == "never-decides"
            assert custom.result.details == {"custom": True}
        finally:
            unregister_checker("never-decides")

    def test_duplicate_registration_rejected(self):
        register_checker(_NeverDecides)
        try:
            with pytest.raises(EquivalenceCheckingError):
                register_checker(_NeverDecides)
            register_checker(_NeverDecides, replace=True)  # explicit override ok
        finally:
            unregister_checker("never-decides")

    def test_unknown_names_rejected_eagerly_at_construction(self):
        # Satellite: unknown checker name -> ConfigurationError at
        # Configuration() time, not mid-run, with the registry as the source
        # of truth.
        with pytest.raises(ConfigurationError):
            Configuration(portfolio=("alternating", "never-decides"))
        with pytest.raises(ConfigurationError):
            Configuration(method="never-decides")
        with pytest.raises(ConfigurationError):
            Configuration(scheduler="magic")
        register_checker(_NeverDecides)
        try:
            Configuration(portfolio=("alternating", "never-decides"))  # now valid
        finally:
            unregister_checker("never-decides")

    def test_distribution_is_a_first_class_method(self):
        from repro.core import check_equivalence

        result = check_equivalence(
            bernstein_vazirani_static("101"),
            bernstein_vazirani_dynamic("101"),
            method="distribution",
        )
        assert result.criterion is EquivalenceCriterion.PROBABLY_EQUIVALENT
        assert result.method == "distribution"


class TestTimeoutStopFlag:
    @pytest.mark.parametrize("checker", ["alternating", "construction"])
    def test_timed_out_checker_leaves_no_checker_thread(self, checker, monkeypatch):
        # Timed-out checkers used to run on abandoned daemon threads (later
        # stopped by a flag).  The interleaved portfolio steps every checker
        # on the calling thread and checks budgets between steps, so a
        # timed-out checker is simply not stepped again: no checker thread is
        # ever started.  Both the per-gate steps of the alternating scheme
        # and the single-step DD build of the construction scheme (which
        # polls its interrupt probe) must honour the budget.
        started = []
        original = threading.Thread.start

        def recording_start(thread):
            started.append(thread.name)
            return original(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        manager = EquivalenceCheckingManager(
            portfolio=(checker,), checker_timeout=0.005, seed=SEED
        )
        result = manager.run(qft_static_benchmark(12), qft_dynamic(12))
        assert result.attempts[0].status == "timeout"
        assert not [name for name in started if name.startswith("checker-")]
        assert not [t for t in threading.enumerate() if t.name.startswith("checker-")]
