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
    iterative_qpe,
    qft_dynamic,
    qft_static_benchmark,
    qpe_static,
    teleportation_dynamic,
    teleportation_static,
)
from repro.circuit import QuantumCircuit
from repro.circuit.random_circuits import random_static_circuit
from repro.core import (
    Checker,
    CheckerOutcome,
    Configuration,
    EquivalenceCheckingManager,
    EquivalenceCriterion,
    check_equivalence,
    extract_features,
    extract_pair_features,
    register_checker,
    resolve_checker,
    unregister_checker,
)
from repro.obs import trace
from repro.exceptions import ConfigurationError, EquivalenceCheckingError

SEED = 1234


def _conditioned_reset_pair(equivalent: bool = True):
    """Two builds of a circuit with a reset conditioned on its own qubit.

    Scheme 1 cannot reconstruct such circuits: the conditioned SWAP that
    replaces the reset would act on the qubit whose measurement controls it,
    and :func:`~repro.core.transformation.to_unitary_circuit` raises.  So
    only a Scheme-2 checker can decide the pair.
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


def _reused_qubit_pair(equivalent: bool = True):
    """Two builds of ``h; measure; h; measure`` on one qubit, no reset.

    The measured qubit is used again, so the deferred measurement principle
    does not apply and Scheme 1 cannot reconstruct the circuit, although it
    has no conditioned reset.  The non-equivalent build drops the second
    ``h``, so its second bit copies the first.
    """
    circuits = []
    for with_second_h in (True, equivalent):
        circuit = QuantumCircuit(1, 2)
        circuit.h(0)
        circuit.measure(0, 0)
        if with_second_h:
            circuit.h(0)
        circuit.measure(0, 1)
        circuits.append(circuit)
    return tuple(circuits)


def _double_sourced_condition_pair(equivalent: bool = True):
    """``h q0; measure q0->c0; measure q0->c1; if(c==3) x q1; measure q1->c1``.

    The condition reads two measurements of the same qubit, so Scheme 1
    cannot turn it into controls, although the circuit has no reset and
    never reuses a measured qubit.  The non-equivalent build tests
    ``c==1`` instead, which never holds.
    """
    circuits = []
    for value in (3, 3 if equivalent else 1):
        circuit = QuantumCircuit(2, 2)
        circuit.h(0)
        circuit.measure(0, 0)
        circuit.measure(0, 1)
        circuit.x(1, condition=(circuit.cregs[0], value))
        circuit.measure(1, 1)
        circuits.append(circuit)
    return tuple(circuits)


def _cross_conditioned_reset_circuit() -> QuantumCircuit:
    """A reset of qubit 1 conditioned on qubit 0's measurement.

    Scheme 1 reconstructs it (a controlled SWAP with a fresh ancilla), so
    the Scheme-1 checkers decide it.
    """
    circuit = QuantumCircuit(2, 2)
    circuit.h(0)
    circuit.h(1)
    circuit.measure(0, 0)
    circuit.reset(1, condition=(0, 1))
    circuit.measure(1, 1)
    return circuit


class TestCircuitFeatures:
    def test_static_extract_features(self):
        features = extract_features(ghz_ladder(4))
        assert not features.is_dynamic
        assert not features.needs_scheme_two

    def test_reset_sets_dynamic_flag(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.reset(0)
        features = extract_features(circuit)
        assert features.is_dynamic
        assert not features.needs_scheme_two

    def test_mid_circuit_measurement_sets_dynamic_flag(self):
        circuit = QuantumCircuit(2, 1)
        circuit.h(0)
        circuit.measure(0, 0)
        circuit.h(0)  # further op on the measured qubit
        features = extract_features(circuit)
        assert features.is_dynamic

    def test_final_measurement_stays_static(self):
        circuit = QuantumCircuit(2, 2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.measure(0, 0)
        circuit.measure(1, 1)
        features = extract_features(circuit)
        assert not features.is_dynamic

    def test_classically_conditioned_op_sets_dynamic_flag(self):
        circuit = QuantumCircuit(2, 1)
        circuit.h(0)
        circuit.measure(0, 0)
        circuit.x(1, condition=(0, 1))
        features = extract_features(circuit)
        assert features.is_dynamic
        assert not features.needs_scheme_two  # conditioned *gate*, scheme 1 ok

    def test_conditioned_reset_needs_scheme_two(self):
        first, _ = _conditioned_reset_pair()
        features = extract_features(first)
        assert features.needs_scheme_two
        assert features.is_dynamic

    def test_reused_measured_qubit_needs_scheme_two(self):
        first, _ = _reused_qubit_pair()
        features = extract_features(first)
        assert features.needs_scheme_two

    def test_reconstructible_conditioned_reset_stays_scheme_one(self):
        features = extract_features(_cross_conditioned_reset_circuit())
        assert features.is_dynamic
        assert not features.needs_scheme_two

    def test_dynamic_bv_matches_circuit_properties(self):
        circuit = bernstein_vazirani_dynamic("1011")
        features = extract_features(circuit)
        assert features.is_dynamic == circuit.is_dynamic

    def test_to_dict_is_json_friendly(self):
        import json

        payload = extract_features(teleportation_dynamic()).to_dict()
        assert json.dumps(payload)  # serializable
        assert payload["is_dynamic"] is True


class TestPairFeatures:
    def test_pair_features_pickle_roundtrip(self):
        pair = extract_pair_features(
            teleportation_static(), teleportation_dynamic()
        )
        clone = pickle.loads(pickle.dumps(pair))
        assert clone == pair
        assert clone.to_dict() == pair.to_dict()

    def test_kept_reconstruction_pickles_with_its_source(self):
        dynamic = bernstein_vazirani_dynamic("1011")
        pair = extract_pair_features(bernstein_vazirani_static("1011"), dynamic)
        assert pair.second.reconstruction_of(dynamic) is not None
        assert pair.first.source is None
        clone, clone_dynamic = pickle.loads(pickle.dumps((pair, dynamic)))
        assert clone == pair
        assert clone.to_dict() == pair.to_dict()
        assert clone.second.reconstruction_of(clone_dynamic) is not None
        assert clone.second.reconstruction_of(bernstein_vazirani_dynamic("1011")) is None


def _lineup(first, second, **overrides):
    return EquivalenceCheckingManager(**overrides).schedule_for(first, second).checkers


class TestSchedule:
    def test_default_lineup_puts_provers_first_on_clones(self):
        schedule = EquivalenceCheckingManager().schedule_for(ghz_ladder(4), ghz_ladder(4))
        assert schedule.checkers == ("alternating", "simulation")
        assert schedule.features is not None

    @pytest.mark.parametrize(
        "portfolio,lineup",
        [
            (("simulation", "construction"), ("construction", "simulation")),
            (
                ("simulation", "construction", "alternating"),
                ("construction", "alternating", "simulation"),
            ),
        ],
    )
    def test_lineup_is_provers_then_falsifiers(self, portfolio, lineup):
        # Dissimilar, translated and clone pairs all get the one lineup:
        # provers in configured order, then falsifiers.
        pairs = [
            (qft_static_benchmark(4), bernstein_vazirani_static("1011")),
            (ghz_ladder(4), ghz_ladder(4)),
            (bernstein_vazirani_static("101"), bernstein_vazirani_dynamic("101")),
        ]
        for first, second in pairs:
            assert _lineup(first, second, portfolio=portfolio) == lineup

    @pytest.mark.parametrize("checker_timeout", [None, 5.0])
    def test_budget_is_checker_timeout(self, checker_timeout):
        # Under an overall timeout no checker gets a share of it: every
        # checker's budget is checker_timeout, whatever the pair.
        manager = EquivalenceCheckingManager(
            portfolio=("alternating", "simulation"),
            timeout=60.0,
            checker_timeout=checker_timeout,
            seed=SEED,
        )
        tracer = trace.Tracer()
        with trace.activate(tracer):
            for first, second in [
                (qft_static_benchmark(4), bernstein_vazirani_static("1011")),
                (ghz_ladder(4), ghz_with_bug(4)),
                (ghz_ladder(4), ghz_ladder(4)),
            ]:
                manager.run(first, second)
        budgets = [
            span["attrs"].get("budget")
            for span in tracer.export()
            if span["name"] == "checker.run" and span["attrs"]["turn"] == 0
        ]
        assert budgets
        assert set(budgets) == {checker_timeout}

    def test_never_selects_scheme_one_only_path_for_conditioned_reset(self):
        # A reset conditioned on its own qubit's measurement has no Scheme-1
        # reconstruction, so every Scheme-1 checker is doomed; the lineup
        # must contain a Scheme-2 checker and lead with it.
        first, second = _conditioned_reset_pair()
        lineup = _lineup(first, second)
        roles = [resolve_checker(name).scheme_two for name in lineup]
        assert any(roles), "schedule is a scheme-1-only path"
        assert roles[0], "scheme-2 checker must run first for conditioned resets"

    def test_schedule_pickle_roundtrip(self):
        manager = EquivalenceCheckingManager()
        schedule = manager.schedule_for(teleportation_static(), teleportation_dynamic())
        clone = pickle.loads(pickle.dumps(schedule))
        assert clone.checkers == schedule.checkers
        assert clone.features == schedule.features


class TestLineupManager:
    def test_keeps_scheme_one_lead_for_reconstructible_conditioned_reset(self):
        first = _cross_conditioned_reset_circuit()
        second = _cross_conditioned_reset_circuit()
        result = EquivalenceCheckingManager(seed=SEED).run(first, second)
        assert result.schedule[0] != "distribution"
        assert "distribution" not in result.schedule
        assert result.features["needs_scheme_two"] is False
        assert result.criterion is EquivalenceCriterion.EQUIVALENT
        assert result.decided_by == "alternating"

    @pytest.mark.parametrize(
        "make",
        [_conditioned_reset_pair, _reused_qubit_pair, _double_sourced_condition_pair],
        ids=["conditioned-reset", "reused-qubit", "double-sourced-condition"],
    )
    @pytest.mark.parametrize(
        ("equivalent", "criterion"),
        [
            (True, EquivalenceCriterion.PROBABLY_EQUIVALENT),
            (False, EquivalenceCriterion.NOT_EQUIVALENT),
        ],
        ids=["equivalent", "mutant"],
    )
    def test_default_manager_decides_unreconstructible_pairs_through_distribution(
        self, make, equivalent, criterion
    ):
        # Scheme 1 rebuilds none of these circuits, so only the appended
        # Scheme-2 checker can answer: it refutes each mutant and finds no
        # difference on each equivalent pair.  The Scheme-1 checkers take
        # their turn after its first step and fail at no cost.
        result = EquivalenceCheckingManager(seed=0).run(*make(equivalent))
        assert result.schedule == ["distribution", "simulation", "alternating"]
        assert result.features["needs_scheme_two"] is True
        assert result.criterion is criterion
        assert result.decided_by == (None if equivalent else "distribution")
        attempts = {attempt.method: attempt for attempt in result.attempts}
        assert attempts["distribution"].result.criterion is criterion
        for method in ("simulation", "alternating"):
            assert attempts[method].status == "error"
            assert attempts[method].error.startswith("TransformationError: ")

    @pytest.mark.parametrize(
        "make",
        [
            lambda: (qft_static_benchmark(8), qft_dynamic(8)),
            lambda: (qpe_static(8), iterative_qpe(8)),
            lambda: (
                bernstein_vazirani_static("10110011101001011100"),
                bernstein_vazirani_dynamic("10110011101001011100"),
            ),
        ],
        ids=["qft-8", "qpe-8", "bv-20"],
    )
    def test_proves_table1_pairs_before_simulating(self, make):
        # The prover leads and cancels every matched gate pair of the
        # reconstructed circuit at cost 0, so it decides in its first turn
        # and the falsifier never starts.
        result = EquivalenceCheckingManager(seed=SEED, verdict_cache=False).run(*make())
        assert result.criterion.considered_equivalent
        assert result.schedule == ["alternating", "simulation"]
        assert result.decided_by == "alternating"
        statuses = {a.method: a.status for a in result.attempts}
        assert statuses["simulation"] == "skipped"

    def test_skips_falsifier_on_clone_pairs(self):
        result = EquivalenceCheckingManager(seed=SEED).run(ghz_ladder(4), ghz_ladder(4))
        assert result.criterion is EquivalenceCriterion.EQUIVALENT
        assert result.decided_by == "alternating"
        # Provers first: the falsifier only gets the turn once the prover's
        # cost passes 0, but on a clone pair the prover cancels every matched
        # gate pair at cost 0 and proves within its first turn, so simulation
        # never starts.
        statuses = {a.method: a.status for a in result.attempts}
        assert statuses["simulation"] == "skipped"
        assert result.schedule == ["alternating", "simulation"]

    @pytest.mark.parametrize(
        "make",
        [
            lambda: (bernstein_vazirani_static("1011"), bernstein_vazirani_dynamic("1011")),
            lambda: (iterative_qpe(4), iterative_qpe(4)),
            lambda: (teleportation_dynamic(), teleportation_dynamic()),
        ],
        ids=["static-vs-dynamic", "dynamic-vs-dynamic", "conditioned-gates-only"],
    )
    def test_run_transforms_each_dynamic_circuit_once(self, monkeypatch, make):
        import repro.core.equivalence
        import repro.core.manager
        import repro.core.transformation

        first, second = make()
        calls = []
        original = repro.core.transformation.to_unitary_circuit

        def spy(circuit):
            calls.append(circuit)
            return original(circuit)

        for module in (
            repro.core.transformation,
            repro.core.manager,
            repro.core.equivalence,
        ):
            monkeypatch.setattr(module, "to_unitary_circuit", spy)
        manager = EquivalenceCheckingManager(seed=SEED, verdict_cache=False)
        for _ in range(2):
            calls.clear()
            result = manager.run(first, second)
            assert result.criterion.considered_equivalent
            assert result.features["any_dynamic"] is True
            dynamic = [circuit for circuit in (first, second) if circuit.is_dynamic]
            assert sorted(map(id, calls)) == sorted(map(id, dynamic))

    def test_injected_schedule_of_another_pair_is_not_reused(self):
        manager = EquivalenceCheckingManager(seed=SEED)
        schedule = manager.schedule_for(
            bernstein_vazirani_static("1011"), bernstein_vazirani_dynamic("1011")
        )
        assert schedule.features.second.reconstruction is not None
        result = manager.run(
            bernstein_vazirani_static("1011"),
            bernstein_vazirani_dynamic("1111"),
            schedule=schedule,
        )
        assert result.criterion is EquivalenceCriterion.NOT_EQUIVALENT

    def test_result_records_schedule_and_features(self):
        result = EquivalenceCheckingManager(seed=SEED).run(
            bernstein_vazirani_static("101"), bernstein_vazirani_dynamic("101")
        )
        assert result.schedule == ["alternating", "simulation"]
        assert result.features == {
            "first": {"is_dynamic": False, "needs_scheme_two": False},
            "second": {"is_dynamic": True, "needs_scheme_two": False},
            "any_dynamic": True,
            "needs_scheme_two": False,
            "comparable_distributions": True,
        }


def _agreement_pairs():
    """A mixed batch: clones, static/dynamic realizations, and bugged pairs."""
    pairs = [
        (ghz_ladder(3), ghz_ladder(3)),
        (ghz_ladder(4), ghz_ladder(4)),
        (bernstein_vazirani_static("101"), bernstein_vazirani_dynamic("101")),
        (bernstein_vazirani_static("0110"), bernstein_vazirani_dynamic("0110")),
        (teleportation_static(), teleportation_dynamic()),
        (qft_static_benchmark(4), qft_dynamic(4)),
        (qpe_static(4), iterative_qpe(4)),
        (ghz_ladder(3), ghz_with_bug(3)),
        (bernstein_vazirani_static("101"), bernstein_vazirani_dynamic("111")),
    ]
    return pairs


class TestLineupAgreement:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_lineup_agrees_with_the_single_prover(self, executor):
        # Entry-for-entry the criterion the alternating checker reaches on
        # its own, on both executors: the lineup only decides who moves first.
        pairs = _agreement_pairs()
        batch = EquivalenceCheckingManager(
            seed=SEED, executor=executor, max_workers=2
        ).verify_batch(pairs)
        assert batch.num_pairs == len(pairs)
        for entry, (first, second) in zip(batch.entries, pairs):
            assert entry.error is None
            single = check_equivalence(first, second, method="alternating")
            assert entry.result.criterion is single.criterion, entry.index

    def test_process_workers_replay_parent_schedules(self):
        pairs = _agreement_pairs()
        thread = EquivalenceCheckingManager(
            seed=SEED, executor="thread", max_workers=2
        ).verify_batch(pairs)
        process = EquivalenceCheckingManager(
            seed=SEED, executor="process", max_workers=2
        ).verify_batch(pairs)
        for thread_entry, process_entry in zip(thread.entries, process.entries):
            assert process_entry.result.schedule == thread_entry.result.schedule
            assert process_entry.result.criterion is thread_entry.result.criterion
            assert process_entry.result.decided_by == thread_entry.result.decided_by


class _NeverDecides(Checker):
    """Third-party-style checker used to exercise the registry."""

    name = "never-decides"
    role = "falsifier"

    def steps(self, first, second, configuration):
        return CheckerOutcome(EquivalenceCriterion.NO_INFORMATION, {"custom": True})
        yield  # a step generator that decides in its first step


class TestCheckerRegistry:
    def test_third_party_checker_plugs_in_by_name(self):
        register_checker(_NeverDecides)
        try:
            # Two falsifiers keep their configured order, so it runs first.
            config = Configuration(portfolio=("never-decides", "simulation"), seed=SEED)
            result = EquivalenceCheckingManager(config).run(
                ghz_ladder(3), ghz_ladder(3)
            )
            assert result.schedule == ["never-decides", "simulation"]
            assert result.criterion is EquivalenceCriterion.PROBABLY_EQUIVALENT
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
        register_checker(_NeverDecides)
        try:
            Configuration(portfolio=("alternating", "never-decides"))  # now valid
        finally:
            unregister_checker("never-decides")

    @pytest.mark.parametrize("scheduler", ["magic", "static"])
    def test_scheduler_admits_only_the_one_lineup(self, scheduler):
        assert Configuration().scheduler == "adaptive"
        with pytest.raises(ConfigurationError):
            Configuration(scheduler=scheduler)

    def test_distribution_is_a_first_class_method(self):
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
        # ever started.  Both checkers take one step per gate, so both must
        # honour the budget.
        started = []
        original = threading.Thread.start

        def recording_start(thread):
            started.append(thread.name)
            return original(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        manager = EquivalenceCheckingManager(
            portfolio=(checker,), checker_timeout=0.005, seed=SEED
        )
        # The QFT and an unrelated random circuit share no gate, so every gate
        # is multiplied (an equivalent pair cancels all of them and an rz
        # mutant stops where only identical pairs remain, both within the
        # budget).
        result = manager.run(qft_static_benchmark(8), random_static_circuit(8, 8, seed=15))
        assert result.attempts[0].status == "timeout"
        assert not [name for name in started if name.startswith("checker-")]
        assert not [t for t in threading.enumerate() if t.name.startswith("checker-")]
