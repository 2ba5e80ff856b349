"""The interleaved portfolio: checkers stepped in one thread by least cost.

Covers verdict agreement with every single checker, a deterministic schedule
(repeat runs and both batch executors), the sim-first behaviour on Table-1
pairs and mutants, budgets without checker threads, and third-party checkers
that only implement ``check``.
"""

import random
import threading
import time

import numpy as np
import pytest

from repro.algorithms import (
    bernstein_vazirani_dynamic,
    bernstein_vazirani_static,
    ghz_ladder,
    iterative_qpe,
    qft_dynamic,
    qft_static_benchmark,
    qpe_static,
)
from repro.circuit.random_circuits import random_static_circuit
from repro.core import (
    Configuration,
    EquivalenceCheckingManager,
    EquivalenceCriterion,
    check_equivalence,
)
from repro.core.checkers import Checker, CheckerOutcome, register, unregister
from repro.obs import trace

SEED = 42
SINGLE_CHECKERS = ("simulation", "alternating", "construction")


def _table1_pair(family: str, n: int):
    if family == "qft":
        return qft_static_benchmark(n), qft_dynamic(n)
    if family == "qpe":
        return qpe_static(n), iterative_qpe(n)
    hidden = "101101"[:n]
    return bernstein_vazirani_static(hidden), bernstein_vazirani_dynamic(hidden)


def _with_rz(circuit, seed: int):
    """``circuit`` with a seeded ``rz`` before its first measurement."""
    rng = random.Random(seed)
    theta = rng.uniform(np.pi / 4, 7 * np.pi / 4)
    qubit = rng.randrange(circuit.num_qubits)
    data = list(circuit)
    first_measure = next(
        (i for i, inst in enumerate(data) if inst.is_measurement and qubit in inst.qubits),
        len(data),
    )
    position = rng.randint(0, first_measure)
    result = circuit.copy_empty()
    for index, instruction in enumerate(data):
        if index == position:
            result.rz(theta, qubit)
        result.append_instruction(instruction)
    if position == len(data):
        result.rz(theta, qubit)
    return result


TABLE1_CASES = [
    (family, n, equivalent)
    for family in ("qft", "qpe", "bv")
    for n in (3, 5, 6)
    for equivalent in (True, False)
]


def _case_pair(family, n, equivalent):
    static, dynamic = _table1_pair(family, n)
    if not equivalent:
        static = _with_rz(static, seed=n * 7 + len(family))
    return static, dynamic


def _scheduler_families():
    """The three pair families of ``benchmarks/bench_scheduler.py`` (quick sizes)."""
    return {
        "table1_qft": [(qft_static_benchmark(n), qft_dynamic(n)) for n in (4, 6)],
        "clone_batch": [
            (ghz_ladder(3 + index % 3), ghz_ladder(3 + index % 3)) for index in range(3)
        ]
        + [(qft_static_benchmark(4), qft_static_benchmark(4))],
        "falsification_batch": [
            (qft_static_benchmark(n), random_static_circuit(n, depth=n, seed=7 + n))
            for n in (5, 6)
        ],
    }


LINEUPS = [
    (("simulation", "alternating"), "static"),
    (("alternating", "simulation"), "static"),
    (("simulation", "alternating"), "adaptive"),
]


def _statuses(result):
    return [(attempt.method, attempt.status) for attempt in result.attempts]


class TestVerdictAgreement:
    @pytest.mark.parametrize("family,n,equivalent", TABLE1_CASES)
    def test_portfolio_agrees_with_every_single_checker(self, family, n, equivalent):
        first, second = _case_pair(family, n, equivalent)
        combined = EquivalenceCheckingManager(
            seed=SEED, portfolio=SINGLE_CHECKERS
        ).run(first, second)
        assert combined.decided_by is not None
        assert combined.equivalent is equivalent
        for method in SINGLE_CHECKERS:
            single = check_equivalence(first, second, method=method, seed=SEED)
            assert single.equivalent is equivalent, method

    @pytest.mark.parametrize("family", ["table1_qft", "clone_batch", "falsification_batch"])
    def test_every_lineup_agrees_on_the_scheduler_families(self, family):
        for first, second in _scheduler_families()[family]:
            verdicts = set()
            for portfolio, scheduler in LINEUPS:
                result = EquivalenceCheckingManager(
                    seed=SEED, portfolio=portfolio, scheduler=scheduler
                ).run(first, second)
                verdicts.add(result.criterion)
            assert len(verdicts) == 1
            (verdict,) = verdicts
            for method in ("alternating", "construction"):
                single = check_equivalence(first, second, method=method, seed=SEED)
                assert single.criterion.considered_equivalent is verdict.considered_equivalent


def _shape(node: dict):
    attrs = node.get("attrs") or {}
    children = sorted(_shape(child) for child in node["children"])
    return (node["name"], attrs.get("checker"), attrs.get("turn"), attrs.get("status"), children)


def _traced_batch(executor: str, pairs):
    manager = EquivalenceCheckingManager(
        Configuration(executor=executor, max_workers=2, seed=SEED, verdict_cache=False)
    )
    tracer = trace.Tracer()
    with trace.activate(tracer):
        batch = manager.verify_batch(pairs)
    outcomes = [
        (entry.result.criterion, entry.result.decided_by, _statuses(entry.result))
        for entry in batch.entries
    ]
    return outcomes, sorted(_shape(node) for node in trace.span_tree(tracer.export()))


class TestDeterministicSchedule:
    def test_repeated_runs_schedule_identically(self):
        pairs = [_case_pair("qft", 5, True), _case_pair("qpe", 5, False)]
        manager = EquivalenceCheckingManager(seed=SEED, verdict_cache=False)
        runs = []
        for _ in range(3):
            tracer = trace.Tracer()
            with trace.activate(tracer):
                results = [manager.run(first, second) for first, second in pairs]
            runs.append(
                (
                    [(r.criterion, r.decided_by, _statuses(r)) for r in results],
                    sorted(_shape(node) for node in trace.span_tree(tracer.export())),
                )
            )
        assert runs[0] == runs[1] == runs[2]

    def test_thread_and_process_executors_schedule_identically(self):
        pairs = [
            _case_pair("qft", 4, True),
            _case_pair("bv", 4, False),
            (ghz_ladder(3), ghz_ladder(3)),
        ]
        thread_outcomes, thread_shape = _traced_batch("thread", pairs)
        process_outcomes, process_shape = _traced_batch("process", pairs)
        assert thread_outcomes == process_outcomes
        assert thread_shape == process_shape
        names = [name for name, *_ in _flatten(thread_shape)]
        assert "checker.run" in names

    def test_checker_runs_are_traced_per_turn(self):
        tracer = trace.Tracer()
        with trace.activate(tracer):
            result = EquivalenceCheckingManager(seed=SEED).run(*_case_pair("qft", 4, True))
        turns = [
            (span["attrs"]["checker"], span["attrs"]["turn"])
            for span in tracer.export()
            if span["name"] == "checker.run"
        ]
        # Simulation's first stimulus, then the prover catches up and proves.
        assert turns == [("simulation", 0), ("alternating", 0)]
        assert result.decided_by == "alternating"


def _flatten(shapes):
    for name, checker, turn, status, children in shapes:
        yield name, checker, turn, status
        yield from _flatten(children)


class TestSimFirstLineup:
    @pytest.mark.parametrize("family", ["qft", "qpe", "bv"])
    def test_mutant_is_refuted_by_simulation_before_the_prover_starts(self, family):
        result = EquivalenceCheckingManager(seed=SEED).run(*_case_pair(family, 5, False))
        assert result.criterion is EquivalenceCriterion.NOT_EQUIVALENT
        assert result.decided_by == "simulation"
        assert _statuses(result) == [("simulation", "completed"), ("alternating", "skipped")]
        assert result.attempts[0].result.details["failed_run"] == 0

    @pytest.mark.parametrize("family", ["qft", "qpe", "bv"])
    def test_equivalent_pair_is_proved_with_simulation_preempted(self, family):
        result = EquivalenceCheckingManager(seed=SEED).run(*_case_pair(family, 5, True))
        assert result.criterion.considered_equivalent
        assert result.decided_by == "alternating"
        assert _statuses(result) == [("simulation", "preempted"), ("alternating", "completed")]
        simulation = result.attempts[0]
        assert simulation.result is None and simulation.time_taken > 0


class _RecordingThreads:
    """Records the name of every thread started while installed."""

    def __init__(self, monkeypatch):
        self.names = []
        original = threading.Thread.start
        recorder = self

        def start(thread):
            recorder.names.append(thread.name)
            return original(thread)

        monkeypatch.setattr(threading.Thread, "start", start)


class TestBudgetsWithoutThreads:
    @pytest.mark.parametrize("checker", ["alternating", "construction", "simulation"])
    def test_checker_timeout_times_out_on_the_calling_thread(self, monkeypatch, checker):
        threads = _RecordingThreads(monkeypatch)
        manager = EquivalenceCheckingManager(
            portfolio=(checker,), checker_timeout=0.005, seed=SEED, num_simulations=10_000
        )
        result = manager.run(qft_static_benchmark(12), qft_dynamic(12))
        assert result.attempts[0].status == "timeout"
        assert "budget" in result.attempts[0].error
        assert result.criterion is EquivalenceCriterion.NO_INFORMATION
        assert threads.names == []

    def test_overall_timeout_times_out_started_and_skips_the_rest(self, monkeypatch):
        threads = _RecordingThreads(monkeypatch)
        # The construction checker's single step cannot build a 14-qubit
        # QFT unitary before the deadline, so its interrupt probe fires.
        manager = EquivalenceCheckingManager(
            portfolio=("alternating", "construction", "simulation"),
            timeout=0.05,
            seed=SEED,
        )
        result = manager.run(qft_static_benchmark(14), qft_dynamic(14))
        statuses = {status for _, status in _statuses(result)}
        assert statuses <= {"timeout", "skipped"}
        assert "timeout" in statuses
        assert result.decided_by is None
        assert "overall timeout" in result.reason
        assert threads.names == []

    def test_budget_bounds_active_time_not_wall_time(self):
        # Each checker's budget counts only its own turns: both interleaved
        # checkers get their full budget although the run's wall time passes
        # each budget long before either has used its own.
        manager = EquivalenceCheckingManager(
            portfolio=("simulation", "alternating"),
            checker_timeout=0.005,
            seed=SEED,
            num_simulations=10_000,
        )
        result = manager.run(qft_static_benchmark(14), qft_dynamic(14))
        assert _statuses(result) == [("simulation", "timeout"), ("alternating", "timeout")]
        for attempt in result.attempts:
            assert attempt.time_taken >= 0.005
        assert result.total_time >= sum(a.time_taken for a in result.attempts)


class _PatientChecker(Checker):
    """A check-only checker that waits until interrupted (or a cap passes)."""

    name = "patient-test"
    role = "prover"
    calls = []

    def check(self, first, second, configuration, *, interrupt=None):
        type(self).calls.append(interrupt is not None)
        deadline = time.perf_counter() + 2.0
        while interrupt is not None and time.perf_counter() < deadline:
            self.check_interrupt(interrupt)
            time.sleep(0.001)
        return CheckerOutcome(EquivalenceCriterion.EQUIVALENT, {"waited": True})


@pytest.fixture
def patient_checker():
    _PatientChecker.calls = []
    register(_PatientChecker)
    try:
        yield _PatientChecker
    finally:
        unregister(_PatientChecker.name)


class TestCheckOnlyCheckers:
    def test_runs_as_one_step(self, patient_checker):
        manager = EquivalenceCheckingManager(
            portfolio=(patient_checker.name, "alternating"), seed=SEED
        )
        result = manager.run(ghz_ladder(3), ghz_ladder(3))
        assert result.decided_by == patient_checker.name
        assert _statuses(result) == [
            (patient_checker.name, "completed"),
            ("alternating", "skipped"),
        ]
        assert patient_checker.calls == [False]

    def test_honours_its_budget_through_interrupt(self, patient_checker):
        manager = EquivalenceCheckingManager(
            portfolio=(patient_checker.name,), checker_timeout=0.02, seed=SEED
        )
        result = manager.run(ghz_ladder(3), ghz_ladder(3))
        (attempt,) = result.attempts
        assert attempt.status == "timeout"
        assert 0.02 <= attempt.time_taken < 1.0
        assert patient_checker.calls == [True]


class _Stepper(Checker):
    """Yields a fixed cost sequence, logging each step; never decides."""

    costs: tuple[int, ...] = ()
    log: list = []

    def check(self, first, second, configuration, *, interrupt=None):
        return self.drain(self.steps(first, second, configuration), interrupt)

    def steps(self, first, second, configuration, *, interrupt=None):
        for index, cost in enumerate(self.costs):
            _Stepper.log.append(self.name)
            if index < len(self.costs) - 1:
                yield cost
        return CheckerOutcome(EquivalenceCriterion.NO_INFORMATION)


@pytest.fixture
def steppers():
    coarse = type("Coarse", (_Stepper,), {"name": "coarse-test", "costs": (4, 4, 4)})
    fine = type("Fine", (_Stepper,), {"name": "fine-test", "costs": (1,) * 10})
    _Stepper.log = []
    register(coarse)
    register(fine)
    try:
        yield
    finally:
        unregister("coarse-test")
        unregister("fine-test")


class TestTurnOrder:
    def test_least_cost_runs_and_ties_go_to_lineup_position(self, steppers):
        manager = EquivalenceCheckingManager(portfolio=("coarse-test", "fine-test"))
        result = manager.run(ghz_ladder(2), ghz_ladder(2))
        # Both at 0: the tie goes to coarse, which reaches 4.  Fine steps to 4,
        # where the tie hands the turn back; coarse reaches 8, fine catches
        # up to 8, coarse finishes, and fine finishes its last two steps alone.
        assert _Stepper.log == (
            ["coarse-test"] + ["fine-test"] * 4
            + ["coarse-test"] + ["fine-test"] * 4
            + ["coarse-test"] + ["fine-test"] * 2
        )
        assert result.criterion is EquivalenceCriterion.NO_INFORMATION
        assert _statuses(result) == [("coarse-test", "completed"), ("fine-test", "completed")]
