"""The interleaved portfolio: checkers stepped in one thread by least cost.

Covers verdict agreement with every single checker and every portfolio
order, a deterministic schedule (repeat runs and both batch executors), the
prover-first lineup on Table-1 pairs and mutants, budgets checked between
the steps of every checker without checker threads, and third-party step
generators.
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
from repro.circuit import QuantumCircuit
from repro.circuit.random_circuits import random_static_circuit
from repro.compilation.basis import decompose_to_cx_and_single_qubit, rewrite_single_qubit_to_u
from repro.core import (
    Configuration,
    EquivalenceCheckingManager,
    EquivalenceCriterion,
    check_equivalence,
)
from repro.core.checkers import Checker, CheckerOutcome, register, unregister
from repro.core.equivalence import EquivalenceChecker
from repro.core.transformation import to_unitary_circuit
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


def _lineup_families():
    """Table-1 QFT pairs, clone pairs and unrelated pairs (falsifier's home turf)."""
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


PORTFOLIO_ORDERS = [("simulation", "alternating"), ("alternating", "simulation")]


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
    def test_every_portfolio_order_agrees_on_the_lineup_families(self, family):
        for first, second in _lineup_families()[family]:
            verdicts = set()
            for portfolio in PORTFOLIO_ORDERS:
                result = EquivalenceCheckingManager(seed=SEED, portfolio=portfolio).run(
                    first, second
                )
                verdicts.add(result.criterion)
            assert len(verdicts) == 1
            (verdict,) = verdicts
            for method in ("alternating", "construction"):
                single = check_equivalence(first, second, method=method, seed=SEED)
                assert single.criterion.considered_equivalent is verdict.considered_equivalent

    @pytest.mark.parametrize("family", ["table1_qft", "clone_batch"])
    def test_prover_decides_equivalent_families_before_the_falsifier_starts(self, family):
        # The prover cancels every matched pair at cost 0 and decides inside
        # its first turn, whichever order the portfolio is configured in.
        for first, second in _lineup_families()[family]:
            for portfolio in PORTFOLIO_ORDERS:
                result = EquivalenceCheckingManager(seed=SEED, portfolio=portfolio).run(
                    first, second
                )
                assert result.criterion.considered_equivalent
                assert result.decided_by == "alternating"
                assert _statuses(result) == [
                    ("alternating", "completed"),
                    ("simulation", "skipped"),
                ]


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
            result = EquivalenceCheckingManager(seed=SEED).run(*_case_pair("qft", 5, False))
        turns = [
            (span["attrs"]["checker"], span["attrs"]["turn"])
            for span in tracer.export()
            if span["name"] == "checker.run"
        ]
        # The prover moves first; the two then trade turns by DD work until
        # the prover refutes the mutant.
        assert turns[:3] == [("alternating", 0), ("simulation", 0), ("alternating", 1)]
        assert turns[-1][0] == "alternating"
        for checker in ("alternating", "simulation"):
            numbers = [turn for name, turn in turns if name == checker]
            assert numbers == list(range(len(numbers)))
        assert result.decided_by == "alternating"


def _flatten(shapes):
    for name, checker, turn, status, children in shapes:
        yield name, checker, turn, status
        yield from _flatten(children)


def _scrambled_mutant(num_qubits: int = 4, seed: int = 0):
    """A deep random circuit vs the same circuit between ``rz(1)`` and ``rz(-1)``.

    The difference comes first and the circuit scrambles it, so the
    alternating product grows into a large matrix DD while a product
    stimulus only ever fills a vector: the falsifier needs less DD work.
    The trailing ``rz`` is the walk's last item and has no partner, so the
    prover has no settled suffix to stop at.
    """
    circuit = random_static_circuit(num_qubits, 20, seed=seed)
    mutant = circuit.copy_empty()
    mutant.rz(1.0, 0)
    for instruction in circuit:
        mutant.append_instruction(instruction)
    mutant.rz(-1.0, 0)
    return circuit, mutant


class TestProverFirstLineup:
    @pytest.mark.parametrize("family", ["qft", "qpe", "bv"])
    def test_mutant_is_refuted_by_the_falsifiers_first_stimulus_on_dense(self, family):
        # On the dense backend a simulation step is a whole stimulus: the
        # prover's first gate hands the falsifier its turn, and that single
        # step refutes the mutant.
        result = EquivalenceCheckingManager(seed=SEED, backend="dense").run(
            *_case_pair(family, 5, False)
        )
        assert result.criterion is EquivalenceCriterion.NOT_EQUIVALENT
        assert result.decided_by == "simulation"
        assert _statuses(result) == [("alternating", "preempted"), ("simulation", "completed")]
        assert result.attempts[1].result.details["failed_run"] == 0

    def test_scrambled_mutant_is_refuted_by_simulation_on_dd(self):
        # On the DD backend turns are charged by DD work, one gate per step:
        # the prover moves first, its product outgrows the stimulus and the
        # falsifier outruns it.
        result = EquivalenceCheckingManager(seed=SEED).run(*_scrambled_mutant())
        assert result.criterion is EquivalenceCriterion.NOT_EQUIVALENT
        assert result.decided_by == "simulation"
        assert _statuses(result) == [("alternating", "preempted"), ("simulation", "completed")]
        assert result.attempts[1].result.details["failed_run"] == 0

    @pytest.mark.parametrize(
        "family, falsifier",
        [("qft", "preempted"), ("qpe", "skipped"), ("bv", "skipped")],
    )
    def test_table1_mutant_is_decided_by_the_cheaper_prover_on_dd(self, family, falsifier):
        # A Table-1 product stays small, so the prover's DD work stays below
        # one stimulus's: it refutes the mutant with the falsifier preempted
        # (or, where the prover needs one turn, never started).
        result = EquivalenceCheckingManager(seed=SEED).run(*_case_pair(family, 5, False))
        assert result.criterion is EquivalenceCriterion.NOT_EQUIVALENT
        assert result.decided_by == "alternating"
        assert _statuses(result) == [("alternating", "completed"), ("simulation", falsifier)]

    @pytest.mark.parametrize("family", ["qft", "qpe", "bv"])
    def test_equivalent_pair_is_proved_with_simulation_skipped(self, family):
        result = EquivalenceCheckingManager(seed=SEED).run(*_case_pair(family, 5, True))
        assert result.criterion.considered_equivalent
        assert result.decided_by == "alternating"
        assert _statuses(result) == [("alternating", "completed"), ("simulation", "skipped")]
        simulation = result.attempts[1]
        assert simulation.result is None and simulation.time_taken == 0


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


def _translated_qft_pair(n: int):
    """Static QFT in the ``u``/``cx`` basis vs the reconstructed dynamic QFT."""
    static = rewrite_single_qubit_to_u(decompose_to_cx_and_single_qubit(qft_static_benchmark(n)))
    return static, qft_dynamic(n)


def _reversed_cx_qft_pair(n: int):
    """The static QFT in the ``cx`` basis, every CNOT reversed, vs the dynamic QFT.

    ``cx(a, b) == h(a) h(b) cx(b, a) h(a) h(b)``.  Equivalent, so no
    falsifier decides it.  The reversed CNOTs and the Hadamards merged into
    the single-qubit runs leave the two sides almost no common canonical
    gate, so the alternating check builds and multiplies nearly every gate:
    slow enough to outrun a budget, unlike the translated pair, which it
    matches and cancels pair by pair.
    """
    basis = decompose_to_cx_and_single_qubit(qft_static_benchmark(n))
    static = basis.copy_empty()
    for instruction in basis:
        if instruction.operation.name == "cx":
            control, target = instruction.qubits
            static.h(control)
            static.h(target)
            static.cx(target, control)
            static.h(control)
            static.h(target)
        else:
            static.append_instruction(instruction)
    return static, qft_dynamic(n)


def _unreconstructible_branching_circuit(measurements: int) -> QuantumCircuit:
    """Two qubits measured ``measurements`` times, each reset on its own outcome.

    A reset conditioned on its own qubit's measurement has no Scheme-1
    rebuild, and every measurement doubles the live branches of the
    distribution extraction.
    """
    circuit = QuantumCircuit(2, measurements)
    for clbit in range(measurements):
        qubit = clbit % 2
        circuit.h(qubit)
        circuit.ry(0.3 * (clbit + 1), qubit)
        circuit.measure(qubit, clbit)
        circuit.reset(qubit, condition=(clbit, 1))
    return circuit


class TestTranslatedPair:
    @pytest.mark.parametrize("n", [8, 16])
    def test_prover_cancels_it_before_the_falsifier_starts(self, n):
        # Canonical matching cancels every pair of the translated QFT, so
        # the prover decides inside its first turn.
        result = EquivalenceCheckingManager(seed=SEED).run(*_translated_qft_pair(n))
        assert result.criterion is EquivalenceCriterion.EQUIVALENT
        assert _statuses(result) == [("alternating", "completed"), ("simulation", "skipped")]
        assert result.attempts[0].result.details["cancelled_pairs"] > 0


class TestBudgetsWithoutThreads:
    @pytest.mark.parametrize("checker", ["alternating", "construction", "simulation"])
    def test_checker_timeout_times_out_on_the_calling_thread(self, monkeypatch, checker):
        threads = _RecordingThreads(monkeypatch)
        manager = EquivalenceCheckingManager(
            portfolio=(checker,), checker_timeout=0.005, seed=SEED, num_simulations=10_000
        )
        result = manager.run(*_reversed_cx_qft_pair(12))
        assert result.attempts[0].status == "timeout"
        assert "budget" in result.attempts[0].error
        assert result.criterion is EquivalenceCriterion.NO_INFORMATION
        assert threads.names == []

    @pytest.mark.parametrize("backend", ["dd", "dense"])
    @pytest.mark.parametrize("checker", ["alternating", "construction", "simulation", "distribution"])
    def test_every_checker_stops_within_its_budget_plus_one_step(self, checker, backend):
        # Budgets are checked only between steps, so every built-in checker
        # must take many short steps on a pair it needs long for: a checker
        # that ran as one step would end "completed", or time out only long
        # after its budget.
        budget = 0.05
        if checker == "distribution":
            first = _unreconstructible_branching_circuit(14)
            pair = (first, first.copy())
        else:
            first, second = _reversed_cx_qft_pair(12 if backend == "dd" else 8)
            pair = (first, to_unitary_circuit(second).circuit)
        configuration = Configuration(
            method=checker, backend=backend, seed=SEED, num_simulations=10_000
        )
        # The longest step taken in three budgets' worth of the same steps.
        steps = EquivalenceChecker(configuration).steps(*pair)
        longest = spent = 0.0
        while spent < 3 * budget:
            started = time.perf_counter()
            next(steps)
            took = time.perf_counter() - started
            longest, spent = max(longest, took), spent + took
        steps.close()
        manager = EquivalenceCheckingManager(
            configuration.updated(portfolio=(checker,), checker_timeout=budget)
        )
        (attempt,) = manager.run(*pair).attempts
        assert attempt.status == "timeout"
        assert budget <= attempt.time_taken < budget + 2 * longest + 0.02

    def test_thread_executor_runs_a_batch_on_the_calling_thread(self, monkeypatch):
        threads = _RecordingThreads(monkeypatch)
        pairs = [_case_pair("qft", 4, True), _case_pair("bv", 4, False)]
        batch = EquivalenceCheckingManager(
            seed=SEED, executor="thread", max_workers=4
        ).verify_batch(pairs)
        assert [entry.result.equivalent for entry in batch.entries] == [True, False]
        assert threads.names == []

    def test_overall_timeout_times_out_started_and_skips_the_rest(
        self, monkeypatch, deadline_stepper
    ):
        threads = _RecordingThreads(monkeypatch)
        # The stub's first step lasts until the run's deadline has passed, on
        # a static pair that needs no Scheme-1 rebuild, so the first turn
        # always starts in time and always ends past the deadline.
        manager = EquivalenceCheckingManager(
            portfolio=(deadline_stepper.name, "alternating", "simulation"),
            timeout=0.5,
            seed=SEED,
        )
        result = manager.run(ghz_ladder(3), ghz_ladder(3))
        assert _statuses(result) == [
            (deadline_stepper.name, "timeout"),
            ("alternating", "skipped"),
            ("simulation", "skipped"),
        ]
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
        result = manager.run(*_reversed_cx_qft_pair(14))
        assert _statuses(result) == [("alternating", "timeout"), ("simulation", "timeout")]
        for attempt in result.attempts:
            assert attempt.time_taken >= 0.005
        assert result.total_time >= sum(a.time_taken for a in result.attempts)


class _DeadlineStepper(Checker):
    """A prover whose first step sleeps past the run's overall deadline."""

    name = "deadline-test"

    def steps(self, first, second, configuration):
        time.sleep(configuration.timeout)
        yield 1
        return CheckerOutcome(EquivalenceCriterion.EQUIVALENT)


@pytest.fixture
def deadline_stepper():
    register(_DeadlineStepper)
    try:
        yield _DeadlineStepper
    finally:
        unregister(_DeadlineStepper.name)


class _Stepper(Checker):
    """Yields a fixed cost sequence, logging each step; never decides."""

    costs: tuple[int, ...] = ()
    log: list = []

    def steps(self, first, second, configuration):
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
