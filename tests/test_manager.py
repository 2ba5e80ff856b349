"""Tests for the portfolio verification manager."""

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
    Configuration,
    EquivalenceCheckingManager,
    EquivalenceCriterion,
    check_equivalence,
    verify_batch,
    verify_portfolio,
)
from repro.core import chunk_pairs
from repro.core.manager import DEFAULT_PORTFOLIO
from repro.core.results import EquivalenceCheckResult
from repro.exceptions import EquivalenceCheckingError

SEED = 1234


def _ghz_pair():
    """Two builds of the *same* ladder circuit (unitarily equivalent)."""
    return ghz_ladder(4), ghz_ladder(4)


def _seed_pairs():
    """The seed algorithm pairs named by the issue: GHZ, teleportation, dynamic BV."""
    return [
        _ghz_pair(),
        (teleportation_static(), teleportation_dynamic()),
        (bernstein_vazirani_static("1011"), bernstein_vazirani_dynamic("1011")),
    ]


class TestConfiguration:
    def test_unknown_portfolio_checker_rejected(self):
        with pytest.raises(EquivalenceCheckingError):
            Configuration(portfolio=("alternating", "magic"))

    def test_empty_portfolio_rejected(self):
        with pytest.raises(EquivalenceCheckingError):
            Configuration(portfolio=())

    def test_duplicate_portfolio_rejected(self):
        with pytest.raises(EquivalenceCheckingError):
            Configuration(portfolio=("simulation", "simulation"))

    def test_portfolio_normalized_to_tuple(self):
        configuration = Configuration(portfolio=["simulation", "construction"])
        assert configuration.portfolio == ("simulation", "construction")

    def test_non_positive_timeouts_rejected(self):
        with pytest.raises(EquivalenceCheckingError):
            Configuration(timeout=0.0)
        with pytest.raises(EquivalenceCheckingError):
            Configuration(checker_timeout=-1.0)

    def test_max_workers_validated(self):
        with pytest.raises(EquivalenceCheckingError):
            Configuration(max_workers=0)

    def test_default_portfolio(self):
        manager = EquivalenceCheckingManager()
        assert manager.portfolio == DEFAULT_PORTFOLIO
        assert manager.portfolio[0] == "simulation"


class TestEarlyTermination:
    def test_falsifier_decides_non_equivalent_pairs(self):
        manager = EquivalenceCheckingManager(seed=SEED)
        result = manager.run(ghz_ladder(4), ghz_with_bug(4))
        assert result.criterion is EquivalenceCriterion.NOT_EQUIVALENT
        assert result.decided_by == "simulation"
        statuses = {attempt.method: attempt.status for attempt in result.attempts}
        assert statuses["simulation"] == "completed"
        assert statuses["alternating"] == "skipped"

    def test_prover_decides_equivalent_pairs(self):
        manager = EquivalenceCheckingManager(seed=SEED)
        result = manager.run(*_ghz_pair())
        # Simulation alone cannot prove equivalence; the alternating checker
        # must deliver the definitive verdict.
        assert result.decided_by == "alternating"
        assert result.criterion is EquivalenceCriterion.EQUIVALENT
        # The interleaved portfolio gives simulation its first stimulus, then
        # the alternating checker catches up and proves before the falsifier
        # runs out of stimuli: simulation is preempted, without a result.
        simulation = result.attempts[0]
        assert simulation.method == "simulation"
        assert simulation.status == "preempted"
        assert simulation.result is None
        assert simulation.time_taken > 0

    def test_simulation_only_portfolio_stays_indicative(self):
        manager = EquivalenceCheckingManager(seed=SEED, portfolio=("simulation",))
        result = manager.run(*_ghz_pair())
        assert result.criterion is EquivalenceCriterion.PROBABLY_EQUIVALENT
        assert result.decided_by is None
        assert "indicative" in result.reason

    def test_result_property_returns_decider_result(self):
        manager = EquivalenceCheckingManager(seed=SEED)
        result = manager.run(*_ghz_pair())
        assert result.result is not None
        assert result.result.method == result.decided_by

    def test_checker_error_is_isolated(self):
        # Dynamic circuits with transformation disabled make every functional
        # checker raise; the portfolio must record the errors, not propagate.
        manager = EquivalenceCheckingManager(
            seed=SEED, transform_dynamic=False, portfolio=("alternating", "construction")
        )
        result = manager.run(teleportation_static(), teleportation_dynamic())
        assert result.criterion is EquivalenceCriterion.NO_INFORMATION
        assert all(attempt.status == "error" for attempt in result.attempts)
        assert result.decided_by is None


class TestIndicativeFallback:
    def _stub_checker(self, manager, criteria_by_method):
        # Each attempt is a generator of steps; these stubs finish in one.
        def checker_steps(method, first, second, qubit_permutation, interrupt):
            return EquivalenceCheckResult(
                criterion=criteria_by_method[method], method=method
            )
            yield

        manager._checker_steps = checker_steps

    def test_later_probably_equivalent_beats_earlier_no_information(self):
        # Regression: the manager used to keep only the *first* indicative
        # criterion, so a NO_INFORMATION from an early checker shadowed a
        # later PROBABLY_EQUIVALENT, contradicting the "best indicative"
        # fallback promised by the docstring.
        manager = EquivalenceCheckingManager(
            seed=SEED, portfolio=("alternating", "simulation")
        )
        self._stub_checker(
            manager,
            {
                "alternating": EquivalenceCriterion.NO_INFORMATION,
                "simulation": EquivalenceCriterion.PROBABLY_EQUIVALENT,
            },
        )
        result = manager.run(*_ghz_pair())
        assert result.criterion is EquivalenceCriterion.PROBABLY_EQUIVALENT
        assert result.decided_by is None
        assert "simulation" in result.reason

    def test_earlier_probably_equivalent_not_downgraded(self):
        manager = EquivalenceCheckingManager(
            seed=SEED, portfolio=("simulation", "alternating")
        )
        self._stub_checker(
            manager,
            {
                "simulation": EquivalenceCriterion.PROBABLY_EQUIVALENT,
                "alternating": EquivalenceCriterion.NO_INFORMATION,
            },
        )
        result = manager.run(*_ghz_pair())
        assert result.criterion is EquivalenceCriterion.PROBABLY_EQUIVALENT
        assert "simulation" in result.reason


class TestPortfolioAgreement:
    @pytest.mark.parametrize("pair_index", range(3))
    def test_portfolio_agrees_with_every_single_method(self, pair_index):
        first, second = _seed_pairs()[pair_index]
        portfolio = ("simulation", "alternating", "construction")
        manager = EquivalenceCheckingManager(seed=SEED, portfolio=portfolio)
        combined = manager.run(first, second)
        for method in portfolio:
            single = check_equivalence(first, second, method=method, seed=SEED)
            assert single.equivalent == combined.equivalent, method

    def test_portfolio_agrees_on_non_equivalent_seed_pair(self):
        first = bernstein_vazirani_static("1011")
        second = bernstein_vazirani_dynamic("1111")
        manager = EquivalenceCheckingManager(seed=SEED)
        combined = manager.run(first, second)
        assert not combined.equivalent
        for method in DEFAULT_PORTFOLIO:
            assert not check_equivalence(first, second, method=method, seed=SEED).equivalent


class TestTimeouts:
    def test_checker_timeout_moves_on(self):
        manager = EquivalenceCheckingManager(
            portfolio=("alternating",), checker_timeout=0.002, seed=SEED
        )
        result = manager.run(qft_static_benchmark(12), qft_dynamic(12))
        assert result.attempts[0].status == "timeout"
        assert result.criterion is EquivalenceCriterion.NO_INFORMATION

    def test_overall_timeout_skips_remaining_checkers(self):
        manager = EquivalenceCheckingManager(
            portfolio=("alternating", "construction"), timeout=0.002, seed=SEED
        )
        result = manager.run(qft_static_benchmark(12), qft_dynamic(12))
        statuses = [attempt.status for attempt in result.attempts]
        assert "skipped" in statuses or statuses == ["timeout", "timeout"]
        assert "timeout" in result.reason or result.decided_by is None


class TestBatch:
    def test_batch_preserves_input_order(self):
        pairs = []
        for index in range(6):
            first = ghz_ladder(2 + index % 3)
            first.name = f"first-{index}"
            second = ghz_ladder(2 + index % 3)
            second.name = f"second-{index}"
            pairs.append((first, second))
        batch = EquivalenceCheckingManager(seed=SEED, max_workers=3).verify_batch(pairs)
        assert [entry.index for entry in batch.entries] == list(range(6))
        assert [entry.name_first for entry in batch.entries] == [
            f"first-{i}" for i in range(6)
        ]
        assert batch.all_equivalent

    def test_batch_isolates_per_pair_failures(self):
        good = _ghz_pair()
        mismatched = (ghz_ladder(2), ghz_ladder(3))  # different qubit counts
        batch = EquivalenceCheckingManager(seed=SEED).verify_batch(
            [good, mismatched, good]
        )
        assert batch.num_pairs == 3
        assert batch.entries[0].equivalent
        assert batch.entries[2].equivalent
        middle = batch.entries[1]
        assert not middle.equivalent
        assert middle.result.criterion is EquivalenceCriterion.NO_INFORMATION
        assert all(attempt.status == "error" for attempt in middle.result.attempts)
        # Undecided pairs count as failed, not as a non-equivalence finding.
        assert batch.num_failed == 1
        assert batch.num_not_equivalent == 0

    def test_batch_records_unexpected_run_failures(self, monkeypatch):
        manager = EquivalenceCheckingManager(seed=SEED)

        def explode(first, second, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(manager, "run", explode)
        batch = manager.verify_batch([_ghz_pair()])
        entry = batch.entries[0]
        assert entry.result is None
        assert "boom" in entry.error
        assert batch.num_failed == 1

    def test_batch_verifies_twenty_pairs_concurrently_with_timings(self):
        pairs = []
        for index in range(10):
            pairs.append((ghz_ladder(2 + index % 4), ghz_ladder(2 + index % 4)))
        for bits in ("101", "110", "0110", "1011", "11"):
            pairs.append(
                (bernstein_vazirani_static(bits), bernstein_vazirani_dynamic(bits))
            )
        for theta in (0.3, 0.7, 1.1):
            pairs.append((teleportation_static(theta), teleportation_dynamic(theta)))
        pairs.append((ghz_ladder(3), ghz_with_bug(3)))
        pairs.append(
            (bernstein_vazirani_static("101"), bernstein_vazirani_dynamic("111"))
        )
        assert len(pairs) >= 20

        batch = EquivalenceCheckingManager(seed=SEED, max_workers=4).verify_batch(pairs)
        assert batch.num_pairs == len(pairs)
        assert batch.max_workers == 4
        assert batch.num_equivalent == len(pairs) - 2
        assert batch.num_not_equivalent == 2
        assert batch.num_failed == 0
        assert all(entry.time_taken > 0.0 for entry in batch.entries)
        assert batch.total_time > 0.0
        summary = batch.summary()
        assert summary["num_pairs"] == len(pairs)
        assert summary["max_pair_time"] >= summary["mean_pair_time"] > 0.0


def _mixed_batch_pairs():
    """A >=20-pair batch mixing equivalent, non-equivalent and dynamic pairs."""
    pairs = []
    for index in range(10):
        pairs.append((ghz_ladder(2 + index % 4), ghz_ladder(2 + index % 4)))
    for bits in ("101", "110", "0110", "1011", "11"):
        pairs.append((bernstein_vazirani_static(bits), bernstein_vazirani_dynamic(bits)))
    for theta in (0.3, 0.7, 1.1):
        pairs.append((teleportation_static(theta), teleportation_dynamic(theta)))
    pairs.append((ghz_ladder(3), ghz_with_bug(3)))
    pairs.append((bernstein_vazirani_static("101"), bernstein_vazirani_dynamic("111")))
    assert len(pairs) >= 20
    return pairs


class TestProcessExecutor:
    def test_chunk_pairs_shards_and_indexes(self):
        pairs = [(ghz_ladder(2), ghz_ladder(2)) for _ in range(5)]
        chunks = list(chunk_pairs(pairs, 2))
        assert [len(chunk) for chunk in chunks] == [2, 2, 1]
        assert [index for chunk in chunks for index, _, _ in chunk] == list(range(5))

    def test_chunk_pairs_rejects_bad_size(self):
        with pytest.raises(ValueError):
            list(chunk_pairs([], 0))

    def test_invalid_executor_rejected(self):
        with pytest.raises(EquivalenceCheckingError):
            Configuration(executor="greenlet")
        with pytest.raises(EquivalenceCheckingError):
            Configuration(batch_chunk_size=0)

    def test_process_batch_matches_thread_batch_on_mixed_pairs(self):
        # Acceptance criterion: entry-for-entry identical criteria between the
        # thread and process executors on a >=20-pair mixed batch.
        pairs = _mixed_batch_pairs()
        thread_batch = EquivalenceCheckingManager(
            seed=SEED, executor="thread", max_workers=4
        ).verify_batch(pairs)
        process_batch = EquivalenceCheckingManager(
            seed=SEED, executor="process", max_workers=4, batch_chunk_size=3
        ).verify_batch(pairs)
        assert process_batch.executor == "process"
        assert process_batch.num_pairs == thread_batch.num_pairs == len(pairs)
        for thread_entry, process_entry in zip(
            thread_batch.entries, process_batch.entries
        ):
            assert process_entry.index == thread_entry.index
            assert process_entry.name_first == thread_entry.name_first
            assert process_entry.error is None and thread_entry.error is None
            assert (
                process_entry.result.criterion is thread_entry.result.criterion
            ), process_entry.index
            assert (
                process_entry.result.decided_by == thread_entry.result.decided_by
            ), process_entry.index

    def test_process_batch_preserves_input_order_with_chunking(self):
        pairs = []
        for index in range(7):
            first = ghz_ladder(2 + index % 3)
            first.name = f"first-{index}"
            second = ghz_ladder(2 + index % 3)
            second.name = f"second-{index}"
            pairs.append((first, second))
        batch = EquivalenceCheckingManager(
            seed=SEED, executor="process", max_workers=2, batch_chunk_size=3
        ).verify_batch(pairs)
        assert [entry.index for entry in batch.entries] == list(range(7))
        assert [entry.name_first for entry in batch.entries] == [
            f"first-{i}" for i in range(7)
        ]
        assert batch.all_equivalent

    def test_process_batch_isolates_per_pair_failures(self):
        good = _ghz_pair()
        mismatched = (ghz_ladder(2), ghz_ladder(3))
        batch = EquivalenceCheckingManager(
            seed=SEED, executor="process", max_workers=2
        ).verify_batch([good, mismatched, good])
        assert batch.entries[0].equivalent
        assert batch.entries[2].equivalent
        middle = batch.entries[1]
        assert not middle.equivalent
        assert middle.result.criterion is EquivalenceCriterion.NO_INFORMATION
        assert batch.num_failed == 1

    def test_process_batch_isolates_unpicklable_pairs(self):
        from repro.circuit.gates import XGate

        class LocalGate(XGate):
            """Defined inside the test, hence unimportable and unpicklable."""

        good = _ghz_pair()
        poison_first = ghz_ladder(2)
        poison_first.append(LocalGate(), [0])
        batch = EquivalenceCheckingManager(
            seed=SEED, executor="process", max_workers=2
        ).verify_batch([good, (poison_first, ghz_ladder(2)), good])
        assert batch.entries[0].equivalent
        assert batch.entries[2].equivalent
        assert batch.entries[1].result is None
        assert batch.entries[1].error is not None
        assert batch.num_failed == 1


class TestConvenienceWrappers:
    def test_verify_portfolio(self):
        result = verify_portfolio(*_ghz_pair(), seed=SEED)
        assert result.equivalent

    def test_verify_batch(self):
        batch = verify_batch([_ghz_pair()], seed=SEED, max_workers=2)
        assert batch.all_equivalent
        assert batch.num_pairs == 1
