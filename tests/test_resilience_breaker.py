"""Circuit breakers, retry policy, and their manager integration (PR 8)."""

import random
import time

import pytest

from repro.algorithms import ghz_ladder, ghz_with_bug
from repro.core import Configuration, EquivalenceCheckingManager, EquivalenceCriterion
from repro.core.scheduler import Schedule, ScheduledChecker, deprioritize
from repro.resilience import (
    STATE_VALUES,
    BreakerBoard,
    CircuitBreaker,
    FaultPlan,
    FaultRule,
    RetryPolicy,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestCircuitBreaker:
    def test_starts_closed_and_allows(self):
        breaker = CircuitBreaker()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_trips_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, clock=FakeClock())
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_cooldown_admits_single_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown=10.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(10.0)
        assert breaker.state == "half_open"
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # only one probe while unresolved

    def test_successful_probe_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown=5.0, clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_failed_probe_reopens_for_another_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown=5.0, clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        clock.advance(5.0)
        assert breaker.allow()

    def test_rejections_are_counted(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown=100.0, clock=clock)
        breaker.record_failure()
        for _ in range(3):
            assert not breaker.allow()
        assert breaker.snapshot()["rejections"] == 3

    def test_snapshot_keys(self):
        snapshot = CircuitBreaker().snapshot()
        for key in (
            "state",
            "consecutive_failures",
            "failure_threshold",
            "cooldown",
            "failures",
            "successes",
            "opens",
            "closes",
            "probes",
            "rejections",
        ):
            assert key in snapshot
        assert snapshot["state"] in STATE_VALUES

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=0.0)


class TestBreakerBoard:
    def test_breakers_created_on_demand(self):
        board = BreakerBoard(failure_threshold=2)
        assert board.snapshot() == {}
        board.allow("simulation")
        assert "simulation" in board.snapshot()

    def test_record_and_quarantine(self):
        board = BreakerBoard(failure_threshold=2, cooldown=100.0, clock=FakeClock())
        board.record("simulation", False)
        assert board.quarantined() == ()
        board.record("simulation", False)
        assert board.quarantined() == ("simulation",)
        assert not board.allow("simulation")
        assert board.allow("alternating")

    def test_quarantine_clears_after_successful_probe(self):
        clock = FakeClock()
        board = BreakerBoard(failure_threshold=1, cooldown=5.0, clock=clock)
        board.record("simulation", False)
        assert board.quarantined() == ("simulation",)
        clock.advance(5.0)
        assert board.allow("simulation")
        board.record("simulation", True)
        assert board.quarantined() == ()


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=-1)
        with pytest.raises(ValueError):
            RetryPolicy(base=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(base=1.0, cap=0.5)

    def test_delays_are_deterministic_with_seeded_rng(self):
        a = RetryPolicy(base=0.1, cap=5.0, rng=random.Random(7))
        b = RetryPolicy(base=0.1, cap=5.0, rng=random.Random(7))
        assert [a.next_delay() for _ in range(5)] == [b.next_delay() for _ in range(5)]

    def test_delays_respect_base_and_cap(self):
        policy = RetryPolicy(base=0.1, cap=1.0, rng=random.Random(0))
        for _ in range(50):
            delay = policy.next_delay()
            assert 0.1 <= delay <= 1.0

    def test_retry_after_hint_takes_precedence_and_is_capped(self):
        policy = RetryPolicy(base=0.1, cap=2.0, rng=random.Random(0))
        assert policy.next_delay(retry_after=0.7) == 0.7
        assert policy.next_delay(retry_after=99.0) == 2.0

    def test_hint_advances_the_decorrelated_sequence(self):
        policy = RetryPolicy(base=0.001, cap=10.0, rng=random.Random(0))
        policy.next_delay(retry_after=3.0)
        # Next computed delay draws from [base, previous*3] with previous>=3.
        seen = max(policy.next_delay() for _ in range(20))
        assert seen > 0.5

    def test_backoff_sleeps_and_reset_restarts(self):
        slept = []
        policy = RetryPolicy(
            base=0.5, cap=0.5, rng=random.Random(0), sleep=slept.append
        )
        assert policy.backoff() == 0.5
        assert slept == [0.5]
        policy.reset()
        assert policy._previous == policy.base


class TestDeprioritize:
    def _schedule(self):
        return Schedule(
            checkers=(
                ScheduledChecker("simulation"),
                ScheduledChecker("alternating"),
                ScheduledChecker("construction"),
            ),
            scheduler="static",
            rationale="fixed order",
        )

    def test_moves_named_checkers_last_stably(self):
        schedule = deprioritize(self._schedule(), ["simulation"])
        assert schedule.checker_names == ("alternating", "construction", "simulation")
        assert "quarantined" in schedule.rationale

    def test_noop_when_no_name_matches(self):
        schedule = self._schedule()
        assert deprioritize(schedule, ["magic"]) is schedule


class TestManagerQuarantine:
    def _manager(self, **overrides):
        configuration = Configuration(
            portfolio=("simulation", "alternating"),
            max_workers=1,
            seed=11,
            verdict_cache=False,
            **overrides,
        )
        return EquivalenceCheckingManager(configuration)

    def test_breaker_board_disabled_when_threshold_none(self):
        assert self._manager(breaker_threshold=None).breakers is None

    def test_failing_checker_gets_quarantined(self):
        manager = self._manager(
            breaker_threshold=2,
            breaker_cooldown=1000.0,
            fault_plan=FaultPlan(
                rules=(FaultRule(site="checker", target="simulation", times=0),)
            ),
        )
        results = [manager.run(ghz_ladder(3), ghz_ladder(3)) for _ in range(3)]
        # Every run still decides (the alternating checker is healthy).
        for result in results:
            assert result.criterion is EquivalenceCriterion.EQUIVALENT
            assert result.decided_by == "alternating"
        # Third run: simulation is deprioritized last, so the healthy
        # alternating checker decides first and simulation is skipped —
        # the portfolio degrades gracefully instead of paying for it.
        statuses = {a.method: a.status for a in results[-1].attempts}
        assert statuses["simulation"] == "skipped"
        assert results[-1].schedule[-1] == "simulation"
        board = manager.breakers.snapshot()
        assert board["simulation"]["state"] == "open"
        assert board["simulation"]["opens"] >= 1
        assert manager.breakers.quarantined() == ("simulation",)

    def test_quarantined_attempt_records_reason(self):
        # Single-checker portfolio: with its only checker quarantined the
        # manager records a "quarantined" attempt instead of running it.
        configuration = Configuration(
            portfolio=("simulation",),
            max_workers=1,
            seed=11,
            verdict_cache=False,
            breaker_threshold=1,
            breaker_cooldown=1000.0,
            fault_plan=FaultPlan(
                rules=(FaultRule(site="checker", target="simulation", times=1),)
            ),
        )
        manager = EquivalenceCheckingManager(configuration)
        manager.run(ghz_ladder(3), ghz_ladder(3))
        result = manager.run(ghz_ladder(3), ghz_ladder(3))
        attempt = next(a for a in result.attempts if a.method == "simulation")
        assert attempt.status == "quarantined"
        assert "circuit breaker" in attempt.error
        assert result.criterion is EquivalenceCriterion.NO_INFORMATION

    def test_breaker_recovers_via_half_open_probe(self):
        manager = self._manager(
            breaker_threshold=1,
            breaker_cooldown=0.05,
            fault_plan=FaultPlan(
                rules=(FaultRule(site="checker", target="simulation", times=1),)
            ),
        )
        manager.run(ghz_ladder(3), ghz_ladder(3))
        assert manager.breakers.quarantined() == ("simulation",)
        time.sleep(0.06)
        # The cooldown expired: the probe runs (fault exhausted), succeeds,
        # and the breaker closes again.  The probe pair is one the falsifier
        # decides itself: on an equivalent pair the interleaved portfolio
        # lets the prover decide first and preempts the probe, which neither
        # heals nor trips the breaker.
        result = manager.run(ghz_ladder(3), ghz_with_bug(3))
        statuses = {a.method: a.status for a in result.attempts}
        assert statuses.get("simulation") == "completed"
        assert result.decided_by == "simulation"
        assert manager.breakers.breaker("simulation").state == "closed"

    def test_preempted_probe_leaves_breaker_half_open(self):
        manager = self._manager(
            breaker_threshold=1,
            breaker_cooldown=0.05,
            fault_plan=FaultPlan(
                rules=(FaultRule(site="checker", target="simulation", times=1),)
            ),
        )
        manager.run(ghz_ladder(3), ghz_ladder(3))
        time.sleep(0.06)
        for _ in range(2):
            # Each run admits a fresh probe: a preempted probe hands its slot
            # back instead of leaving the breaker stuck on a probe in flight.
            result = manager.run(ghz_ladder(3), ghz_ladder(3))
            statuses = {a.method: a.status for a in result.attempts}
            assert statuses == {"simulation": "preempted", "alternating": "completed"}
            assert manager.breakers.breaker("simulation").state == "half_open"
        assert manager.breakers.snapshot()["simulation"]["rejections"] == 0
