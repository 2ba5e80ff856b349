"""Per-checker circuit breakers: quarantine components that keep failing.

A portfolio stays useful when one of its checkers misbehaves *only* if the
misbehaving checker stops being paid for: a checker that crashes or times
out on every pair otherwise burns its full budget on every single run.  The
classic remedy is the circuit-breaker state machine:

* **closed** — normal operation; consecutive failures are counted.
* **open** — after ``failure_threshold`` consecutive failures the breaker
  trips: calls are refused outright (the manager records a ``quarantined``
  attempt instead of running the checker) until ``cooldown`` seconds pass.
* **half-open** — after the cooldown one *probe* call is let through.  If it
  succeeds the breaker closes (the checker rejoins the portfolio); if it
  fails the breaker re-opens for another cooldown.

The :class:`BreakerBoard` keeps one :class:`CircuitBreaker` per checker name
for an :class:`~repro.core.manager.EquivalenceCheckingManager`; state and
lifetime counters are exported as gauges on ``GET /metrics`` and in
``/stats`` by the verification service.  All operations are thread-safe —
the service's job threads share one board.  The clock is injectable so tests
can step through cooldowns without sleeping.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.obs import trace
from repro.obs.logs import fields, get_logger

__all__ = ["BreakerBoard", "CircuitBreaker", "STATE_VALUES"]

_log = get_logger("resilience.breaker")

#: Numeric encoding of breaker states for gauge export
#: (``repro_breaker_state``): closed=0, half-open=1, open=2.
STATE_VALUES = {"closed": 0, "half_open": 1, "open": 2}


class CircuitBreaker:
    """One breaker: closed → open after N consecutive failures → half-open probe.

    ``failure_threshold`` consecutive failures trip the breaker; after
    ``cooldown`` seconds a single probe is admitted (half-open).  A
    successful probe closes the breaker and resets the failure count; a
    failed probe re-opens it for another cooldown.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        cooldown: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        name: str = "checker",
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if cooldown <= 0:
            raise ValueError("cooldown must be positive")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.name = name
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at: float | None = None
        self._probe_in_flight = False
        # Lifetime counters (monotonic; exported as gauges at scrape time).
        self._failures = 0
        self._successes = 0
        self._opens = 0
        self._closes = 0
        self._probes = 0
        self._rejections = 0

    # ------------------------------------------------------------------
    # state machine
    # ------------------------------------------------------------------

    def allow(self) -> bool:
        """Whether a call may proceed right now.

        In the open state this returns False (and counts a rejection) until
        the cooldown elapses; the first ``allow()`` after the cooldown admits
        exactly one half-open probe, and further calls are refused until that
        probe is resolved by :meth:`record_success` / :meth:`record_failure`.
        """
        probe = False
        try:
            with self._lock:
                if self._state == "closed":
                    return True
                if self._state == "open":
                    if self._clock() - self._opened_at >= self.cooldown:
                        self._state = "half_open"
                        self._probe_in_flight = True
                        self._probes += 1
                        probe = True
                        return True
                    self._rejections += 1
                    return False
                # half-open: only the single in-flight probe is admitted.
                if self._probe_in_flight:
                    self._rejections += 1
                    return False
                self._probe_in_flight = True
                self._probes += 1
                probe = True
                return True
        finally:
            if probe:
                self._transition("half_open", "probe admitted after cooldown")

    def record_success(self) -> None:
        closed = False
        with self._lock:
            self._successes += 1
            self._consecutive_failures = 0
            self._probe_in_flight = False
            if self._state != "closed":
                self._state = "closed"
                self._opened_at = None
                self._closes += 1
                closed = True
        if closed:
            self._transition("closed", "probe succeeded")

    def record_failure(self) -> None:
        opened: str | None = None
        with self._lock:
            self._failures += 1
            self._consecutive_failures += 1
            if self._state == "half_open":
                # The probe failed: straight back to open for another cooldown.
                self._state = "open"
                self._opened_at = self._clock()
                self._probe_in_flight = False
                self._opens += 1
                opened = "probe failed"
            elif (
                self._state == "closed"
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._state = "open"
                self._opened_at = self._clock()
                self._opens += 1
                opened = (
                    f"{self._consecutive_failures} consecutive failures "
                    f"(threshold {self.failure_threshold})"
                )
        if opened is not None:
            self._transition("open", opened)

    def release(self) -> None:
        """Return an admitted call's probe slot without a success or failure.

        A portfolio checker that was started and then outrun by another
        checker says nothing about its health; releasing its half-open probe
        lets the next call probe again instead of leaving the breaker stuck.
        """
        with self._lock:
            self._probe_in_flight = False

    def _transition(self, state: str, reason: str) -> None:
        """Log + trace a state transition (called outside the lock)."""
        trace.add_event("breaker.transition", checker=self.name, state=state)
        level = _log.warning if state == "open" else _log.info
        level(
            "circuit breaker %s", state,
            **fields(checker=self.name, state=state, reason=reason),
        )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            # An expired cooldown reads as half-open: the next call will be
            # admitted as a probe, and reporting should say so.
            if (
                self._state == "open"
                and self._clock() - self._opened_at >= self.cooldown
            ):
                return "half_open"
            return self._state

    def snapshot(self) -> dict:
        state = self.state
        with self._lock:
            return {
                "state": state,
                "consecutive_failures": self._consecutive_failures,
                "failure_threshold": self.failure_threshold,
                "cooldown": self.cooldown,
                "failures": self._failures,
                "successes": self._successes,
                "opens": self._opens,
                "closes": self._closes,
                "probes": self._probes,
                "rejections": self._rejections,
            }

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker(state={self.state!r}, "
            f"consecutive_failures={self._consecutive_failures}, "
            f"threshold={self.failure_threshold})"
        )


class BreakerBoard:
    """A named set of circuit breakers (one per checker), created on demand."""

    def __init__(
        self,
        failure_threshold: int = 5,
        cooldown: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._clock = clock
        self._lock = threading.Lock()
        self._breakers: dict[str, CircuitBreaker] = {}

    def breaker(self, name: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(name)
            if breaker is None:
                breaker = CircuitBreaker(
                    self.failure_threshold, self.cooldown, self._clock, name=name
                )
                self._breakers[name] = breaker
            return breaker

    def allow(self, name: str) -> bool:
        return self.breaker(name).allow()

    def record(self, name: str, ok: bool) -> None:
        if ok:
            self.breaker(name).record_success()
        else:
            self.breaker(name).record_failure()

    def release(self, name: str) -> None:
        self.breaker(name).release()

    def quarantined(self) -> tuple[str, ...]:
        """Names whose breaker is currently open (cooldown not yet expired)."""
        with self._lock:
            items = list(self._breakers.items())
        return tuple(name for name, breaker in items if breaker.state == "open")

    def snapshot(self) -> dict:
        """Per-checker breaker snapshots (for ``/stats`` and metrics export)."""
        with self._lock:
            items = list(self._breakers.items())
        return {name: breaker.snapshot() for name, breaker in items}

    def __repr__(self) -> str:
        return f"BreakerBoard({self.snapshot()!r})"
