"""Deterministic fault injection: seeded chaos for the verification stack.

Production code calls :meth:`FaultInjector.fire` at a handful of *injection
sites*; with no :class:`FaultPlan` configured (the default, and the only
supported production state) every call is a no-op costing one attribute
check.  Tests attach a plan via ``Configuration.fault_plan`` and the stack
then fails *exactly* where and how the plan says:

===========  ========================================================
site         where it fires
===========  ========================================================
``checker``  inside the manager just before a checker's first step
             (``target`` = checker name) — ``raise`` simulates a
             checker crash, ``sleep`` a slow checker that blows its
             budget.
``worker``   inside a process-pool work unit (``verify_work_unit``) —
             ``exit`` kills the worker process mid-unit, reproducing a
             ``BrokenProcessPool``.
``journal``  before a verdict-journal write — ``raise`` produces an
             ``OSError`` as if the disk filled up.
``submit``   in the service's job submission path — ``reject``
             simulates a 429/503 storm (with ``retry_after``),
             ``sleep`` a black-holed response.
===========  ========================================================

Rules are **counted**: a rule fires for its first ``times`` matching calls
and then goes quiet, so "two transient crashes then healthy" is one rule.
For the ``worker`` site the count is keyed on the work unit's *attempt
number* instead of injector-local state — a freshly spawned worker process
has fresh injector state, and the attempt number is what makes an injected
death deterministic across respawns.  ``probability`` (with ``FaultPlan.
seed``) makes stochastic-but-reproducible plans possible.

Plans are frozen dataclasses so they travel inside the (pickled)
:class:`~repro.core.configuration.Configuration` into process-pool workers.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.exceptions import ReproError, ServiceError
from repro.obs.logs import fields, get_logger

__all__ = ["FAULT_SITES", "FaultInjected", "FaultInjector", "FaultPlan", "FaultRule"]

_log = get_logger("resilience.faults")

FAULT_SITES = ("checker", "worker", "journal", "submit")
_ACTIONS = ("raise", "sleep", "exit", "reject")


class FaultInjected(ReproError):
    """An error deliberately raised by the fault-injection harness."""


@dataclass(frozen=True)
class FaultRule:
    """One injected failure mode.

    ``times`` bounds how often the rule fires (≤ 0 means every time);
    ``target`` narrows the rule to one checker/component name (``"*"``
    matches all).
    """

    site: str
    target: str = "*"
    action: str = "raise"
    times: int = 1
    delay: float = 0.0
    status: int = 503
    retry_after: float | None = None
    probability: float = 1.0

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; expected one of {FAULT_SITES}"
            )
        if self.action not in _ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; expected one of {_ACTIONS}"
            )
        if self.delay < 0:
            raise ValueError("delay must be non-negative")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")


@dataclass(frozen=True)
class FaultPlan:
    """A picklable bundle of fault rules plus the seed for stochastic rules."""

    rules: tuple[FaultRule, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        # Tolerate a list in the constructor but store a hashable tuple.
        object.__setattr__(self, "rules", tuple(self.rules))
        for rule in self.rules:
            if not isinstance(rule, FaultRule):
                raise TypeError(f"expected FaultRule, got {type(rule).__name__}")


@dataclass
class _RuleState:
    fired: int = 0


class FaultInjector:
    """Stateful executor of a :class:`FaultPlan`; thread-safe.

    One injector instance accumulates per-rule fire counts; components that
    share a plan (manager, cache, service) share one injector so ``times``
    budgets are global to the process.
    """

    def __init__(
        self,
        plan: FaultPlan | None,
        *,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.plan = plan
        self._sleep = sleep
        self._lock = threading.Lock()
        self._states: dict[tuple[int, str], _RuleState] = {}
        self._rng = random.Random(plan.seed if plan is not None else 0)
        self._injections = 0

    @property
    def active(self) -> bool:
        return self.plan is not None and bool(self.plan.rules)

    @property
    def injections(self) -> int:
        """How many faults have actually fired (for /stats and assertions)."""
        return self._injections

    def fire(self, site: str, target: str = "*", attempt: int | None = None) -> None:
        """Trigger any matching rules; raises/sleeps/exits per the plan.

        ``attempt`` replaces injector-local counting for callers whose state
        does not survive the injected fault (process-pool work units).
        """
        if not self.active:
            return
        for index, rule in enumerate(self.plan.rules):
            if rule.site != site:
                continue
            if rule.target != "*" and rule.target != target:
                continue
            if not self._should_fire(index, rule, target, attempt):
                continue
            self._execute(rule, site, target)

    def hook(self, site: str, target: str = "*") -> Callable[[], None]:
        """A zero-argument closure over :meth:`fire` (journal write hooks)."""
        return lambda: self.fire(site, target)

    def _should_fire(
        self, index: int, rule: FaultRule, target: str, attempt: int | None
    ) -> bool:
        with self._lock:
            if rule.probability < 1.0 and self._rng.random() >= rule.probability:
                return False
            if attempt is not None:
                # Deterministic across fresh processes: the caller's attempt
                # number is the count, not our (reset-on-respawn) state.
                if rule.times > 0 and attempt >= rule.times:
                    return False
            else:
                state = self._states.setdefault((index, target), _RuleState())
                if rule.times > 0 and state.fired >= rule.times:
                    return False
                state.fired += 1
            self._injections += 1
            return True

    def _execute(self, rule: FaultRule, site: str, target: str) -> None:
        _log.warning(
            "fault injected",
            **fields(site=site, target=target, action=rule.action),
        )
        if rule.action == "sleep":
            self._sleep(rule.delay)
            return
        if rule.action == "exit":
            # Simulates a SIGKILLed / OOM-killed worker: no cleanup, no
            # exception propagation, the pool just loses the process.
            os._exit(17)
        if rule.action == "reject":
            raise ServiceError(
                f"injected rejection at {site}:{target}",
                status=rule.status,
                retry_after=rule.retry_after,
            )
        if site == "journal":
            # Journal faults must look like real disk errors to exercise the
            # degrade-to-memory-only path.
            raise OSError(f"injected journal fault at {target}")
        raise FaultInjected(f"injected fault at {site}:{target}")
