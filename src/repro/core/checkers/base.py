"""Checker abstraction and registry of the pluggable checker subsystem.

Historically every equivalence-checking strategy lived as a private method on
``EquivalenceChecker`` and was dispatched by string comparison.  This module
replaces that hub with first-class :class:`Checker` objects:

* each strategy is a :class:`Checker` subclass in its own module
  (:mod:`~repro.core.checkers.alternating`,
  :mod:`~repro.core.checkers.construction`,
  :mod:`~repro.core.checkers.simulation`,
  :mod:`~repro.core.checkers.distribution`);
* checkers are looked up *by name* through the :func:`register` /
  :func:`resolve` registry, so third-party checkers plug in without touching
  the core — ``register`` a subclass and its name becomes valid in
  ``Configuration.method`` and ``Configuration.portfolio``;
* class-level metadata (:attr:`Checker.role`, :attr:`Checker.scheme_two`)
  lets the portfolio scheduler reason about a checker without running it.

A checker receives the two circuits plus the active
:class:`~repro.core.configuration.Configuration` and returns a
:class:`CheckerOutcome`; wrapping into the public
:class:`~repro.core.results.EquivalenceCheckResult` (timings, method name,
backend) is done by the calling layer.  :meth:`Checker.steps` exposes the
same work as a generator of cost-counted steps, which is how the portfolio
manager interleaves several checkers in one thread.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Generator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from repro.circuit.gates import Gate
from repro.circuit.operations import Instruction
from repro.core.results import EquivalenceCriterion
from repro.exceptions import EquivalenceCheckingError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (configuration
    # validates names against this registry, so it must not be imported here
    # at runtime)
    from repro.circuit.circuit import QuantumCircuit
    from repro.core.configuration import Configuration

__all__ = [
    "Checker",
    "CheckerInterrupted",
    "CheckerOutcome",
    "available_checkers",
    "criterion_from_matrix",
    "criterion_from_scalar",
    "exact_comparison_tolerance",
    "gate_lists",
    "inverse_instruction",
    "is_registered",
    "register",
    "resolve",
    "unregister",
]


class CheckerInterrupted(Exception):
    """Raised inside a checker when its cancellation probe fires.

    Deliberately *not* a :class:`~repro.exceptions.ReproError`: interruption
    is control flow between a budgeted caller and the checker, never a
    user-facing library failure.
    """


@dataclass
class CheckerOutcome:
    """What a checker found: a criterion plus free-form diagnostics."""

    criterion: EquivalenceCriterion
    details: dict = field(default_factory=dict)


class Checker(ABC):
    """One equivalence-checking strategy.

    Subclasses set the class attributes and implement :meth:`check`; calling
    :func:`register` on the subclass makes it resolvable by name everywhere a
    checker name is accepted (``Configuration.method``,
    ``Configuration.portfolio``, the CLI, the scheduler).

    Attributes
    ----------
    name:
        Registry name of the strategy (e.g. ``"alternating"``).
    role:
        ``"prover"`` — can deliver a definitive *positive* verdict
        (``EQUIVALENT`` / ``EQUIVALENT_UP_TO_GLOBAL_PHASE``) — or
        ``"falsifier"`` — decides only ``NOT_EQUIVALENT`` definitively and is
        otherwise indicative (``PROBABLY_EQUIVALENT``).
    scheme_two:
        Whether the checker compares circuits *behaviourally* (Scheme 2 of
        the paper) and therefore handles dynamic primitives natively.  The
        calling layer skips the Scheme-1 unitary reconstruction for such
        checkers and hands them the original circuits.
    uses_strategy:
        Whether ``Configuration.strategy`` influences this checker (only the
        alternating scheme); controls result reporting.
    """

    name: ClassVar[str]
    role: ClassVar[str] = "prover"
    scheme_two: ClassVar[bool] = False
    uses_strategy: ClassVar[bool] = False

    @abstractmethod
    def check(
        self,
        first: "QuantumCircuit",
        second: "QuantumCircuit",
        configuration: "Configuration",
        *,
        interrupt: Callable[[], bool] | None = None,
    ) -> CheckerOutcome:
        """Decide equivalence of two circuits under ``configuration``.

        ``interrupt`` is an optional cancellation probe: long-running loops
        must call :meth:`check_interrupt` between steps so that a checker
        whose budget expired stops doing work instead of running to
        completion.
        """

    def steps(
        self,
        first: "QuantumCircuit",
        second: "QuantumCircuit",
        configuration: "Configuration",
        *,
        interrupt: Callable[[], bool] | None = None,
    ) -> Generator[int, None, CheckerOutcome]:
        """The check as a generator of steps: yields costs, returns the outcome.

        Each ``yield`` reports the cost of a step just finished that leaves
        work to do; the step that reaches the verdict returns the
        :class:`CheckerOutcome` instead, so a checker that decides in its
        first step yields nothing.  Cost is counted in *gate applications*
        (``G1 + G2`` is the gate count of both circuits), never in time, so
        a schedule driven by it is deterministic.  The portfolio manager
        always gives the turn to the checker with the least accumulated
        cost, so when the winner decides at cost ``C`` every other checker
        has spent at most ``C`` plus one of its own steps: with ``k``
        checkers, a run costs at most ``k * C`` plus one step per checker,
        whatever the lineup order.

        This default runs :meth:`check` as a single step (notionally
        ``G1 + G2``), forwarding ``interrupt`` so a budget can still stop it
        mid-step.  Checkers with natural steps override it and make
        :meth:`check` :meth:`drain` their steps; the caller polls budgets
        between steps and they ignore ``interrupt``.
        """
        return self.check(first, second, configuration, interrupt=interrupt)
        yield  # pragma: no cover - makes this a generator function

    @staticmethod
    def drain(
        steps: Generator[int, None, CheckerOutcome],
        interrupt: Callable[[], bool] | None = None,
    ) -> CheckerOutcome:
        """Run ``steps`` to the end, polling ``interrupt`` before every step."""
        while True:
            if interrupt is not None and interrupt():
                steps.close()
                raise CheckerInterrupted
            try:
                next(steps)
            except StopIteration as stop:
                return stop.value

    @staticmethod
    def check_interrupt(interrupt: Callable[[], bool] | None) -> None:
        """Raise :class:`CheckerInterrupted` when the cancellation flag is set."""
        if interrupt is not None and interrupt():
            raise CheckerInterrupted


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

_REGISTRY: dict[str, type[Checker]] = {}


def register(cls: type[Checker], *, replace: bool = False) -> type[Checker]:
    """Register a :class:`Checker` subclass under ``cls.name``.

    Usable as a plain call or as a class decorator.  Registration makes the
    name valid in ``Configuration.method`` / ``Configuration.portfolio`` and
    resolvable by the portfolio scheduler — this registry is the single
    source of truth for which checkers exist.
    """
    name = getattr(cls, "name", None)
    if not isinstance(name, str) or not name:
        raise EquivalenceCheckingError(
            f"checker class {cls.__name__} must define a non-empty string 'name'"
        )
    if not (isinstance(cls, type) and issubclass(cls, Checker)):
        raise EquivalenceCheckingError(
            f"{cls!r} is not a Checker subclass and cannot be registered"
        )
    if name in _REGISTRY and not replace:
        raise EquivalenceCheckingError(
            f"a checker named {name!r} is already registered "
            f"({_REGISTRY[name].__name__}); pass replace=True to override"
        )
    _REGISTRY[name] = cls
    return cls


def unregister(name: str) -> None:
    """Remove a checker from the registry (plugin teardown, tests)."""
    _REGISTRY.pop(name, None)


def resolve(name: str) -> type[Checker]:
    """Look up a registered checker class by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise EquivalenceCheckingError(
            f"unknown checker {name!r}; registered checkers: {available_checkers()}"
        ) from None


def is_registered(name: str) -> bool:
    """Whether a checker with this name exists in the registry."""
    return name in _REGISTRY


def available_checkers() -> tuple[str, ...]:
    """Names of all registered checkers, in registration order."""
    return tuple(_REGISTRY)


# ----------------------------------------------------------------------
# helpers shared by the concrete checkers
# ----------------------------------------------------------------------


def inverse_instruction(instruction: Instruction) -> Instruction:
    """The inverse of a unitary gate instruction (same qubits)."""
    gate = instruction.operation
    assert isinstance(gate, Gate)
    return Instruction(gate.inverse(), instruction.qubits)


def gate_lists(
    first: "QuantumCircuit", second: "QuantumCircuit"
) -> tuple[list[Instruction], list[Instruction]]:
    """Unitary gate streams of both circuits, read-out measurements stripped."""
    left = list(first.remove_final_measurements().gate_instructions())
    right = list(second.remove_final_measurements().gate_instructions())
    return left, right


def criterion_from_scalar(
    scalar: complex | None, tolerance: float
) -> EquivalenceCriterion:
    """Verdict from the identity scalar of ``U * U'^dagger`` (DD backends)."""
    if scalar is None:
        return EquivalenceCriterion.NOT_EQUIVALENT
    if abs(scalar - 1.0) <= tolerance:
        return EquivalenceCriterion.EQUIVALENT
    if abs(abs(scalar) - 1.0) <= tolerance:
        return EquivalenceCriterion.EQUIVALENT_UP_TO_GLOBAL_PHASE
    return EquivalenceCriterion.NOT_EQUIVALENT


def criterion_from_matrix(matrix: np.ndarray, tolerance: float) -> EquivalenceCriterion:
    """Verdict from the dense product matrix (dense backends)."""
    dim = matrix.shape[0]
    identity = np.eye(dim, dtype=complex)
    if np.allclose(matrix, identity, atol=tolerance):
        return EquivalenceCriterion.EQUIVALENT
    scalar = np.trace(matrix) / dim
    if abs(abs(scalar) - 1.0) <= tolerance and np.allclose(
        matrix, scalar * identity, atol=tolerance * 10
    ):
        return EquivalenceCriterion.EQUIVALENT_UP_TO_GLOBAL_PHASE
    return EquivalenceCriterion.NOT_EQUIVALENT


def exact_comparison_tolerance(tolerance: float) -> float:
    """Absolute tolerance used for exact (phase-sensitive) matrix comparisons."""
    return max(tolerance, 1e-9)
