"""The simulative (random-stimuli) equivalence checker.

The portfolio's *falsifier*: a single mismatching stimulus proves
non-equivalence, usually long before a functional check would finish, but a
pass only yields ``PROBABLY_EQUIVALENT``.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from typing import TYPE_CHECKING, ClassVar

from repro.core.checkers.base import Checker, CheckerOutcome, register
from repro.core.results import EquivalenceCriterion
from repro.core.simulative import simulative_check_steps

if TYPE_CHECKING:  # pragma: no cover
    from repro.circuit.circuit import QuantumCircuit
    from repro.core.configuration import Configuration

__all__ = ["SimulationChecker"]


class SimulationChecker(Checker):
    """Refute equivalence fast by comparing the circuits on random stimuli."""

    name: ClassVar[str] = "simulation"
    role: ClassVar[str] = "falsifier"

    def check(
        self,
        first: "QuantumCircuit",
        second: "QuantumCircuit",
        configuration: "Configuration",
        *,
        interrupt: Callable[[], bool] | None = None,
    ) -> CheckerOutcome:
        return self.drain(self.steps(first, second, configuration), interrupt)

    def steps(
        self,
        first: "QuantumCircuit",
        second: "QuantumCircuit",
        configuration: "Configuration",
        *,
        interrupt: Callable[[], bool] | None = None,
    ) -> Generator[int, None, CheckerOutcome]:
        """One step per stimulus (cost ``G1 + G2``; the first also builds)."""
        config = configuration
        passed, details = yield from simulative_check_steps(
            first,
            second,
            backend=config.backend,
            num_simulations=config.num_simulations,
            stimuli_type=config.stimuli_type,
            tolerance=config.tolerance,
            seed=config.seed,
            gate_cache=config.gate_cache,
            gate_cache_size=config.gate_cache_size,
            gate_cache_ttl=config.gate_cache_ttl,
            dense_cutoff=config.dense_cutoff,
        )
        criterion = (
            EquivalenceCriterion.PROBABLY_EQUIVALENT
            if passed
            else EquivalenceCriterion.NOT_EQUIVALENT
        )
        return CheckerOutcome(criterion, details)


register(SimulationChecker)
