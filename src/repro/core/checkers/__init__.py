"""Pluggable equivalence-checker subsystem.

Importing this package registers the built-in checkers — ``alternating``,
``construction``, ``simulation`` (Scheme 1) and ``distribution`` (Scheme 2) —
in the :mod:`~repro.core.checkers.base` registry.  ``alternating`` is the one
prover for translated pairs too: it matches gates that differ only in their
gate set on their canonical form.  Third-party strategies
subclass :class:`~repro.core.checkers.base.Checker` and call
:func:`~repro.core.checkers.base.register`; their name then works everywhere
a checker name is accepted (``Configuration.method``,
``Configuration.portfolio``, ``--portfolio`` on the CLI, the scheduler).

Registration is per-process.  The batch ``executor="process"`` path rebuilds
``Configuration`` inside each worker, which re-validates names against the
worker's own registry — under a ``spawn``/``forkserver`` start method a
third-party checker must therefore be registered at *import time* of a module
that worker processes also import (under ``fork``, the default on Linux,
workers inherit the parent's registry).
"""

from repro.core.checkers.alternating import AlternatingChecker
from repro.core.checkers.base import (
    Checker,
    CheckerOutcome,
    available_checkers,
    is_registered,
    register,
    resolve,
    unregister,
)
from repro.core.checkers.construction import ConstructionChecker
from repro.core.checkers.distribution import DistributionChecker
from repro.core.checkers.simulation import SimulationChecker

__all__ = [
    "AlternatingChecker",
    "Checker",
    "CheckerOutcome",
    "ConstructionChecker",
    "DistributionChecker",
    "SimulationChecker",
    "available_checkers",
    "is_registered",
    "register",
    "resolve",
    "unregister",
]
