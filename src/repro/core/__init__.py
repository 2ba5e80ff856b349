"""Core of the reproduction: the paper's two schemes and the equivalence checker.

* Scheme 1 — unitary reconstruction: :func:`to_unitary_circuit` rewires
  resets onto fresh qubits and defers measurements in one walk;
  :func:`substitute_resets` and :func:`defer_measurements` are its two
  halves on their own.
* Scheme 2 — distribution extraction: :func:`extract_distribution`,
  :func:`check_behavioural_equivalence`.
* Equivalence checking engine: :func:`check_equivalence` / :func:`verify`,
  :class:`EquivalenceChecker`, :class:`Configuration`,
  :class:`EquivalenceCheckResult`.
* Pluggable checker subsystem: :class:`Checker` / :class:`CheckerOutcome`
  plus the :func:`register_checker` / :func:`resolve_checker` registry
  (:mod:`repro.core.checkers`).
* Portfolio scheduling: :func:`build_schedule` turns the configured
  portfolio into a per-pair :class:`Schedule` from whether Scheme 1 rebuilds
  the pair (:func:`extract_pair_features`, :mod:`repro.core.scheduler`).
"""

from repro.core.checkers import (
    Checker,
    CheckerOutcome,
    available_checkers,
)
from repro.core.checkers import register as register_checker
from repro.core.checkers import resolve as resolve_checker
from repro.core.checkers import unregister as unregister_checker
from repro.core.configuration import Configuration
from repro.core.distributions import (
    classical_fidelity,
    distributions_equivalent,
    hellinger_distance,
    jensen_shannon_divergence,
    kullback_leibler_divergence,
    normalize_distribution,
    total_variation_distance,
)
from repro.core.equivalence import (
    EquivalenceChecker,
    check_behavioural_equivalence,
    check_equivalence,
    verify,
)
from repro.core.extraction import ExtractionResult, extract_distribution
from repro.core.manager import (
    DEFAULT_PORTFOLIO,
    EquivalenceCheckingManager,
    verify_batch,
    verify_portfolio,
)
from repro.core.results import (
    BatchEntry,
    BatchResult,
    CheckerAttempt,
    EquivalenceCheckResult,
    EquivalenceCriterion,
    PortfolioResult,
)
from repro.core.scheduler import (
    CircuitFeatures,
    PairFeatures,
    Schedule,
    build_schedule,
    extract_features,
    extract_pair_features,
)
from repro.core.simulative import run_simulative_check
from repro.core.strategies import matched_schedule
from repro.core.transformation import (
    TransformationResult,
    defer_measurements,
    permute_qubits,
    substitute_resets,
    to_unitary_circuit,
)
from repro.core.workers import BatchWorkUnit, chunk_pairs, verify_work_unit

__all__ = [
    "BatchEntry",
    "BatchResult",
    "BatchWorkUnit",
    "Checker",
    "CheckerAttempt",
    "CheckerOutcome",
    "CircuitFeatures",
    "Configuration",
    "DEFAULT_PORTFOLIO",
    "EquivalenceCheckResult",
    "EquivalenceChecker",
    "EquivalenceCheckingManager",
    "EquivalenceCriterion",
    "ExtractionResult",
    "PairFeatures",
    "PortfolioResult",
    "Schedule",
    "TransformationResult",
    "available_checkers",
    "build_schedule",
    "check_behavioural_equivalence",
    "check_equivalence",
    "chunk_pairs",
    "classical_fidelity",
    "defer_measurements",
    "distributions_equivalent",
    "extract_distribution",
    "extract_features",
    "extract_pair_features",
    "hellinger_distance",
    "jensen_shannon_divergence",
    "kullback_leibler_divergence",
    "matched_schedule",
    "normalize_distribution",
    "permute_qubits",
    "register_checker",
    "resolve_checker",
    "run_simulative_check",
    "substitute_resets",
    "to_unitary_circuit",
    "total_variation_distance",
    "unregister_checker",
    "verify",
    "verify_batch",
    "verify_portfolio",
    "verify_work_unit",
]
