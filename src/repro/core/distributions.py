"""Comparison of measurement-outcome distributions.

Used by the behavioural equivalence check (Scheme 2): two circuits are
considered behaviourally equivalent for a fixed input when the total-variation
distance between their outcome distributions is below a tolerance (equivalently
when the classical fidelity is close to one).
"""

from __future__ import annotations

import math
from collections.abc import Mapping

__all__ = [
    "classical_fidelity",
    "distributions_equivalent",
    "hellinger_distance",
    "jensen_shannon_divergence",
    "kullback_leibler_divergence",
    "normalize_distribution",
    "total_variation_distance",
]


def normalize_distribution(distribution: Mapping[str, float]) -> dict[str, float]:
    """Return the distribution scaled to sum to one (dropping negatives)."""
    cleaned = {key: max(0.0, float(value)) for key, value in distribution.items()}
    total = sum(cleaned.values())
    if total <= 0.0:
        raise ValueError("distribution has no probability mass")
    return {key: value / total for key, value in cleaned.items() if value > 0.0}


def total_variation_distance(
    first: Mapping[str, float], second: Mapping[str, float]
) -> float:
    """Total-variation distance ``0.5 * sum |p_i - q_i|`` (in [0, 1])."""
    keys = dict.fromkeys([*first, *second])  # deterministic summation order
    return 0.5 * sum(abs(first.get(key, 0.0) - second.get(key, 0.0)) for key in keys)


def classical_fidelity(first: Mapping[str, float], second: Mapping[str, float]) -> float:
    """Bhattacharyya/classical fidelity ``(sum sqrt(p_i q_i))**2`` (1 iff equal)."""
    keys = dict.fromkeys([*first, *second])  # deterministic summation order
    overlap = sum(
        math.sqrt(max(0.0, first.get(key, 0.0)) * max(0.0, second.get(key, 0.0)))
        for key in keys
    )
    return overlap**2


def hellinger_distance(first: Mapping[str, float], second: Mapping[str, float]) -> float:
    """Hellinger distance ``sqrt(1 - sqrt(F))`` (in [0, 1])."""
    fidelity = classical_fidelity(first, second)
    return math.sqrt(max(0.0, 1.0 - math.sqrt(fidelity)))


def kullback_leibler_divergence(
    first: Mapping[str, float], second: Mapping[str, float], epsilon: float = 1e-12
) -> float:
    """KL divergence ``D(first || second)`` with epsilon-smoothing of ``second``."""
    divergence = 0.0
    for key, probability in first.items():
        if probability <= 0.0:
            continue
        divergence += probability * math.log(probability / max(second.get(key, 0.0), epsilon))
    return divergence


def jensen_shannon_divergence(
    first: Mapping[str, float], second: Mapping[str, float]
) -> float:
    """Symmetrized, bounded KL divergence (in [0, ln 2])."""
    keys = dict.fromkeys([*first, *second])  # deterministic summation order
    mixture = {key: 0.5 * (first.get(key, 0.0) + second.get(key, 0.0)) for key in keys}
    return 0.5 * kullback_leibler_divergence(first, mixture) + 0.5 * kullback_leibler_divergence(
        second, mixture
    )


def distributions_equivalent(
    first: Mapping[str, float],
    second: Mapping[str, float],
    tolerance: float = 1e-7,
) -> bool:
    """Whether two outcome distributions agree within ``tolerance`` (TVD)."""
    return total_variation_distance(first, second) <= tolerance
