"""Canonical handling of complex edge weights.

Decision diagrams only stay compact if numerically equal (up to a small
tolerance) edge weights are recognized as *the same* value, so that
structurally identical nodes hash to the same unique-table entry.  Dedicated
DD packages use a bucketized complex table for this; here we use a simpler
grid-rounding scheme: weights are hashed by their value rounded to a fixed
number of decimals.  Values that fall on different sides of a grid boundary
are merely stored twice (slightly larger DD), never confused with each other,
so correctness does not depend on the rounding.
"""

from __future__ import annotations

import cmath

__all__ = ["DEFAULT_TOLERANCE", "HASH_DECIMALS", "ckey", "is_close", "is_one", "is_zero"]

#: Default numerical tolerance used for weight comparisons and hashing.
DEFAULT_TOLERANCE = 1e-10

#: Number of decimals used for hashing edge weights.  The hot kernels in
#: :mod:`repro.dd.package` inline this rounding (``round(w.real, HASH_DECIMALS)
#: or 0.0``) when assembling unique-table signatures, referencing this
#: constant so both key spaces stay identical by construction.
HASH_DECIMALS = 10


def ckey(value: complex) -> tuple[float, float]:
    """Hashable key identifying ``value`` up to the hashing tolerance.

    The ``or 0.0`` collapses ``-0.0`` onto ``+0.0`` so the sign of a rounded
    zero never splits otherwise identical signatures.
    """
    return (
        round(value.real, HASH_DECIMALS) or 0.0,
        round(value.imag, HASH_DECIMALS) or 0.0,
    )


def is_zero(value: complex, tolerance: float = DEFAULT_TOLERANCE) -> bool:
    """Whether ``value`` is numerically zero."""
    return abs(value.real) <= tolerance and abs(value.imag) <= tolerance


def is_one(value: complex, tolerance: float = DEFAULT_TOLERANCE) -> bool:
    """Whether ``value`` is numerically one."""
    return abs(value - 1.0) <= tolerance


def is_close(a: complex, b: complex, tolerance: float = DEFAULT_TOLERANCE) -> bool:
    """Whether two complex values agree within ``tolerance``."""
    return abs(a - b) <= tolerance


def phase_of(value: complex) -> float:
    """Return the argument of ``value`` in radians."""
    return cmath.phase(value)
