"""Canonical handling of complex edge weights.

Decision diagrams only stay compact if numerically equal (up to a small
tolerance) edge weights are recognized as *the same* value, so that
structurally identical nodes hash to the same unique-table entry.  Dedicated
DD packages use a bucketized complex table for this; here we use a simpler
integer-grid scheme: each weight component is hashed as the integer
``round(x * HASH_SCALE)``, i.e. its value on a grid of spacing
``1 / HASH_SCALE``.  Values that fall on different sides of a grid boundary
are merely stored twice (slightly larger DD), never confused with each other,
so correctness does not depend on the rounding.  Integer keys also make
``-0.0`` and ``+0.0`` one key without a special case.
"""

from __future__ import annotations

__all__ = [
    "DEFAULT_TOLERANCE", "HASH_DECIMALS", "HASH_SCALE", "ckey", "is_close", "is_one", "is_zero",
]

#: Default numerical tolerance used for weight comparisons and hashing.
DEFAULT_TOLERANCE = 1e-10

#: Number of decimals the hashing grid resolves: weights are hashed on a grid
#: of spacing ``10**-HASH_DECIMALS``.
HASH_DECIMALS = 10

#: Grid scale of the hash keys, as a float so that ``x * HASH_SCALE`` is one
#: float multiplication.  The hot kernels in :mod:`repro.dd.package` bind it
#: locally and inline ``round(w.real * scale)`` when assembling unique-table
#: and add-compute-table keys, so both key spaces stay identical to
#: :func:`ckey` by construction.
HASH_SCALE = float(10**HASH_DECIMALS)


def ckey(value: complex) -> tuple[int, int]:
    """Hashable key identifying ``value`` up to the hashing grid.

    Both components are integers (grid points), so a rounded ``-0.0`` and
    ``+0.0`` give the same key.
    """
    return round(value.real * HASH_SCALE), round(value.imag * HASH_SCALE)


def is_zero(value: complex, tolerance: float = DEFAULT_TOLERANCE) -> bool:
    """Whether ``value`` is numerically zero."""
    return abs(value.real) <= tolerance and abs(value.imag) <= tolerance


def is_one(value: complex, tolerance: float = DEFAULT_TOLERANCE) -> bool:
    """Whether ``value`` is numerically one."""
    return abs(value - 1.0) <= tolerance


def is_close(a: complex, b: complex, tolerance: float = DEFAULT_TOLERANCE) -> bool:
    """Whether two complex values agree within ``tolerance``."""
    return abs(a - b) <= tolerance
