"""The application schedule of the alternating equivalence-checking scheme.

The alternating scheme builds ``E = U * U'^dagger`` by multiplying gates of
the first circuit onto ``E`` from the left and inverted gates of the second
circuit from the right.  Left- and right-multiplications commute as
operations, so *any* interleaving produces the same product — but the
interleaving determines how large the intermediate decision diagram gets.  If
the two circuits are (close to) equivalent, applying gates from both sides at
a rate proportional to the circuit sizes keeps the intermediate product close
to the identity, which is why the proportional schedule is QCEC's default and
the only one this reproduction implements.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.exceptions import EquivalenceCheckingError

__all__ = ["LEFT", "RIGHT", "alternating_schedule"]

LEFT = "L"
RIGHT = "R"


def alternating_schedule(num_left: int, num_right: int) -> Iterator[str]:
    """Yield ``LEFT``/``RIGHT`` tokens describing the gate application order.

    ``num_left`` and ``num_right`` are the gate counts of the two circuits.
    Gates are interleaved at a rate proportional to the two counts with an
    error-accumulation (Bresenham-style) scheme, so that after ``k`` steps
    roughly ``k * num_left / (num_left + num_right)`` gates of the left
    circuit have been applied.
    """
    if num_left < 0 or num_right < 0:
        raise EquivalenceCheckingError("gate counts must be non-negative")
    left_done = 0
    right_done = 0
    error = 0
    while left_done < num_left or right_done < num_right:
        if right_done >= num_right or (left_done < num_left and error >= 0):
            yield LEFT
            left_done += 1
            error -= num_right
        else:
            yield RIGHT
            right_done += 1
            error += num_left
