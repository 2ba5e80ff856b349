"""Small shared utilities (bitstring manipulation, timing helpers, step generators)."""

from repro.utils.bits import (
    bits_to_int,
    bitstring_to_int,
    format_bitstring,
    int_to_bits,
    int_to_bitstring,
)
from repro.utils.steps import drain
from repro.utils.timing import Stopwatch, timed

__all__ = [
    "Stopwatch",
    "bits_to_int",
    "bitstring_to_int",
    "drain",
    "format_bitstring",
    "int_to_bits",
    "int_to_bitstring",
    "timed",
]
