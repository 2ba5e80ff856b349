"""Step generators: work split into resumable steps that return a result."""

from __future__ import annotations

from collections.abc import Generator
from typing import Any, TypeVar

__all__ = ["drain"]

T = TypeVar("T")


def drain(steps: Generator[Any, None, T]) -> T:
    """Run a step generator to the end and return what it returns."""
    while True:
        try:
            next(steps)
        except StopIteration as stop:
            return stop.value
