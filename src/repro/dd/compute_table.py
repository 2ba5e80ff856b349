"""Memoization tables for decision-diagram operations.

Every recursive DD operation (addition, multiplication, inner product, ...)
keeps its own compute table so that repeated sub-computations — which occur
constantly because sub-diagrams are shared — are answered in O(1).

The package's kernels work on the underlying dict directly
(``table._table.get`` aliased to a local): one attribute load plus a dict
probe per lookup instead of a method call.  The ``len``-based sizes reported
by :meth:`repro.dd.package.DDPackage.statistics` count its entries.
"""

from __future__ import annotations

from typing import Any

__all__ = ["ComputeTable"]


class ComputeTable:
    """A named memoization dict of one DD operation."""

    __slots__ = ("name", "_table")

    def __init__(self, name: str) -> None:
        self.name = name
        self._table: dict[Any, Any] = {}

    def clear(self) -> None:
        """Drop all cached entries."""
        self._table.clear()

    def __len__(self) -> int:
        return len(self._table)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ComputeTable({self.name}, size={len(self)})"
