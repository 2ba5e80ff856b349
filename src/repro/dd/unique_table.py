"""Unique (hash-consing) table for decision-diagram nodes.

The unique table guarantees that two structurally identical nodes — same qubit
level, same successor nodes, numerically identical successor weights — are
represented by the *same* Python object.  This canonicity is what makes node
identity usable as structural equality and what keeps diagrams compact.

:meth:`UniqueTable.get_or_create` takes a *pre-built* flat signature key
``(index, id0, re0, im0, id1, re1, im1, ...)``: one ``(id, re, im)`` triple
per successor (``id`` 0 for terminal edges, weights as the integer grid
points of :func:`~repro.dd.complexvalue.ckey`).  The package's normalizers
already iterate over the successor edges to normalize their weights, so they
assemble the key in the same loop.  The hash of that key is recorded on the
created node (``node.hash``).
"""

from __future__ import annotations

from typing import Generic, TypeVar

__all__ = ["UniqueTable"]

NodeT = TypeVar("NodeT")


class UniqueTable(Generic[NodeT]):
    """Hash-consing table mapping (level, successor signature) to a node."""

    __slots__ = ("_table", "lookups", "hits")

    def __init__(self) -> None:
        self._table: dict[tuple, NodeT] = {}
        self.lookups = 0
        self.hits = 0

    def get_or_create(self, key: tuple, index: int, edges: tuple, node_cls) -> NodeT:
        """Return the canonical node for a pre-built signature ``key``.

        ``edges`` must be the normalized successor tuple the key was derived
        from.  On a miss the node is created with its ``hash`` slot set to
        ``hash(key)``.
        """
        self.lookups += 1
        node = self._table.get(key)
        if node is not None:
            self.hits += 1
            return node
        node = node_cls(index, edges, hash(key))
        self._table[key] = node
        return node

    def __len__(self) -> int:
        return len(self._table)

    def clear(self) -> None:
        """Drop all nodes (used when a package is reset between runs)."""
        self._table.clear()
        self.lookups = 0
        self.hits = 0

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups answered from the table."""
        return self.hits / self.lookups if self.lookups else 0.0
