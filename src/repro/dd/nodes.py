"""Node and edge data structures of the decision-diagram package.

A *vector* DD node has two successor edges (qubit value 0 / 1); a *matrix* DD
node has four successor edges indexed ``2*row + column`` where ``row`` is the
output basis value and ``column`` the input basis value of the node's qubit.
Terminal edges are represented by ``node is None``; the zero vector/matrix is
the terminal edge with weight 0.

Nodes are only ever created through the package's ``make_*`` methods, which
normalize the successor weights and hash-cons structurally identical nodes in
a unique table.  Consequently node identity (``is`` / ``id``) doubles as
structural equality, which the compute tables rely on.

Performance notes
-----------------
Edges are deliberately *dumb* flyweight records: ``__init__`` stores the
weight as-is (no ``complex()`` coercion — callers on the numpy boundary coerce
once per entry instead of once per edge), and the hot kernels never touch the
``is_zero`` / ``is_terminal`` properties but inline the ``edge.node is None``
checks.  The canonical zero and unit terminal edges are module-level
singletons (:data:`V_ZERO`, :data:`M_ZERO`, :data:`V_ONE`, :data:`M_ONE`);
since edges are immutable by convention, sharing them is safe and saves an
allocation per zero branch.  Nodes carry a ``hash`` slot holding the hash of
the unique-table signature they were interned under (recorded once by
:meth:`~repro.dd.unique_table.UniqueTable.get_or_create` at creation, when
the key tuple is at hand anyway); node *identity* remains the equality
contract.

Matrix nodes also carry an ``identity`` flag, computed once at creation: it
is true iff the off-diagonal successors are the zero edge and both diagonal
successors point to the same child with weight exactly ``1``, that child
being the terminal or itself an identity node.  A flagged node (with root
weight 1) is therefore exactly the identity on its levels, which lets the
multiplication kernels return the other operand without recursing.  The
test demands exact weights, so rounding can only make it miss a flag, never
set a wrong one.
"""

from __future__ import annotations

__all__ = ["MEdge", "MNode", "M_ONE", "M_ZERO", "VEdge", "VNode", "V_ONE", "V_ZERO"]


class VNode:
    """Vector-DD node for one qubit level."""

    __slots__ = ("index", "edges", "hash")

    def __init__(self, index: int, edges: tuple["VEdge", "VEdge"], hash: int = 0):
        self.index = index
        self.edges = edges
        self.hash = hash

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"VNode(q{self.index})"


class MNode:
    """Matrix-DD node for one qubit level."""

    __slots__ = ("index", "edges", "hash", "identity")

    def __init__(
        self,
        index: int,
        edges: tuple["MEdge", "MEdge", "MEdge", "MEdge"],
        hash: int = 0,
    ):
        self.index = index
        self.edges = edges
        self.hash = hash
        e0, e1, e2, e3 = edges
        child = e0.node
        self.identity = (
            e1.node is None
            and e1.weight == 0
            and e2.node is None
            and e2.weight == 0
            and e3.node is child
            and e0.weight == 1
            and e3.weight == 1
            and (child is None or child.identity)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MNode(q{self.index})"


class VEdge:
    """Weighted edge into a vector-DD node (``node is None`` = terminal)."""

    __slots__ = ("node", "weight")

    def __init__(self, node: VNode | None, weight: complex):
        self.node = node
        self.weight = weight

    @property
    def is_terminal(self) -> bool:
        """Whether the edge points to the terminal node."""
        return self.node is None

    @property
    def is_zero(self) -> bool:
        """Whether the edge represents the zero vector."""
        return self.node is None and self.weight == 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        target = "terminal" if self.node is None else f"q{self.node.index}"
        return f"VEdge({target}, {complex(self.weight):.4g})"


class MEdge:
    """Weighted edge into a matrix-DD node (``node is None`` = terminal)."""

    __slots__ = ("node", "weight")

    def __init__(self, node: MNode | None, weight: complex):
        self.node = node
        self.weight = weight

    @property
    def is_terminal(self) -> bool:
        """Whether the edge points to the terminal node."""
        return self.node is None

    @property
    def is_zero(self) -> bool:
        """Whether the edge represents the zero matrix."""
        return self.node is None and self.weight == 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        target = "terminal" if self.node is None else f"q{self.node.index}"
        return f"MEdge({target}, {complex(self.weight):.4g})"


#: Canonical zero-vector edge (shared flyweight; edges are immutable).
V_ZERO = VEdge(None, 0.0)
#: Canonical zero-matrix edge (shared flyweight).
M_ZERO = MEdge(None, 0.0)
#: Canonical unit terminal vector edge (seed of bottom-up constructions).
V_ONE = VEdge(None, 1.0)
#: Canonical unit terminal matrix edge (seed of bottom-up constructions).
M_ONE = MEdge(None, 1.0)
