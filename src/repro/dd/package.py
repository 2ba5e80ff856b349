"""The decision-diagram package: construction and manipulation of QMDDs.

This module provides the data-structure backend that tools like QCEC are built
on: quantum states are represented as *vector* decision diagrams and
operators as *matrix* decision diagrams, both with normalized, hash-consed
nodes and memoized recursive operations.  For the redundancy-rich diagrams
that appear during equivalence checking (products of a circuit with the
inverse of an equivalent circuit stay close to the identity) the
representation is exponentially more compact than dense arrays.

Conventions
-----------
* Qubit 0 is the lowest DD level (closest to the terminal); the top node of a
  diagram over ``n`` qubits has ``index == n - 1``.
* Vector/matrix indices are little-endian: bit ``q`` of an index is qubit ``q``.
* Matrix node successor ``2*row + column`` corresponds to the node qubit having
  output value ``row`` and input value ``column``.

Edge-factory invariants (performance-critical)
----------------------------------------------
The kernels in this module are the hottest code in the repository, so they
follow a small set of strict conventions:

* Edges are immutable flyweights.  The zero vector/matrix and the unit
  terminal edge are the module-level singletons
  :data:`~repro.dd.nodes.V_ZERO` / :data:`~repro.dd.nodes.M_ZERO` /
  :data:`~repro.dd.nodes.V_ONE` / :data:`~repro.dd.nodes.M_ONE`; kernels
  return those instead of allocating fresh terminal edges.
* ``VEdge`` / ``MEdge`` constructors store weights *as-is*.  Values crossing
  the numpy boundary (``operator_chain``, ``controlled_gate``,
  ``vector_from_numpy``, ``scale_*``) are coerced to Python ``complex`` once
  per entry, so downstream arithmetic stays on native complex numbers.
* Kernels never use the ``is_zero`` / ``is_terminal`` properties; they inline
  ``edge.node is None`` / ``weight == 0`` checks.
* Node construction goes through the specialized ``_make_vector_node`` /
  ``_make_matrix_node`` normalizers, which build the unique-table signature
  key inline in the same loop that normalizes the successor weights: per
  successor its node id and the integer grid points
  ``round(w.real * HASH_SCALE)``, ``round(w.imag * HASH_SCALE)`` of its
  normalized weight (:func:`~repro.dd.complexvalue.ckey`).  Created nodes
  carry the hash of that key in their ``hash`` slot.
* Wrap path: a free level ``[e, 0, 0, e]`` normalizes to weight-1 diagonal
  successors, so ``_wrap_matrix_node`` writes its key directly (the grid
  point of 1, no abs/divide/round) and stores exact weight-1 successors.
  It interns the node the generic normalizer would; gate construction
  (``controlled_gate``, ``operator_chain``) wraps through it.
* Identity levels: ``_identity_levels[q]`` is the identity over levels
  ``0 .. q-1``, each entry the wrap of the one before.  The list is
  extended on demand and never cleared (its nodes live in the unique
  table), so :meth:`DDPackage.identity` and the idle blocks of
  ``controlled_gate`` reuse the same interned edges.
* Compute-table keys are weight-canonical: multiplication keys carry node ids
  only (both root weights factor out of the product), addition keys carry the
  right/left weight *ratio* — so numerically scaled instances of the same
  structural computation always hit the same entry.
* Identity short-cut: a matrix node whose ``identity`` flag is set (see
  :mod:`repro.dd.nodes`) is exactly the identity on its levels, so both
  multiplication kernels return the other operand, scaled by the product of
  the root weights, right after the zero and level checks — before the
  compute-table probe.  Gate DDs are the identity on most levels, so this
  cuts most of the recursion of a gate application.
* Zero-block short-cuts: the normalizers store every zero successor as the
  ``M_ZERO`` singleton, so ``edges[1] is M_ZERO and edges[2] is M_ZERO``
  tells a block-diagonal node exactly.  On a compute-table miss,
  ``multiply_matrices`` forms the four products with no additions when
  either operand is block-diagonal, two when both are, and one when both
  are wrap levels ``[e, 0, 0, e]`` (same node and weight on the diagonal),
  re-wrapped through ``_wrap_matrix_node``; ``multiply_matrix_vector``
  forms two products and no addition for a block-diagonal matrix.  Only the
  general case expands into eight products and four additions.  The
  skipped products and sums are exactly those with a zero operand, which
  the full expansion returns without touching a compute table, so results,
  node shapes and table contents are those of the full expansion.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from collections.abc import Mapping, Sequence

import numpy as np

from repro.dd.complexvalue import DEFAULT_TOLERANCE, HASH_SCALE
from repro.dd.compute_table import ComputeTable
from repro.dd.nodes import M_ONE, M_ZERO, MEdge, MNode, V_ONE, V_ZERO, VEdge, VNode
from repro.dd.unique_table import UniqueTable
from repro.exceptions import DDError

__all__ = ["DDPackage"]

_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
_P1 = np.array([[0, 0], [0, 1]], dtype=complex)
_X2 = np.array([[0, 1], [1, 0]], dtype=complex)
# Hash-grid point of a normalized weight of exactly 1.
_ONE_KEY = round(1.0 * HASH_SCALE)


class DDPackage:
    """A self-contained decision-diagram workspace for ``num_qubits`` qubits.

    All nodes created through one package share its unique table and compute
    tables; diagrams from different packages must not be mixed.
    """

    def __init__(
        self,
        num_qubits: int,
        tolerance: float = DEFAULT_TOLERANCE,
        gate_cache_size: int | None = None,
    ):
        if num_qubits < 1:
            raise DDError("a DD package needs at least one qubit")
        if gate_cache_size is not None and gate_cache_size < 1:
            raise DDError("gate_cache_size must be at least 1 (or None for unbounded)")
        self.num_qubits = num_qubits
        self.tolerance = tolerance
        self._vector_table: UniqueTable[VNode] = UniqueTable()
        self._matrix_table: UniqueTable[MNode] = UniqueTable()
        self._add_v = ComputeTable("vector-add")
        self._add_m = ComputeTable("matrix-add")
        self._mult_mv = ComputeTable("matrix-vector-multiply")
        self._mult_mm = ComputeTable("matrix-matrix-multiply")
        self._inner = ComputeTable("inner-product")
        self._norm = ComputeTable("norm-squared")
        self._max_entry = ComputeTable("max-entry")
        self._trace = ComputeTable("trace")
        # The gate cache is LRU-ordered: a hit refreshes the entry, a store
        # beyond ``gate_cache_size`` evicts the least recently used entry.
        # ``None`` keeps it unbounded (the package lives for one check).
        self.gate_cache_size = gate_cache_size
        self._gate_cache: OrderedDict = OrderedDict()
        self._gate_cache_hits = 0
        self._gate_cache_misses = 0
        self._gate_cache_evictions = 0
        # ``_identity_levels[q]`` is the identity over levels ``0 .. q-1``;
        # extended on demand by :meth:`_identities`.  Its nodes live in the
        # unique table, which is never cleared, so the list stays valid.
        self._identity_levels: list[MEdge] = [M_ONE]

    def __reduce__(self):
        raise TypeError(
            "DDPackage is process-local and must never be pickled; workers "
            "rebuild their own packages from the (picklable) Configuration"
        )

    # ------------------------------------------------------------------
    # terminals and node construction
    # ------------------------------------------------------------------

    @staticmethod
    def zero_vector_edge() -> VEdge:
        """The zero vector (canonical shared edge)."""
        return V_ZERO

    @staticmethod
    def zero_matrix_edge() -> MEdge:
        """The zero matrix (canonical shared edge)."""
        return M_ZERO

    def make_vector_node(self, index: int, edges: Sequence[VEdge]) -> VEdge:
        """Create (or reuse) a normalized vector node and return an edge to it."""
        edges = tuple(edges)
        if len(edges) != 2:
            raise DDError(f"vector nodes have 2 successors, got {len(edges)}")
        return self._make_vector_node(index, edges[0], edges[1])

    def make_matrix_node(self, index: int, edges: Sequence[MEdge]) -> MEdge:
        """Create (or reuse) a normalized matrix node and return an edge to it."""
        edges = tuple(edges)
        if len(edges) != 4:
            raise DDError(f"matrix nodes have 4 successors, got {len(edges)}")
        return self._make_matrix_node(index, edges[0], edges[1], edges[2], edges[3])

    def _make_vector_node(self, index: int, e0: VEdge, e1: VEdge) -> VEdge:
        """Normalize two successor edges and hash-cons the resulting node.

        The unique-table signature ``(index, id, re, im, id, re, im)`` is
        assembled in the same pass that normalizes the weights; the pivot is
        the first successor of maximal magnitude and becomes the returned
        edge's weight.
        """
        tol = self.tolerance
        scale = HASH_SCALE
        w0 = e0.weight
        w1 = e1.weight
        a0 = abs(w0)
        a1 = abs(w1)
        if a0 >= a1:
            largest = a0
            pivot = w0
        else:
            largest = a1
            pivot = w1
        if largest <= tol:
            return V_ZERO
        if -tol <= w0.real <= tol and -tol <= w0.imag <= tol:
            n0 = V_ZERO
            k0 = kr0 = ki0 = 0
        else:
            nw = w0 / pivot
            n0 = VEdge(e0.node, nw)
            k0 = id(e0.node) if e0.node is not None else 0
            kr0 = round(nw.real * scale)
            ki0 = round(nw.imag * scale)
        if -tol <= w1.real <= tol and -tol <= w1.imag <= tol:
            n1 = V_ZERO
            k1 = kr1 = ki1 = 0
        else:
            nw = w1 / pivot
            n1 = VEdge(e1.node, nw)
            k1 = id(e1.node) if e1.node is not None else 0
            kr1 = round(nw.real * scale)
            ki1 = round(nw.imag * scale)
        key = (index, k0, kr0, ki0, k1, kr1, ki1)
        node = self._vector_table.get_or_create(key, index, (n0, n1), VNode)
        return VEdge(node, pivot)

    def _make_matrix_node(
        self, index: int, e0: MEdge, e1: MEdge, e2: MEdge, e3: MEdge
    ) -> MEdge:
        """Four-successor counterpart of :meth:`_make_vector_node`."""
        tol = self.tolerance
        scale = HASH_SCALE
        w0 = e0.weight
        w1 = e1.weight
        w2 = e2.weight
        w3 = e3.weight
        a0 = abs(w0)
        a1 = abs(w1)
        a2 = abs(w2)
        a3 = abs(w3)
        largest = a0
        pivot = w0
        if a1 > largest:
            largest = a1
            pivot = w1
        if a2 > largest:
            largest = a2
            pivot = w2
        if a3 > largest:
            largest = a3
            pivot = w3
        if largest <= tol:
            return M_ZERO
        if -tol <= w0.real <= tol and -tol <= w0.imag <= tol:
            n0 = M_ZERO
            k0 = kr0 = ki0 = 0
        else:
            nw = w0 / pivot
            n0 = MEdge(e0.node, nw)
            k0 = id(e0.node) if e0.node is not None else 0
            kr0 = round(nw.real * scale)
            ki0 = round(nw.imag * scale)
        if -tol <= w1.real <= tol and -tol <= w1.imag <= tol:
            n1 = M_ZERO
            k1 = kr1 = ki1 = 0
        else:
            nw = w1 / pivot
            n1 = MEdge(e1.node, nw)
            k1 = id(e1.node) if e1.node is not None else 0
            kr1 = round(nw.real * scale)
            ki1 = round(nw.imag * scale)
        if -tol <= w2.real <= tol and -tol <= w2.imag <= tol:
            n2 = M_ZERO
            k2 = kr2 = ki2 = 0
        else:
            nw = w2 / pivot
            n2 = MEdge(e2.node, nw)
            k2 = id(e2.node) if e2.node is not None else 0
            kr2 = round(nw.real * scale)
            ki2 = round(nw.imag * scale)
        if -tol <= w3.real <= tol and -tol <= w3.imag <= tol:
            n3 = M_ZERO
            k3 = kr3 = ki3 = 0
        else:
            nw = w3 / pivot
            n3 = MEdge(e3.node, nw)
            k3 = id(e3.node) if e3.node is not None else 0
            kr3 = round(nw.real * scale)
            ki3 = round(nw.imag * scale)
        key = (index, k0, kr0, ki0, k1, kr1, ki1, k2, kr2, ki2, k3, kr3, ki3)
        node = self._matrix_table.get_or_create(key, index, (n0, n1, n2, n3), MNode)
        return MEdge(node, pivot)

    def _wrap_matrix_node(self, index: int, edge: MEdge) -> MEdge:
        """The node ``[edge, 0, 0, edge]`` of a free level, keyed directly.

        Both diagonal weights are the pivot, so normalizing divides them to
        one: the key is ``(index, id, S, 0, 0, ..., id, S, 0)`` with ``S`` the
        grid point of 1, and the successors get the exact weight 1 (which
        keeps wrapped identities flagged).  Returns the node
        :meth:`_make_matrix_node` returns for the same edges; a weight with
        both components within ``tolerance`` of zero takes that path.
        """
        weight = edge.weight
        tol = self.tolerance
        if -tol <= weight.real <= tol and -tol <= weight.imag <= tol:
            return self._make_matrix_node(index, edge, M_ZERO, M_ZERO, edge)
        child = edge.node
        k = id(child) if child is not None else 0
        key = (index, k, _ONE_KEY, 0, 0, 0, 0, 0, 0, 0, k, _ONE_KEY, 0)
        one = MEdge(child, 1.0)
        node = self._matrix_table.get_or_create(key, index, (one, M_ZERO, M_ZERO, one), MNode)
        return MEdge(node, weight)

    # ------------------------------------------------------------------
    # state construction
    # ------------------------------------------------------------------

    def zero_state(self) -> VEdge:
        """The all-zeros computational basis state |0...0>."""
        return self.basis_state(0)

    def basis_state(self, value: "int | Sequence[int]") -> VEdge:
        """A computational basis state given as an integer or per-qubit bits.

        Per-qubit bit sequences must consist of 0/1 values only.
        """
        if isinstance(value, int):
            if not 0 <= value < (1 << self.num_qubits):
                raise DDError(f"basis state {value} out of range for {self.num_qubits} qubits")
            bits = [(value >> q) & 1 for q in range(self.num_qubits)]
        else:
            bits = list(value)
            if len(bits) != self.num_qubits:
                raise DDError(
                    f"expected {self.num_qubits} bits, got {len(bits)}"
                )
            for position, bit in enumerate(bits):
                if bit not in (0, 1):
                    raise DDError(
                        f"basis-state bit for qubit {position} must be 0 or 1, got {bit!r}"
                    )
        edge = V_ONE
        for qubit in range(self.num_qubits):
            if bits[qubit]:
                edge = self._make_vector_node(qubit, V_ZERO, edge)
            else:
                edge = self._make_vector_node(qubit, edge, V_ZERO)
        return edge

    def vector_from_numpy(self, amplitudes: np.ndarray) -> VEdge:
        """Build a vector DD from a dense amplitude array (little-endian)."""
        amplitudes = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amplitudes.size != (1 << self.num_qubits):
            raise DDError(
                f"amplitude vector of length {amplitudes.size} does not match "
                f"{self.num_qubits} qubits"
            )

        def build(offset: int, level: int) -> VEdge:
            if level < 0:
                return VEdge(None, complex(amplitudes[offset]))
            half = 1 << level
            low = build(offset, level - 1)
            high = build(offset + half, level - 1)
            return self._make_vector_node(level, low, high)

        return build(0, self.num_qubits - 1)

    # ------------------------------------------------------------------
    # operator construction
    # ------------------------------------------------------------------

    def _identities(self, top: int) -> list[MEdge]:
        """``_identity_levels`` extended to hold the entries ``0 .. top``."""
        identities = self._identity_levels
        while len(identities) <= top:
            identities.append(self._wrap_matrix_node(len(identities) - 1, identities[-1]))
        return identities

    def identity(self) -> MEdge:
        """The identity operator on all qubits (the same interned edge every call)."""
        return self._identities(self.num_qubits)[self.num_qubits]

    def operator_chain(self, operators: Mapping[int, np.ndarray]) -> MEdge:
        """Tensor product of single-qubit operators (identity where omitted).

        ``operators`` maps qubit index to a ``2x2`` matrix.  Chains serve
        uncontrolled single-qubit gates (memoized by the gate cache of
        :func:`repro.dd.circuits.instruction_to_dd`) and the projectors of
        measurement collapse.  Controlled gates are built directly by
        :meth:`controlled_gate`.
        """
        for qubit in operators:
            if not 0 <= qubit < self.num_qubits:
                raise DDError(f"operator qubit {qubit} out of range")
        edge = M_ONE
        make = self._make_matrix_node
        wrap = self._wrap_matrix_node
        get = operators.get
        for qubit in range(self.num_qubits):
            matrix = get(qubit)
            if matrix is None:
                # Identity level: diagonal successors share the chain so far.
                edge = wrap(qubit, edge)
                continue
            node = edge.node
            weight = edge.weight
            if matrix.shape != (2, 2):
                raise DDError(f"operator for qubit {qubit} must be 2x2, got {matrix.shape}")
            edge = make(
                qubit,
                MEdge(node, weight * complex(matrix[0, 0])),
                MEdge(node, weight * complex(matrix[0, 1])),
                MEdge(node, weight * complex(matrix[1, 0])),
                MEdge(node, weight * complex(matrix[1, 1])),
            )
        return edge

    def controlled_gate(
        self,
        matrix: np.ndarray,
        target: int,
        controls: Mapping[int, int] | None = None,
    ) -> MEdge:
        """Matrix DD of a (multi-)controlled single-qubit gate.

        ``controls`` maps control qubits to their activation value (1 for a
        regular control, 0 for a negative control).  Without controls this is
        simply the single-qubit operator embedded into the full register.

        Controlled gates are built bottom-up in one pass.  Below the target,
        four blocks (one per entry of ``matrix``) are grown level by level: a
        free level wraps each block as ``[b, 0, 0, b]``; a control level puts
        the block where the control is satisfied and, where it is not, the
        identity for the diagonal blocks and zero for the off-diagonal ones.
        Up to the first control every block is a scalar times the identity,
        so those levels re-weight the interned identity edge instead of
        normalizing a node (blocks within ``tolerance`` of zero become the
        zero edge, as the normalizer would make them).  The target level
        joins the four blocks.  Above the target, a free level makes
        ``[e, 0, 0, e]`` (via the wrap path) and a control level
        ``[I, 0, 0, e]`` (mirrored for negative controls).

        A base matrix that is exactly ``diag(1, λ)`` under positive controls
        only (``cp``, ``cz``, ``mcp``, ``ccz``) is symmetric in its qubits:
        it multiplies by ``λ`` iff all of them are 1.  Such a gate is built
        with its lowest qubit as the target, so no level below the target
        needs a node and every free level above it is a wrap level.
        """
        if matrix.shape != (2, 2):
            raise DDError(f"controlled_gate expects a 2x2 matrix, got {matrix.shape}")
        if not 0 <= target < self.num_qubits:
            raise DDError(f"target qubit {target} out of range")
        controls = dict(controls or {})
        if target in controls:
            raise DDError(f"qubit {target} cannot be both control and target")
        for qubit, value in controls.items():
            if not 0 <= qubit < self.num_qubits:
                raise DDError(f"control qubit {qubit} out of range")
            if value not in (0, 1):
                raise DDError(f"control activation value must be 0 or 1, got {value}")
        if not controls:
            return self.operator_chain({target: matrix})
        if all(controls.values()) and matrix[0, 0] == 1 and matrix[0, 1] == 0 == matrix[1, 0]:
            # Symmetric phase gate: build it on its lowest qubit.
            lowest = min(controls)
            if lowest < target:
                del controls[lowest]
                controls[target] = 1
                target = lowest

        make = self._make_matrix_node
        wrap = self._wrap_matrix_node
        identities = self._identities(self.num_qubits - 1)
        tol = self.tolerance
        # Levels below both the target and the first control are free, so
        # each block stays ``value * identities[first_level]``.
        first_level = min(target, min(controls))
        identity_node = identities[first_level].node
        blocks = [
            MEdge(identity_node, value) if abs(value) > tol else M_ZERO
            for value in map(complex, matrix.reshape(-1))
        ]
        for qubit in range(first_level, target):
            value = controls.get(qubit)
            if value is None:
                blocks = [block if block is M_ZERO else wrap(qubit, block) for block in blocks]
                continue
            identity = identities[qubit]
            idle = (identity, M_ZERO, M_ZERO, identity)
            if value:
                blocks = [
                    make(qubit, idle[slot], M_ZERO, M_ZERO, block)
                    for slot, block in enumerate(blocks)
                ]
            else:
                blocks = [
                    make(qubit, block, M_ZERO, M_ZERO, idle[slot])
                    for slot, block in enumerate(blocks)
                ]
        edge = make(target, *blocks)
        for qubit in range(target + 1, self.num_qubits):
            value = controls.get(qubit)
            if value is None:
                edge = wrap(qubit, edge)
            elif value:
                edge = make(qubit, identities[qubit], M_ZERO, M_ZERO, edge)
            else:
                edge = make(qubit, edge, M_ZERO, M_ZERO, identities[qubit])
        return edge

    @staticmethod
    def scale_matrix(edge: MEdge, factor: complex) -> MEdge:
        """Multiply a matrix DD by a scalar."""
        if factor == 0 or (edge.node is None and edge.weight == 0):
            return M_ZERO
        return MEdge(edge.node, edge.weight * complex(factor))

    @staticmethod
    def scale_vector(edge: VEdge, factor: complex) -> VEdge:
        """Multiply a vector DD by a scalar."""
        if factor == 0 or (edge.node is None and edge.weight == 0):
            return V_ZERO
        return VEdge(edge.node, edge.weight * complex(factor))

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def add_vectors(self, left: VEdge, right: VEdge) -> VEdge:
        """Element-wise sum of two vector DDs."""
        return self._add_v_rec(left, right)

    def add_matrices(self, left: MEdge, right: MEdge) -> MEdge:
        """Element-wise sum of two matrix DDs."""
        return self._add_m_rec(left, right)

    def _add_v_rec(self, left: VEdge, right: VEdge) -> VEdge:
        """Recursive vector addition.

        The compute-table key is weight-canonical: it carries the
        right-to-left weight *ratio*, so any pair of identically-structured
        operands hits the same entry regardless of absolute scale.
        """
        lnode = left.node
        lweight = left.weight
        if lnode is None and lweight == 0:
            return right
        rnode = right.node
        rweight = right.weight
        if rnode is None and rweight == 0:
            return left
        if lnode is None or rnode is None:
            if lnode is None and rnode is None:
                return VEdge(None, lweight + rweight)
            raise DDError("cannot add diagrams of different depth")
        index = lnode.index
        if index != rnode.index:
            raise DDError(
                f"cannot add diagrams rooted at different levels "
                f"({index} vs {rnode.index})"
            )
        ratio = rweight / lweight
        key = (id(lnode), id(rnode), round(ratio.real * HASH_SCALE), round(ratio.imag * HASH_SCALE))
        table = self._add_v._table
        cached = table.get(key)
        if cached is None:
            ledges = lnode.edges
            redges = rnode.edges
            r0 = redges[0]
            r1 = redges[1]
            cached = self._make_vector_node(
                index,
                self._add_v_rec(ledges[0], VEdge(r0.node, r0.weight * ratio)),
                self._add_v_rec(ledges[1], VEdge(r1.node, r1.weight * ratio)),
            )
            table[key] = cached
        return VEdge(cached.node, cached.weight * lweight)

    def _add_m_rec(self, left: MEdge, right: MEdge) -> MEdge:
        """Recursive matrix addition (see :meth:`_add_v_rec`)."""
        lnode = left.node
        lweight = left.weight
        if lnode is None and lweight == 0:
            return right
        rnode = right.node
        rweight = right.weight
        if rnode is None and rweight == 0:
            return left
        if lnode is None or rnode is None:
            if lnode is None and rnode is None:
                return MEdge(None, lweight + rweight)
            raise DDError("cannot add diagrams of different depth")
        index = lnode.index
        if index != rnode.index:
            raise DDError(
                f"cannot add diagrams rooted at different levels "
                f"({index} vs {rnode.index})"
            )
        ratio = rweight / lweight
        key = (id(lnode), id(rnode), round(ratio.real * HASH_SCALE), round(ratio.imag * HASH_SCALE))
        table = self._add_m._table
        cached = table.get(key)
        if cached is None:
            ledges = lnode.edges
            redges = rnode.edges
            r0 = redges[0]
            r1 = redges[1]
            r2 = redges[2]
            r3 = redges[3]
            cached = self._make_matrix_node(
                index,
                self._add_m_rec(ledges[0], MEdge(r0.node, r0.weight * ratio)),
                self._add_m_rec(ledges[1], MEdge(r1.node, r1.weight * ratio)),
                self._add_m_rec(ledges[2], MEdge(r2.node, r2.weight * ratio)),
                self._add_m_rec(ledges[3], MEdge(r3.node, r3.weight * ratio)),
            )
            table[key] = cached
        return MEdge(cached.node, cached.weight * lweight)

    def multiply_matrix_vector(self, matrix: MEdge, vector: VEdge) -> VEdge:
        """Apply a matrix DD to a vector DD.

        The compute-table key carries node ids only — both root weights factor
        out of the product, so the key is fully weight-canonical.
        """
        mnode = matrix.node
        mweight = matrix.weight
        if mnode is None and mweight == 0:
            return V_ZERO
        vnode = vector.node
        vweight = vector.weight
        if vnode is None and vweight == 0:
            return V_ZERO
        if mnode is None or vnode is None:
            if mnode is None and vnode is None:
                return VEdge(None, mweight * vweight)
            raise DDError("matrix and vector diagrams must have the same depth")
        index = mnode.index
        if index != vnode.index:
            raise DDError(
                f"matrix level {index} does not match vector level "
                f"{vnode.index}"
            )
        if mnode.identity:
            return VEdge(vnode, mweight * vweight)
        key = (id(mnode), id(vnode))
        table = self._mult_mv._table
        cached = table.get(key)
        if cached is None:
            m0, m1, m2, m3 = mnode.edges
            v0, v1 = vnode.edges
            multiply = self.multiply_matrix_vector
            if m1 is M_ZERO and m2 is M_ZERO:
                # Block-diagonal: each half of the result is one product.
                cached = self._make_vector_node(index, multiply(m0, v0), multiply(m3, v1))
            else:
                add = self._add_v_rec
                cached = self._make_vector_node(
                    index,
                    add(multiply(m0, v0), multiply(m1, v1)),
                    add(multiply(m2, v0), multiply(m3, v1)),
                )
            table[key] = cached
        return VEdge(cached.node, cached.weight * (mweight * vweight))

    def multiply_matrices(self, left: MEdge, right: MEdge) -> MEdge:
        """Matrix product ``left @ right`` of two matrix DDs.

        Keyed like :meth:`multiply_matrix_vector` (node ids only; weights
        factor out).
        """
        lnode = left.node
        lweight = left.weight
        if lnode is None and lweight == 0:
            return M_ZERO
        rnode = right.node
        rweight = right.weight
        if rnode is None and rweight == 0:
            return M_ZERO
        if lnode is None or rnode is None:
            if lnode is None and rnode is None:
                return MEdge(None, lweight * rweight)
            raise DDError("matrix diagrams must have the same depth")
        index = lnode.index
        if index != rnode.index:
            raise DDError(
                f"cannot multiply diagrams rooted at different levels "
                f"({index} vs {rnode.index})"
            )
        if lnode.identity:
            return MEdge(rnode, lweight * rweight)
        if rnode.identity:
            return MEdge(lnode, lweight * rweight)
        key = (id(lnode), id(rnode))
        table = self._mult_mm._table
        cached = table.get(key)
        if cached is None:
            l0, l1, l2, l3 = lnode.edges
            r0, r1, r2, r3 = rnode.edges
            multiply = self.multiply_matrices
            make = self._make_matrix_node
            if l1 is M_ZERO and l2 is M_ZERO:
                if r1 is not M_ZERO or r2 is not M_ZERO:
                    cached = make(
                        index, multiply(l0, r0), multiply(l0, r1), multiply(l3, r2), multiply(l3, r3)
                    )
                elif (
                    l0.node is l3.node
                    and r0.node is r3.node
                    and l0.weight == l3.weight
                    and r0.weight == r3.weight
                ):
                    # Two wrap levels: the product is the wrap of one product.
                    cached = self._wrap_matrix_node(index, multiply(l0, r0))
                else:
                    cached = make(index, multiply(l0, r0), M_ZERO, M_ZERO, multiply(l3, r3))
            elif r1 is M_ZERO and r2 is M_ZERO:
                cached = make(
                    index, multiply(l0, r0), multiply(l1, r3), multiply(l2, r0), multiply(l3, r3)
                )
            else:
                add = self._add_m_rec
                cached = make(
                    index,
                    add(multiply(l0, r0), multiply(l1, r2)),
                    add(multiply(l0, r1), multiply(l1, r3)),
                    add(multiply(l2, r0), multiply(l3, r2)),
                    add(multiply(l2, r1), multiply(l3, r3)),
                )
            table[key] = cached
        return MEdge(cached.node, cached.weight * (lweight * rweight))

    # ------------------------------------------------------------------
    # inner products, norms, probabilities
    # ------------------------------------------------------------------

    def inner_product(self, left: VEdge, right: VEdge) -> complex:
        """Return ``<left|right>``."""
        lnode = left.node
        if lnode is None and left.weight == 0:
            return 0.0
        rnode = right.node
        if rnode is None and right.weight == 0:
            return 0.0
        if lnode is None or rnode is None:
            if lnode is None and rnode is None:
                return left.weight.conjugate() * right.weight
            raise DDError("states must have the same number of qubits")
        if lnode.index != rnode.index:
            raise DDError("states must be rooted at the same level")
        key = (id(lnode), id(rnode))
        table = self._inner._table
        cached = table.get(key)
        if cached is None:
            ledges = lnode.edges
            redges = rnode.edges
            cached = self.inner_product(ledges[0], redges[0]) + self.inner_product(
                ledges[1], redges[1]
            )
            table[key] = cached
        return left.weight.conjugate() * right.weight * cached

    def fidelity(self, left: VEdge, right: VEdge) -> float:
        """Return ``|<left|right>|**2``."""
        return abs(self.inner_product(left, right)) ** 2

    def norm_squared(self, vector: VEdge) -> float:
        """Squared Euclidean norm of a vector DD."""
        node = vector.node
        if node is None:
            weight = vector.weight
            return 0.0 if weight == 0 else abs(weight) ** 2
        key = id(node)
        table = self._norm._table
        cached = table.get(key)
        if cached is None:
            edges = node.edges
            cached = self.norm_squared(edges[0]) + self.norm_squared(edges[1])
            table[key] = cached
        return abs(vector.weight) ** 2 * cached

    def probability_of_one(self, vector: VEdge, qubit: int) -> float:
        """Probability that measuring ``qubit`` of ``vector`` yields 1.

        Shared nodes above the target qubit are visited once (per-call memo),
        not once per path.
        """
        if not 0 <= qubit < self.num_qubits:
            raise DDError(f"qubit {qubit} out of range")
        memo: dict[int, float] = {}

        def recurse(edge: VEdge) -> float:
            node = edge.node
            if node is None:
                if edge.weight == 0:
                    return 0.0
                raise DDError("vector does not cover the requested qubit")
            if node.index < qubit:
                raise DDError("vector does not cover the requested qubit")
            key = id(node)
            relative = memo.get(key)
            if relative is None:
                if node.index == qubit:
                    relative = self.norm_squared(node.edges[1])
                else:
                    relative = recurse(node.edges[0]) + recurse(node.edges[1])
                memo[key] = relative
            return abs(edge.weight) ** 2 * relative

        return recurse(vector)

    def collapse(
        self, vector: VEdge, qubit: int, outcome: int, probability: float | None = None
    ) -> VEdge:
        """Project ``vector`` onto ``qubit == outcome`` and renormalize."""
        if outcome not in (0, 1):
            raise DDError(f"measurement outcome must be 0 or 1, got {outcome}")
        if probability is None:
            p_one = self.probability_of_one(vector, qubit)
            probability = p_one if outcome else 1.0 - p_one
        if probability <= 0.0:
            raise DDError(f"cannot collapse onto outcome {outcome} with probability 0")
        projector = self.operator_chain({qubit: _P1 if outcome else _P0})
        projected = self.multiply_matrix_vector(projector, vector)
        return self.scale_vector(projected, 1.0 / math.sqrt(probability))

    def apply_reset(self, vector: VEdge, qubit: int) -> list[tuple[float, VEdge]]:
        """Decompose a reset of ``qubit`` into its pure branches.

        Returns ``(probability, post-reset state)`` pairs with the qubit in
        |0>; zero-probability branches are omitted.
        """
        p_one = self.probability_of_one(vector, qubit)
        branches: list[tuple[float, VEdge]] = []
        if 1.0 - p_one > 0.0:
            branches.append((1.0 - p_one, self.collapse(vector, qubit, 0, 1.0 - p_one)))
        if p_one > 0.0:
            collapsed = self.collapse(vector, qubit, 1, p_one)
            flip = self.operator_chain({qubit: _X2})
            branches.append((p_one, self.multiply_matrix_vector(flip, collapsed)))
        return branches

    # ------------------------------------------------------------------
    # matrix queries
    # ------------------------------------------------------------------

    def trace(self, matrix: MEdge) -> complex:
        """Trace of a matrix DD over the full register.

        Memoized per node, so diagrams with heavy sharing (e.g. the identity)
        are traced in time linear in their node count rather than exponential
        in the number of qubits.
        """
        node = matrix.node
        if node is None:
            weight = matrix.weight
            return 0.0 if weight == 0 else weight
        key = id(node)
        table = self._trace._table
        cached = table.get(key)
        if cached is None:
            edges = node.edges
            cached = self.trace(edges[0]) + self.trace(edges[3])
            table[key] = cached
        return matrix.weight * cached

    def max_entry_magnitude(self, matrix: MEdge) -> float:
        """Largest absolute value of any entry of the represented matrix."""
        node = matrix.node
        if node is None:
            weight = matrix.weight
            return 0.0 if weight == 0 else abs(weight)
        key = id(node)
        table = self._max_entry._table
        cached = table.get(key)
        if cached is None:
            # Unrolled so that deep diagrams recurse one frame per level.
            edges = node.edges
            recurse = self.max_entry_magnitude
            cached = max(
                recurse(edges[0]), recurse(edges[1]), recurse(edges[2]), recurse(edges[3])
            )
            table[key] = cached
        return abs(matrix.weight) * cached

    def identity_scalar(self, matrix: MEdge, tolerance: float = 1e-7) -> complex | None:
        """Return ``c`` if the matrix equals ``c * I`` (within tolerance), else None."""

        cache: dict[int, complex | None] = {}
        max_entry = self.max_entry_magnitude

        # One frame per DD level: the node test is inlined, not a helper.
        def recurse(edge: MEdge) -> complex | None:
            node = edge.node
            if node is None:
                weight = edge.weight
                return 0.0 if weight == 0 else weight
            key = id(node)
            if key in cache:
                scalar = cache[key]
            else:
                edges = node.edges
                scalar = None
                if not (max_entry(edges[1]) > tolerance or max_entry(edges[2]) > tolerance):
                    low = recurse(edges[0])
                    high = recurse(edges[3]) if low is not None else None
                    if high is not None and not abs(low - high) > tolerance:
                        scalar = low
                cache[key] = scalar
            if scalar is None:
                return None
            return edge.weight * scalar

        return recurse(matrix)

    def is_identity(
        self, matrix: MEdge, up_to_global_phase: bool = True, tolerance: float = 1e-7
    ) -> bool:
        """Whether the matrix DD represents the identity (optionally up to phase)."""
        scalar = self.identity_scalar(matrix, tolerance)
        if scalar is None:
            return False
        if up_to_global_phase:
            return abs(abs(scalar) - 1.0) <= tolerance
        return abs(scalar - 1.0) <= tolerance

    # ------------------------------------------------------------------
    # gate cache
    # ------------------------------------------------------------------

    def gate_cache_lookup(self, key) -> MEdge | None:
        """Look up a previously built gate DD (None on a miss).

        Keys are hashable gate descriptions — ``(gate, qubits)`` as produced by
        :func:`repro.dd.circuits.instruction_to_dd`.  A hit marks the entry as
        most recently used.  Hit/miss/eviction counters feed
        :meth:`statistics`.
        """
        cached = self._gate_cache.get(key)
        if cached is None:
            self._gate_cache_misses += 1
            return None
        self._gate_cache_hits += 1
        self._gate_cache.move_to_end(key)
        return cached

    def gate_cache_store(self, key, edge: MEdge) -> None:
        """Memoize the matrix DD of a gate.

        When ``gate_cache_size`` is set, storing beyond the bound evicts the
        least recently used entries.
        """
        cache = self._gate_cache
        cache[key] = edge
        if self.gate_cache_size is not None:
            while len(cache) > self.gate_cache_size:
                cache.popitem(last=False)
                self._gate_cache_evictions += 1

    # ------------------------------------------------------------------
    # conversion and inspection
    # ------------------------------------------------------------------

    def vector_to_numpy(self, vector: VEdge) -> np.ndarray:
        """Expand a vector DD into a dense amplitude array (little-endian)."""

        def recurse(edge: VEdge, level: int) -> np.ndarray:
            size = 1 << (level + 1)
            if edge.node is None and edge.weight == 0:
                return np.zeros(size, dtype=complex)
            if level < 0:
                return np.array([edge.weight], dtype=complex)
            result = np.concatenate(
                [recurse(edge.node.edges[0], level - 1), recurse(edge.node.edges[1], level - 1)]
            )
            return edge.weight * result

        return recurse(vector, self.num_qubits - 1)

    def matrix_to_numpy(self, matrix: MEdge) -> np.ndarray:
        """Expand a matrix DD into a dense array (little-endian indices)."""

        def recurse(edge: MEdge, level: int) -> np.ndarray:
            size = 1 << (level + 1)
            if edge.node is None and edge.weight == 0:
                return np.zeros((size, size), dtype=complex)
            if level < 0:
                return np.array([[edge.weight]], dtype=complex)
            blocks = [recurse(child, level - 1) for child in edge.node.edges]
            top = np.concatenate([blocks[0], blocks[1]], axis=1)
            bottom = np.concatenate([blocks[2], blocks[3]], axis=1)
            return edge.weight * np.concatenate([top, bottom], axis=0)

        return recurse(matrix, self.num_qubits - 1)

    @property
    def nodes_created(self) -> int:
        """Nodes this package has created so far, vector and matrix.

        The unique tables are never cleared, so this is the sum of both
        table sizes and never decreases: the growth between two readings is
        the DD work done in between, a deterministic measure of it (the
        portfolio manager charges checker turns by it).
        """
        return len(self._vector_table) + len(self._matrix_table)

    @staticmethod
    def count_nodes(edge: "VEdge | MEdge") -> int:
        """Number of distinct nodes reachable from ``edge`` (excluding the terminal).

        The walk is iterative (an explicit stack and a set of visited
        nodes), so diagrams of any depth are counted without hitting the
        interpreter's recursion limit.
        """
        root = edge.node
        if root is None:
            return 0
        seen = {root}
        mark = seen.add
        stack = [root]
        push = stack.append
        pop = stack.pop
        while stack:
            for child in pop().edges:
                node = child.node
                if node is not None and node not in seen:
                    mark(node)
                    push(node)
        return len(seen)

    def statistics(self) -> dict[str, float]:
        """Table sizes and cache hit ratios (for reporting and benchmarks)."""
        return {
            "vector_nodes": len(self._vector_table),
            "matrix_nodes": len(self._matrix_table),
            "vector_unique_hit_ratio": self._vector_table.hit_ratio,
            "matrix_unique_hit_ratio": self._matrix_table.hit_ratio,
            "add_vector_cache": len(self._add_v),
            "add_matrix_cache": len(self._add_m),
            "multiply_mv_cache": len(self._mult_mv),
            "multiply_mm_cache": len(self._mult_mm),
            "trace_cache": len(self._trace),
            "gate_cache_size": len(self._gate_cache),
            "gate_cache_limit": self.gate_cache_size,
            "gate_cache_hits": self._gate_cache_hits,
            "gate_cache_misses": self._gate_cache_misses,
            "gate_cache_evictions": self._gate_cache_evictions,
            "gate_cache_hit_ratio": (
                self._gate_cache_hits / (self._gate_cache_hits + self._gate_cache_misses)
                if (self._gate_cache_hits + self._gate_cache_misses)
                else 0.0
            ),
        }

    def clear_caches(self) -> None:
        """Drop all compute tables and the gate cache (unique tables are kept)."""
        for table in (
            self._add_v,
            self._add_m,
            self._mult_mv,
            self._mult_mm,
            self._inner,
            self._norm,
            self._max_entry,
            self._trace,
        ):
            table.clear()
        self._gate_cache.clear()
