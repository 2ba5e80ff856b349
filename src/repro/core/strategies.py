"""The application schedule of the alternating equivalence-checking scheme.

The alternating scheme builds ``E = U * U'^dagger`` by multiplying gates of
the first circuit onto ``E`` from the left and inverted gates of the second
circuit from the right.  Left- and right-multiplications commute as
operations, and any topological order of a circuit's qubit-sharing DAG gives
the same unitary, so *any* schedule that walks both circuits in such an order
produces the same product — but the schedule determines how large the
intermediate decision diagram gets.

:func:`matched_schedule` keeps ``E`` close to the identity for (nearly)
equivalent circuits in two ways, in the spirit of the application schemes of
Burgholzer & Wille, "Advanced Equivalence Checking for Quantum Circuits"
(IEEE TCAD 2021):

* when a gate that heads every per-qubit queue of its qubits (a *frontier*
  gate) in ``G`` is the same gate on the same qubits as a frontier gate of
  ``G'``, both come out as one matched pair, so ``g * E * g^dagger`` stays
  the identity where ``E`` was (the DD checker then skips the pair
  outright).  This sees through circuits that hold the same gates in a
  commuted order, as QPE's static and reconstructed iterative circuits do;
* otherwise the two sides advance at a rate proportional to their gate counts
  (QCEC's default, Bresenham-style), each taking its lowest-index unapplied
  gate, which is always on its frontier.

A key match is a hint for DD size, never a correctness condition: the
verdict depends only on both sides being walked in a topological order.

:func:`canonical_matching` widens the match to translated pairs (the same
circuit in another gate set): a gate whose key has no partner among the
other circuit's gates is replaced by its canonical form (library translation
to CX plus single-qubit gates, runs merged; see
:func:`repro.compilation.canonical.canonical_forms`) and matched on the
quantized key of that form.  Pairs with no such gate walk unchanged.
"""

from __future__ import annotations

import heapq
from collections import Counter, deque
from collections.abc import Hashable, Iterator, Sequence

from repro.circuit.operations import Instruction
from repro.exceptions import CompilationError

__all__ = ["canonical_matching", "matched_schedule"]

#: Per-side match keys, parallel to the gate lists: small ints, equal for
#: gates that may pair.
Keys = Sequence[int]


def _interned(*sides: Sequence[Hashable]) -> tuple[list[int], ...]:
    """Each side's keys as ints shared across sides (one hash per key)."""
    ids: dict = {}
    return tuple([ids.setdefault(key, len(ids)) for key in side] for side in sides)


def _exact_keys(
    left: Sequence[Instruction], right: Sequence[Instruction]
) -> tuple[list[int], ...]:
    """Keys equal exactly for the same gate on the same qubits."""
    return _interned(
        [(gate.operation, gate.qubits) for gate in left],
        [(gate.operation, gate.qubits) for gate in right],
    )


def _unpartnered(keys: Keys, other: Keys) -> list[bool]:
    """Which entries of ``keys`` the multiset ``other`` leaves without a partner."""
    partners = Counter(other)
    flags = []
    for key in keys:
        flags.append(partners[key] <= 0)
        partners[key] -= 1
    return flags


def canonical_matching(
    left: Sequence[Instruction], right: Sequence[Instruction]
) -> tuple[Sequence[Instruction], Sequence[Instruction], tuple[Keys, ...]]:
    """Both gate lists with their unpartnered gates in canonical form, plus keys.

    When both sides have gates whose exact key has no partner among the
    other side's gates, those gates are translated; the rest keep their own
    gate and key.  A translated gate's key is its quantized canonical form
    on its qubits (``None`` where the canonical form drops it).  The
    returned gates realize each circuit *exactly*, so a key match is still
    only a hint: whoever cancels a matched pair must compare the gates
    themselves.  Circuits the library cannot translate keep their exact
    keys.
    """
    keys = _exact_keys(left, right)
    flags = (_unpartnered(keys[0], keys[1]), _unpartnered(keys[1], keys[0]))
    if not (any(flags[0]) and any(flags[1])):
        # One side's gates all have partners: the other side's extra gates
        # (a mutant's inserted rz, say) have nothing left to match.
        return left, right, keys
    # Imported here: pairs that share every gate never load the compiler.
    from repro.compilation.canonical import canonical_forms

    try:
        forms = [canonical_forms(gates, only) for gates, only in zip((left, right), flags)]
    except CompilationError:
        return left, right, keys
    gates = tuple([exact for exact, _ in side] for side in forms)
    keys = _interned(
        *([(quantized, exact.qubits) for exact, quantized in side] for side in forms)
    )
    return gates[0], gates[1], keys


class _Frontier:
    """Per-qubit gate queues of one circuit and its unpaired frontier gates.

    ``waiting[i]`` counts the queues of gate ``i``'s qubits that ``i`` does
    not head yet; the gate is on the frontier when it reaches 0, and a
    0-qubit gate is on the frontier from the start.  Keeping these counts
    (instead of rescanning a ready set) makes the whole walk
    O(gates x qubits per gate).
    """

    def __init__(self, gates: Sequence[Instruction], keys: Keys) -> None:
        self.gates = gates
        self.keys = keys
        self.applied = [False] * len(gates)
        self.waiting = [len(gate.qubits) for gate in gates]
        self.queues: dict[int, deque[int]] = {}
        for index, gate in enumerate(gates):
            for qubit in gate.qubits:
                self.queues.setdefault(qubit, deque()).append(index)
        # Frontier gates not yet paired with the other side, by key.
        # Entries applied by the proportional fallback are dropped lazily.
        self.unpaired: dict[int, deque[int]] = {}
        self.lowest = 0

    def initial(self) -> list[int]:
        """The gates on the frontier before anything is applied."""
        for queue in self.queues.values():
            self.waiting[queue[0]] -= 1
        return [index for index, count in enumerate(self.waiting) if count == 0]

    def apply(self, index: int) -> list[int]:
        """Mark gate ``index`` applied; return the gates it brings to the frontier."""
        self.applied[index] = True
        arrivals = []
        for qubit in self.gates[index].qubits:
            queue = self.queues[qubit]
            queue.popleft()
            if queue:
                head = queue[0]
                self.waiting[head] -= 1
                if self.waiting[head] == 0:
                    arrivals.append(head)
        return arrivals

    def lowest_unapplied(self) -> int:
        while self.applied[self.lowest]:
            self.lowest += 1
        return self.lowest

    def take_partner(self, key: int) -> int | None:
        """Pop an unapplied, unpaired frontier gate with this key, if any."""
        partners = self.unpaired.get(key)
        while partners:
            index = partners.popleft()
            if not self.applied[index]:
                return index
        return None


def matched_schedule(
    left: Sequence[Instruction],
    right: Sequence[Instruction],
    *,
    keys: tuple[Keys, ...] | None = None,
) -> Iterator[tuple[Instruction | None, Instruction | None]]:
    """Yield ``(left_gate, right_gate)`` items that cover both circuits once.

    ``left_gate`` is a gate of ``left`` (to multiply onto the product from
    the left) and ``right_gate`` a gate of ``right`` (whose inverse is
    multiplied on from the right); an item holds one of them, or both for a
    matched pair: frontier gates of the two sides with the same key, the
    left one to apply first.  Each side's gates come out in a topological
    order of its qubit-sharing DAG: per-qubit order is kept, so the walked
    unitary is unchanged.  Where nothing matches, the sides interleave
    proportionally to their gate counts.  ``keys`` (by default equal for the
    same gate on the same qubits) decides which gates match.
    """
    if keys is None:
        keys = _exact_keys(left, right)
    sides = (_Frontier(left, keys[0]), _Frontier(right, keys[1]))
    # Pending matches, lowest left index first: on identical circuits this
    # emits exactly the proportional order.
    pairs: list[tuple[int, int]] = []

    def arrive(side: int, indices: list[int]) -> None:
        mine, other = sides[side], sides[1 - side]
        for index in indices:
            key = mine.keys[index]
            partner = other.take_partner(key)
            if partner is None:
                mine.unpaired.setdefault(key, deque()).append(index)
            else:
                heapq.heappush(pairs, (index, partner) if side == 0 else (partner, index))

    num_left, num_right = len(left), len(right)
    done = [0, 0]
    error = 0

    def emit(side: int, index: int) -> Instruction:
        nonlocal error
        arrive(side, sides[side].apply(index))
        done[side] += 1
        error += num_left if side else -num_right
        return sides[side].gates[index]

    arrive(0, sides[0].initial())
    arrive(1, sides[1].initial())
    while done[0] < num_left or done[1] < num_right:
        if pairs:
            left_index, right_index = heapq.heappop(pairs)
            yield emit(0, left_index), emit(1, right_index)
            continue
        side = 0 if done[1] >= num_right or (done[0] < num_left and error >= 0) else 1
        gate = emit(side, sides[side].lowest_unapplied())
        yield (None, gate) if side else (gate, None)
