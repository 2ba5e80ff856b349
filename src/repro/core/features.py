"""Circuit feature extraction for portfolio scheduling.

The adaptive scheduler (:mod:`repro.core.scheduler`) decides checker order
and budgets from cheap structural features of the circuit pair — never from
simulating them.  :func:`extract_features` collects the counts, gate-type
diversity, dynamic-primitive flags and the per-instruction signature stream
in a single pass over the instructions (depth is delegated to
:meth:`~repro.circuit.circuit.QuantumCircuit.depth` so the two never drift);
:func:`extract_pair_features` adds pair-level features such as the
positional structural similarity of the two gate streams.

All feature types are plain frozen dataclasses: picklable (they travel inside
scheduling decisions to process-pool workers) and JSON-friendly via
``to_dict`` (they are recorded in
:class:`~repro.core.results.PortfolioResult`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuit.circuit import QuantumCircuit
from repro.core.transformation import to_unitary_circuit
from repro.exceptions import TransformationError

__all__ = [
    "CircuitFeatures",
    "PairFeatures",
    "circuit_features",
    "extract_features",
    "extract_pair_features",
]


@dataclass(frozen=True)
class CircuitFeatures:
    """Structural features of one circuit, collected in a single pass.

    ``num_gates`` counts unitary gate instructions (conditioned or not);
    barriers are ignored throughout.  ``gate_types`` is the sorted tuple of
    distinct gate names, the basis of the diversity features.

    ``needs_scheme_two`` is whether the circuit has a classically-conditioned
    reset *and* Scheme-1 unitary reconstruction
    (:func:`~repro.core.transformation.to_unitary_circuit`) fails on it, so
    that only a behavioural (Scheme-2) checker can compare it.  Scheme 1
    turns most conditioned resets into a quantum-controlled SWAP with a fresh
    ancilla; it fails on a conditioned reset of a qubit that was measured
    itself, such as a reset conditioned on its own qubit's measurement.
    The reconstruction is only attempted for circuits with a conditioned
    reset, so the flag costs nothing on every other circuit.
    """

    num_qubits: int
    num_clbits: int
    num_gates: int
    num_two_qubit_gates: int
    num_measurements: int
    num_resets: int
    num_classically_controlled: int
    num_conditioned_resets: int
    depth: int
    gate_types: tuple[str, ...]
    has_mid_circuit_measurement: bool
    needs_scheme_two: bool

    @property
    def num_gate_types(self) -> int:
        return len(self.gate_types)

    @property
    def gate_diversity(self) -> float:
        """Distinct gate types per gate — 0 for an empty circuit, up to 1."""
        return self.num_gate_types / self.num_gates if self.num_gates else 0.0

    @property
    def two_qubit_ratio(self) -> float:
        """Fraction of gates acting on two or more qubits."""
        return self.num_two_qubit_gates / self.num_gates if self.num_gates else 0.0

    @property
    def is_dynamic(self) -> bool:
        """Mirrors :attr:`QuantumCircuit.is_dynamic` (from the same pass)."""
        return bool(
            self.num_resets
            or self.num_classically_controlled
            or self.has_mid_circuit_measurement
        )

    def to_dict(self) -> dict:
        """JSON-friendly view, including the derived ratios."""
        return {
            "num_qubits": self.num_qubits,
            "num_clbits": self.num_clbits,
            "num_gates": self.num_gates,
            "num_two_qubit_gates": self.num_two_qubit_gates,
            "num_measurements": self.num_measurements,
            "num_resets": self.num_resets,
            "num_classically_controlled": self.num_classically_controlled,
            "num_conditioned_resets": self.num_conditioned_resets,
            "depth": self.depth,
            "num_gate_types": self.num_gate_types,
            "gate_diversity": self.gate_diversity,
            "two_qubit_ratio": self.two_qubit_ratio,
            "is_dynamic": self.is_dynamic,
            "needs_scheme_two": self.needs_scheme_two,
        }


def _signature(instruction) -> tuple:
    """Positional fingerprint of one instruction for similarity comparison."""
    operation = instruction.operation
    params = tuple(
        round(p, 9) if isinstance(p, (int, float)) else str(p)
        for p in getattr(operation, "params", ())
    )
    condition = instruction.condition
    condition_key = (
        (condition.clbits, condition.bit_values) if condition is not None else None
    )
    return (operation.name, params, instruction.qubits, instruction.clbits, condition_key)


def extract_features(
    circuit: QuantumCircuit,
) -> tuple[CircuitFeatures, list[tuple]]:
    """Extract :class:`CircuitFeatures` plus the signature stream, one pass.

    The signature stream (one fingerprint per non-barrier instruction, in
    order) is returned alongside so pair-level similarity never needs a
    second scan; use :func:`circuit_features` when only the features matter.
    """
    num_gates = 0
    num_two_qubit = 0
    num_measurements = 0
    num_resets = 0
    num_conditioned = 0
    num_conditioned_resets = 0
    gate_types: set[str] = set()
    signatures: list[tuple] = []
    measured: set[int] = set()
    mid_circuit_measurement = False

    for instruction in circuit:
        if instruction.is_barrier:
            continue
        signatures.append(_signature(instruction))

        if instruction.condition is not None:
            num_conditioned += 1
            if instruction.is_reset:
                num_conditioned_resets += 1
        if instruction.is_gate:
            num_gates += 1
            gate_types.add(instruction.operation.name)
            if len(instruction.qubits) >= 2:
                num_two_qubit += 1
        elif instruction.is_measurement:
            num_measurements += 1
            measured.add(instruction.qubits[0])
        elif instruction.is_reset:
            num_resets += 1
        # Mirrors the measured-qubit rule of QuantumCircuit.is_dynamic: any
        # non-measurement touching an already-measured qubit is mid-circuit.
        if not instruction.is_measurement and measured.intersection(instruction.qubits):
            mid_circuit_measurement = True

    features = CircuitFeatures(
        num_qubits=circuit.num_qubits,
        num_clbits=circuit.num_clbits,
        num_gates=num_gates,
        num_two_qubit_gates=num_two_qubit,
        num_measurements=num_measurements,
        num_resets=num_resets,
        num_classically_controlled=num_conditioned,
        num_conditioned_resets=num_conditioned_resets,
        depth=circuit.depth(),
        gate_types=tuple(sorted(gate_types)),
        has_mid_circuit_measurement=mid_circuit_measurement,
        needs_scheme_two=num_conditioned_resets > 0 and not _reconstructible(circuit),
    )
    return features, signatures


def _reconstructible(circuit: QuantumCircuit) -> bool:
    """Whether Scheme-1 unitary reconstruction succeeds on ``circuit``."""
    try:
        to_unitary_circuit(circuit)
    except TransformationError:
        return False
    return True


def circuit_features(circuit: QuantumCircuit) -> CircuitFeatures:
    """The :class:`CircuitFeatures` of one circuit (signature stream dropped)."""
    features, _ = extract_features(circuit)
    return features


@dataclass(frozen=True)
class PairFeatures:
    """Features of a circuit *pair*, the scheduler's actual input."""

    first: CircuitFeatures
    second: CircuitFeatures
    structural_similarity: float
    qubit_counts_match: bool
    clbit_counts_match: bool

    @property
    def gate_count_ratio(self) -> float:
        """min/max gate-count ratio — 1.0 for equally long circuits."""
        low = min(self.first.num_gates, self.second.num_gates)
        high = max(self.first.num_gates, self.second.num_gates)
        return low / high if high else 1.0

    @property
    def any_dynamic(self) -> bool:
        return self.first.is_dynamic or self.second.is_dynamic

    @property
    def needs_scheme_two(self) -> bool:
        return self.first.needs_scheme_two or self.second.needs_scheme_two

    @property
    def comparable_distributions(self) -> bool:
        """Whether the Scheme-2 distribution checker can run on this pair."""
        return (
            self.clbit_counts_match
            and self.first.num_clbits > 0
            and self.first.num_measurements > 0
            and self.second.num_measurements > 0
        )

    @property
    def gate_diversity(self) -> float:
        return max(self.first.gate_diversity, self.second.gate_diversity)

    @property
    def gate_sets_match(self) -> bool:
        """Whether both circuits use the same set of gate names.

        False is the signature of a *translated* pair (same logic, different
        basis) — exactly the workload the library-driven ``rewrite`` checker
        reduces to identity cheaply, so the adaptive scheduler front-loads it
        when this is False.
        """
        return self.first.gate_types == self.second.gate_types

    def to_dict(self) -> dict:
        return {
            "first": self.first.to_dict(),
            "second": self.second.to_dict(),
            "structural_similarity": self.structural_similarity,
            "gate_count_ratio": self.gate_count_ratio,
            "qubit_counts_match": self.qubit_counts_match,
            "clbit_counts_match": self.clbit_counts_match,
            "any_dynamic": self.any_dynamic,
            "needs_scheme_two": self.needs_scheme_two,
            "gate_sets_match": self.gate_sets_match,
        }


def extract_pair_features(
    first: QuantumCircuit, second: QuantumCircuit
) -> PairFeatures:
    """Extract the pair-level feature vector the scheduler consumes.

    ``structural_similarity`` is the fraction of positions at which the two
    instruction streams carry an identical fingerprint (gate name, rounded
    parameters, operand wires), over the longer stream: 1.0 for identical
    builds, near 0 for structurally unrelated circuits.
    """
    features_first, signatures_first = extract_features(first)
    features_second, signatures_second = extract_features(second)
    longest = max(len(signatures_first), len(signatures_second))
    if longest == 0:
        similarity = 1.0
    else:
        matches = sum(
            1 for a, b in zip(signatures_first, signatures_second) if a == b
        )
        similarity = matches / longest
    return PairFeatures(
        first=features_first,
        second=features_second,
        structural_similarity=similarity,
        qubit_counts_match=first.num_qubits == second.num_qubits,
        clbit_counts_match=first.num_clbits == second.num_clbits,
    )
