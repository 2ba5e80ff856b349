"""Circuit feature extraction for portfolio scheduling.

The adaptive scheduler (:mod:`repro.core.scheduler`) decides checker order
from cheap structural features of the circuit pair — never from simulating
them.  :func:`extract_features` collects the counts, gate types and
dynamic-primitive flags in a single pass over the instructions (depth is
delegated to :meth:`~repro.circuit.circuit.QuantumCircuit.depth` so the two
never drift) and tries Scheme-1 reconstruction where it can fail;
:func:`extract_pair_features` adds whether Scheme 1 fails on either circuit
and whether the pair's outcome distributions are comparable.

All feature types are plain frozen dataclasses: picklable (they travel inside
scheduling decisions to process-pool workers) and JSON-friendly via
``to_dict`` (they are recorded in
:class:`~repro.core.results.PortfolioResult`).  A circuit whose Scheme-1
reconstruction was tried keeps it (:meth:`CircuitFeatures.reconstruction_of`),
so the manager transforms each dynamic circuit once per run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.circuit.circuit import QuantumCircuit
from repro.core.transformation import to_unitary_circuit
from repro.exceptions import TransformationError

__all__ = [
    "CircuitFeatures",
    "PairFeatures",
    "extract_features",
    "extract_pair_features",
]


@dataclass(frozen=True)
class CircuitFeatures:
    """Structural features of one circuit, collected in a single pass.

    ``num_gates`` counts unitary gate instructions (conditioned or not);
    barriers are ignored throughout.  ``gate_types`` is the sorted tuple of
    distinct gate names.

    ``needs_scheme_two`` is whether Scheme-1 unitary reconstruction
    (:func:`~repro.core.transformation.to_unitary_circuit`) fails on the
    circuit, so that only a behavioural (Scheme-2) checker can compare it.
    Scheme 1 turns most conditioned resets into a quantum-controlled SWAP
    with a fresh ancilla; it fails on a conditioned reset of a qubit that was
    measured itself, and on a measured qubit used again without a reset in
    between.  The reconstruction is only attempted for circuits with a
    conditioned reset or a mid-circuit measurement, so the flag costs
    nothing on every other circuit.  A successful reconstruction is kept
    with the circuit it was made from (``reconstruction``, ``source``);
    they are not features, so comparisons, ``repr`` and :meth:`to_dict`
    leave them out.
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
    source: QuantumCircuit | None = field(default=None, compare=False, repr=False)
    reconstruction: QuantumCircuit | None = field(default=None, compare=False, repr=False)

    def reconstruction_of(self, circuit: QuantumCircuit) -> QuantumCircuit | None:
        """The Scheme-1 reconstruction made here if it was made from ``circuit``."""
        return self.reconstruction if circuit is self.source else None

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


def extract_features(circuit: QuantumCircuit) -> CircuitFeatures:
    """Extract the :class:`CircuitFeatures` of one circuit in one pass."""
    num_gates = 0
    num_two_qubit = 0
    num_measurements = 0
    num_resets = 0
    num_conditioned = 0
    num_conditioned_resets = 0
    gate_types: set[str] = set()
    measured: set[int] = set()
    mid_circuit_measurement = False

    for instruction in circuit:
        if instruction.is_barrier:
            continue
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

    reconstruction = None
    tried = bool(num_conditioned_resets or mid_circuit_measurement)
    if tried:
        try:
            reconstruction = to_unitary_circuit(circuit).circuit
        except TransformationError:
            pass
    return CircuitFeatures(
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
        needs_scheme_two=tried and reconstruction is None,
        source=None if reconstruction is None else circuit,
        reconstruction=reconstruction,
    )


@dataclass(frozen=True)
class PairFeatures:
    """Features of a circuit *pair*, the scheduler's actual input."""

    first: CircuitFeatures
    second: CircuitFeatures
    qubit_counts_match: bool
    clbit_counts_match: bool

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

    def to_dict(self) -> dict:
        return {
            "first": self.first.to_dict(),
            "second": self.second.to_dict(),
            "qubit_counts_match": self.qubit_counts_match,
            "clbit_counts_match": self.clbit_counts_match,
            "any_dynamic": self.any_dynamic,
            "needs_scheme_two": self.needs_scheme_two,
        }


def extract_pair_features(
    first: QuantumCircuit, second: QuantumCircuit
) -> PairFeatures:
    """Extract the pair-level feature vector the scheduler consumes."""
    return PairFeatures(
        first=extract_features(first),
        second=extract_features(second),
        qubit_counts_match=first.num_qubits == second.num_qubits,
        clbit_counts_match=first.num_clbits == second.num_clbits,
    )
