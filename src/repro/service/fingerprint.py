"""Canonical structural fingerprints for circuits, pairs and configurations.

The verdict cache and the job-queue server key their entries by a SHA-256
digest of a *canonical form* of the input: the flat instruction stream over
circuit-level bit indices, plus the verdict-relevant configuration fields.
Canonical means stable across every representation detail that cannot change
a verdict:

* register *names* and bit-object identity (only flat indices are hashed);
* pickle round-trips (``QuantumCircuit.__getstate__`` rebuilds the identical
  stream);
* QASM export/import round-trips — gate parameters are hashed through the
  same canonical text form the QASM exporter uses
  (:func:`repro.circuit.qasm._format_param`), so an angle that exports as
  ``pi/2`` and re-imports as ``math.pi / 2`` fingerprints identically;
* barriers, which are semantically inert and are skipped.

A circuit keeps the ``repr`` text of its canonical form, and of the form of
its canonicalized circuit, once computed (``QuantumCircuit._forms``, cleared
by every ``append``, ``append_instruction`` and ``add_register``).  A pair
digest is assembled from those texts as exactly the ``repr`` of the form
tuple, so a circuit fingerprinted twice is walked once and every digest is
byte-identical to one hashed from the tuple itself.  The canonicalized form
is built straight from one
:func:`~repro.compilation.canonical.canonical_forms` walk, with no
canonicalized circuit in between.

Anything that *can* change a verdict is part of the key: gate names,
parameters, operand order, control states, classical conditions, qubit/clbit
counts, the order of the two circuits in a pair, and the configuration
fields listed in :data:`VERDICT_CONFIGURATION_FIELDS`.  Performance-only
knobs (``executor``, ``max_workers``, ``gate_cache_size``,
``batch_chunk_size``, the cache knobs themselves) are deliberately excluded:
they are verdict-preserving by construction (and agreement-tested), so runs
that differ only in those knobs share cache entries.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable
from typing import TYPE_CHECKING

from repro.circuit.qasm import _format_param
from repro.exceptions import ReproError

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.circuit.circuit import QuantumCircuit
    from repro.circuit.operations import Instruction
    from repro.core.configuration import Configuration

__all__ = [
    "VERDICT_CONFIGURATION_FIELDS",
    "canonical_circuit_form",
    "canonical_configuration_form",
    "canonical_fingerprints_sound_for",
    "canonical_pair_fingerprint",
    "circuit_fingerprint",
    "configuration_fingerprint",
    "pair_fingerprint",
]

#: Version tag mixed into every digest.  Bump when the canonical form
#: changes so stale persistent cache entries can never be misread as hits.
_FORM_VERSION = "repro-fingerprint-v1"

#: Angle resolution of the canonical form: parameters are hashed through the
#: QASM exporter's text form, which snaps values within 1e-12 of a pi
#: multiple to that multiple (exactly what a QASM round-trip does, and what
#: ``Operation.__eq__`` equates).  Circuits whose angles differ by less than
#: this are one circuit as far as serialization is concerned — but a
#: ``Configuration.tolerance`` at or below this window could in principle
#: distinguish them, so such configurations must not use fingerprint-keyed
#: caching or dedup (see :func:`fingerprints_sound_for`).
CANONICAL_ANGLE_RESOLUTION = 1e-12


def fingerprints_sound_for(configuration: "Configuration | None") -> bool:
    """Whether fingerprint-keyed caching is sound under this configuration.

    False only for tolerances at or below the canonical angle resolution,
    where two circuits that share a fingerprint could in principle be told
    apart by the checkers.
    """
    return configuration is None or configuration.tolerance > CANONICAL_ANGLE_RESOLUTION


def canonical_fingerprints_sound_for(configuration: "Configuration | None") -> bool:
    """Whether *canonicalized* fingerprints are sound under this configuration.

    The canonical form additionally quantizes merged-gate angles onto the
    coarser :data:`~repro.compilation.canonical.CANONICAL_ANGLE_GRID`, so two
    circuits within that grid share a canonical fingerprint.  That is only
    safe when the tolerance out-resolves the grid; tighter tolerances must
    fall back to raw fingerprints (handled by callers returning ``None``
    from :func:`canonical_pair_fingerprint`).
    """
    from repro.compilation.canonical import CANONICAL_ANGLE_GRID

    if not fingerprints_sound_for(configuration):
        return False
    return configuration is None or configuration.tolerance > CANONICAL_ANGLE_GRID


#: Configuration fields that can influence the criterion of a portfolio run.
#: ``portfolio`` is resolved to the effective lineup (``None`` selects the
#: default portfolio, which must share entries with the same lineup spelled
#: out); ``seed`` keys the simulative stimuli; the timeout fields make
#: outcomes time-dependent and therefore partition the cache.
VERDICT_CONFIGURATION_FIELDS = (
    "method",
    "backend",
    "tolerance",
    "num_simulations",
    "stimuli_type",
    "seed",
    "scheduler",
    "timeout",
    "checker_timeout",
)


def _canonical_operation(operation) -> tuple:
    """Hashable description of an operation, canonical across round-trips."""
    ctrl_state = getattr(operation, "ctrl_state", None)
    num_ctrl_qubits = getattr(operation, "num_ctrl_qubits", None)
    base_gate = getattr(operation, "base_gate", None)
    return (
        operation.name,
        operation.num_qubits,
        operation.num_clbits,
        tuple(_format_param(param) for param in operation.params),
        num_ctrl_qubits,
        ctrl_state,
        base_gate.name if base_gate is not None else None,
    )


def canonical_circuit_form(circuit: "QuantumCircuit") -> tuple:
    """The hashable canonical form of a circuit (exposed for tests/debugging).

    A flat tuple of the bit counts and the barrier-free instruction stream;
    two circuits have equal canonical forms iff they are structurally
    identical up to register naming, bit identity and barriers.
    """
    return _form(circuit, circuit)


def _form(circuit: "QuantumCircuit", instructions: "Iterable[Instruction]") -> tuple:
    """The form of ``instructions`` over the bits of ``circuit``."""
    entries = []
    for instruction in instructions:
        if instruction.is_barrier:
            continue
        condition = instruction.condition
        entries.append(
            (
                _canonical_operation(instruction.operation),
                instruction.qubits,
                instruction.clbits,
                (condition.clbits, condition.value) if condition is not None else None,
            )
        )
    return (
        _FORM_VERSION,
        circuit.num_qubits,
        circuit.num_clbits,
        tuple(entries),
    )


def canonical_configuration_form(configuration: "Configuration | None") -> tuple:
    """The hashable canonical form of the verdict-relevant configuration."""
    if configuration is None:
        return (_FORM_VERSION, None)
    from repro.core.manager import DEFAULT_PORTFOLIO

    portfolio = configuration.portfolio or DEFAULT_PORTFOLIO
    fields = tuple(
        (name, getattr(configuration, name)) for name in VERDICT_CONFIGURATION_FIELDS
    )
    return (_FORM_VERSION, ("portfolio", tuple(portfolio)), *fields)


def _digest(form: tuple) -> str:
    # repr() of the canonical form is deterministic across processes and
    # interpreter runs: it only ever contains str/int/bool/None/float leaves
    # inside tuples, and floats round-trip exactly through repr.
    return _sha256(repr(form))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _form_text(circuit: "QuantumCircuit") -> str:
    """``repr(canonical_circuit_form(circuit))``, kept on the circuit."""
    forms = circuit._forms
    text = forms.get("raw")
    if text is None:
        text = forms["raw"] = repr(canonical_circuit_form(circuit))
    return text


def _canonicalized_form_text(circuit: "QuantumCircuit") -> str | None:
    """The form text of ``canonicalize(circuit)``, kept on the circuit.

    Built in one :func:`~repro.compilation.canonical.canonical_forms` walk,
    without the canonicalized circuit.  None, remembered too, for a circuit
    with free parameters or one the library cannot translate; any other
    error propagates.
    """
    forms = circuit._forms
    if "canonical" in forms:
        return forms["canonical"]
    from repro.compilation.canonical import canonical_instructions

    text = None
    if not circuit.free_parameters:
        try:
            text = repr(_form(circuit, canonical_instructions(circuit)))
        except ReproError:
            pass
    forms["canonical"] = text
    return text


def _pair_digest(
    tag: str, first: str, second: str, configuration: "Configuration | None"
) -> str:
    """``_digest((_FORM_VERSION, tag, form1, form2, configuration form))``
    from the two circuits' form texts: the joined text is exactly that
    tuple's ``repr``."""
    parts = (
        repr(_FORM_VERSION),
        repr(tag),
        first,
        second,
        repr(canonical_configuration_form(configuration)),
    )
    return _sha256("(" + ", ".join(parts) + ")")


def circuit_fingerprint(circuit: "QuantumCircuit") -> str:
    """SHA-256 hex digest of a circuit's canonical structural form."""
    return _sha256(_form_text(circuit))


def configuration_fingerprint(configuration: "Configuration | None") -> str:
    """SHA-256 hex digest of the verdict-relevant configuration fields."""
    return _digest(canonical_configuration_form(configuration))


def pair_fingerprint(
    first: "QuantumCircuit",
    second: "QuantumCircuit",
    configuration: "Configuration | None" = None,
) -> str:
    """Fingerprint of an *ordered* circuit pair under a configuration.

    This is the verdict-cache key: it commits to both circuits' structure,
    their order (swapping the operands is a different check), and every
    configuration field that can influence the criterion.
    """
    return _pair_digest("pair", _form_text(first), _form_text(second), configuration)


def canonical_pair_fingerprint(
    first: "QuantumCircuit",
    second: "QuantumCircuit",
    configuration: "Configuration | None" = None,
) -> str | None:
    """Translation-level-invariant fingerprint of an ordered circuit pair.

    Both circuits are :func:`~repro.compilation.canonical.canonicalize`\\ d
    (library-translated to the CX + single-qubit basis, adjacent single-qubit
    runs merged and quantized) before hashing, so the same logical pair
    fingerprints identically at every translation level.  Keys are kept
    distinct from :func:`pair_fingerprint` by a separate form tag — a raw
    and a canonical entry for the same pair can coexist in the
    :class:`~repro.service.cache.VerdictCache` without colliding.

    Returns ``None`` — callers skip the canonical tier rather than failing —
    when the configuration's tolerance out-resolves the canonical angle grid
    or when a circuit cannot be canonicalized (e.g. a gate with no
    translation to the base gate set).
    """
    if not canonical_fingerprints_sound_for(configuration):
        return None
    first_text = _canonicalized_form_text(first)
    if first_text is None:
        return None
    second_text = _canonicalized_form_text(second)
    if second_text is None:
        return None
    return _pair_digest("canonical-pair", first_text, second_text, configuration)
