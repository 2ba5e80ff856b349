"""repro — Handling Non-Unitaries in Quantum Circuit Equivalence Checking.

A from-scratch Python reproduction of Burgholzer & Wille, DAC 2022
(arXiv:2106.01099).  The package contains:

* :mod:`repro.circuit` — a quantum circuit IR with dynamic-circuit primitives
  (mid-circuit measurement, reset, classically-controlled operations),
* :mod:`repro.dd` — a decision-diagram (QMDD) engine,
* :mod:`repro.simulators` — statevector, decision-diagram, density-matrix and
  stochastic simulation backends,
* :mod:`repro.core` — the equivalence-checking engine plus the paper's two
  schemes (unitary reconstruction and distribution extraction),
* :mod:`repro.algorithms` — the benchmark algorithms (Bernstein-Vazirani, QFT,
  QPE) in static and dynamic form,
* :mod:`repro.compilation` — a small compilation stack used for the
  "verification of compilation results" use case,
* :mod:`repro.service` — the verification service layer: canonical circuit
  fingerprints, a persistent verdict cache, and an HTTP job-queue server
  (``repro-qcec serve``) with the matching client.

Quickstart
----------
>>> from repro import QuantumCircuit, check_equivalence
>>> a = QuantumCircuit(2); _ = a.h(0); _ = a.cx(0, 1)
>>> b = QuantumCircuit(2); _ = b.h(0); _ = b.cx(0, 1)
>>> check_equivalence(a, b).equivalent
True
"""

from repro.circuit import (
    ClassicalRegister,
    QuantumCircuit,
    QuantumRegister,
    circuit_from_qasm,
    circuit_to_qasm,
)
from repro.core import (
    BatchResult,
    Checker,
    CheckerOutcome,
    Configuration,
    EquivalenceCheckResult,
    EquivalenceChecker,
    EquivalenceCheckingManager,
    EquivalenceCriterion,
    PortfolioResult,
    Schedule,
    check_behavioural_equivalence,
    check_equivalence,
    extract_distribution,
    extract_pair_features,
    register_checker,
    to_unitary_circuit,
    verify,
    verify_batch,
    verify_portfolio,
)
from repro.simulators import DDSimulator, Statevector, StatevectorSimulator

__version__ = "1.1.0"

#: Service-layer names re-exported lazily (PEP 562): ``import repro`` — and
#: hence every plain CLI invocation — must not pay for ``asyncio`` /
#: ``http.client`` until the service layer is actually touched.
_SERVICE_EXPORTS = (
    "VerdictCache",
    "VerificationClient",
    "VerificationServer",
    "VerificationService",
    "circuit_fingerprint",
    "pair_fingerprint",
)


def __getattr__(name: str):
    if name in _SERVICE_EXPORTS:
        from repro import service

        return getattr(service, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BatchResult",
    "Checker",
    "CheckerOutcome",
    "ClassicalRegister",
    "Configuration",
    "DDSimulator",
    "EquivalenceCheckResult",
    "EquivalenceChecker",
    "EquivalenceCheckingManager",
    "EquivalenceCriterion",
    "PortfolioResult",
    "QuantumCircuit",
    "QuantumRegister",
    "Schedule",
    "Statevector",
    "StatevectorSimulator",
    "VerdictCache",
    "VerificationClient",
    "VerificationServer",
    "VerificationService",
    "__version__",
    "check_behavioural_equivalence",
    "check_equivalence",
    "circuit_fingerprint",
    "circuit_from_qasm",
    "circuit_to_qasm",
    "pair_fingerprint",
    "extract_distribution",
    "extract_pair_features",
    "register_checker",
    "to_unitary_circuit",
    "verify",
    "verify_batch",
    "verify_portfolio",
]
