"""Transpilation-aware equivalence: one verdict serves every translation level.

Real compilation-flow traffic is "same circuit, other gate set": a toolchain
verifies a circuit, lowers it to CX + single-qubit gates, re-verifies, rewrites
the single-qubit layer into ``U`` gates, re-verifies again.  PR 7 makes that
traffic nearly free three ways, all driven by one ``EquivalenceLibrary`` of
gate rewrite rules:

1. **Canonical fingerprints** — circuits are canonicalized (library-driven
   basis translation + single-qubit merging) before hashing, so the verdict
   cache hits across translation levels even though the raw fingerprints
   differ;
2. **Canonical matching** — the alternating DD checker puts the gates that
   have no identical partner on the other side into the same canonical form
   and cancels the matched pairs, so a translated pair is proved (or
   refuted) with almost no DD work;
3. **Symbolic parameters** — a parameterized template circuit built once,
   with every numeric binding produced by substitution.

Run with ``python examples/transpilation_verification.py``.
"""

import time

from repro import EquivalenceCheckingManager
from repro.algorithms import qft_static_benchmark
from repro.circuit import QuantumCircuit
from repro.circuit.gates import RZGate, UGate
from repro.circuit.parameter import Parameter
from repro.compilation import (
    decompose_to_cx_and_single_qubit,
    rewrite_single_qubit_to_u,
)
from repro.core import Configuration
from repro.service.fingerprint import canonical_pair_fingerprint, pair_fingerprint


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Three translation levels of the same circuit: raw fingerprints
    #    all differ, the canonical fingerprint is one and the same.
    # ------------------------------------------------------------------
    original = qft_static_benchmark(5)
    level_one = decompose_to_cx_and_single_qubit(original)  # CX + 1q basis
    level_two = rewrite_single_qubit_to_u(level_one)        # 1q layer as U gates
    config = Configuration(seed=42)

    raw = [pair_fingerprint(original, c, config) for c in (original, level_one, level_two)]
    canonical = [
        canonical_pair_fingerprint(original, c, config)
        for c in (original, level_one, level_two)
    ]
    print("raw fingerprints distinct:   ", len(set(raw)) == 3)
    print("canonical fingerprints equal:", len(set(canonical)) == 1)

    # ------------------------------------------------------------------
    # 2. Verify at one translation level, hit the cache at every other.
    # ------------------------------------------------------------------
    manager = EquivalenceCheckingManager(seed=42, verdict_cache=True)
    started = time.perf_counter()
    cold = manager.run(original, level_one)
    cold_ms = (time.perf_counter() - started) * 1000
    print(f"level 1: {cold.criterion.value} in {cold_ms:.1f}ms (cached={cold.cached})")

    started = time.perf_counter()
    warm = manager.run(original, level_two)  # other gate set, other raw key
    warm_ms = (time.perf_counter() - started) * 1000
    print(
        f"level 2: {warm.criterion.value} in {warm_ms:.2f}ms "
        f"(cached={warm.cached}, via={warm.cached_via}, "
        f"{cold_ms / warm_ms:.0f}x faster)"
    )

    # ------------------------------------------------------------------
    # 3. Without the cache, the alternating checker matches the translated
    #    gates on their canonical form and cancels the pairs it matched.
    # ------------------------------------------------------------------
    prover = EquivalenceCheckingManager(seed=42, verdict_cache=False)
    result = prover.run(original, level_two)
    (attempt,) = [a for a in result.attempts if a.method == "alternating"]
    details = attempt.result.details
    print(f"translated pair: {result.criterion.value} decided_by={result.decided_by}")
    print(
        f"  {details['num_gates_first']} vs {details['num_gates_second']} gates, "
        f"{details['cancelled_pairs']} canonical pairs cancelled, "
        f"peak {details['max_nodes']} DD nodes"
    )

    # ------------------------------------------------------------------
    # 4. Symbolic parameters: build a template once, bind many times.
    # ------------------------------------------------------------------
    theta, phi = Parameter("theta"), Parameter("phi")
    template = QuantumCircuit(2, name="ansatz")
    template.append(UGate(theta, phi, -phi), [0])
    template.cx(0, 1)
    template.append(RZGate(theta / 2), [1])
    print("template free parameters:", sorted(p.name for p in template.free_parameters))

    checker = EquivalenceCheckingManager(seed=42)
    for value in (0.25, 1.5):
        bound = template.bind_parameters({"theta": value, "phi": value / 3})
        verdict = checker.run(bound, decompose_to_cx_and_single_qubit(bound))
        print(f"  theta={value}: {verdict.criterion.value}")


if __name__ == "__main__":
    main()
