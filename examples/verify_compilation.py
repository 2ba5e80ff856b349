"""Verification of compilation results (the Fig. 1 use case).

Compiles the 3-bit QPE circuit to the T-shaped five-qubit IBMQ-London device
(basis-gate decomposition, SWAP routing, peephole optimization) and uses the
equivalence checker to confirm that the compiled circuit still realizes the
original functionality.  A deliberately injected compilation bug is then shown
to be detected.

Run with ``python examples/verify_compilation.py``.
"""

from repro.algorithms import qpe_static, running_example_lambda
from repro.compilation import compile_circuit, ibmq_london
from repro.core import check_equivalence


def main() -> None:
    original = qpe_static(3, running_example_lambda)
    device = ibmq_london()
    print("Original circuit:", original.summary())
    print("Target device: IBMQ London,", device.edges)

    compiled = compile_circuit(original, device)
    print("Compiled circuit:", compiled.circuit.summary())
    print("  compilation stats:", compiled.stats)
    print()

    result = check_equivalence(compiled.padded_original, compiled.circuit)
    print("Verification of the compilation result:", result.criterion.value)
    print(f"  method = {result.method}, t_ver = {result.time_check:.4f}s")
    print(f"  peak decision-diagram size: {result.details['max_nodes']} nodes")
    print()

    # Inject a bug: drop one CNOT from the compiled circuit.
    broken = compiled.circuit.copy_empty(name="broken_compilation")
    dropped = False
    for instruction in compiled.circuit:
        if not dropped and instruction.operation.name == "cx":
            dropped = True
            continue
        broken.append_instruction(instruction)
    result = check_equivalence(compiled.padded_original, broken)
    print("Verification after dropping one CNOT:", result.criterion.value)


if __name__ == "__main__":
    main()
