"""The paper's running example: iterative QPE vs. static QPE.

Reproduces the narrative of Figs. 1-3: build the 3-bit static QPE circuit for
``U = p(3*pi/8)`` (Fig. 1a) and its dynamic realization (Fig. 2), reconstruct
the unitary of the dynamic circuit (Fig. 3), and verify equivalence with both
schemes.

Run with ``python examples/iqpe_vs_qpe.py``.
"""

from repro.algorithms import iterative_qpe, qpe_static, running_example_lambda
from repro.core import check_behavioural_equivalence, check_equivalence, to_unitary_circuit

NUM_BITS = 3


def main() -> None:
    static = qpe_static(NUM_BITS, running_example_lambda)
    dynamic = iterative_qpe(NUM_BITS, running_example_lambda)

    print("Static QPE circuit (Fig. 1a):")
    print(static.draw())
    print()
    print("Dynamic (iterative) QPE circuit (Fig. 2):")
    print(dynamic.draw())
    print()
    print(static.summary())
    print(dynamic.summary())
    print()

    # Scheme 1: unitary reconstruction (Section 4 / Fig. 3).
    transformation = to_unitary_circuit(dynamic)
    print(
        f"Unitary reconstruction: {dynamic.num_qubits} qubits + "
        f"{transformation.num_added_qubits} fresh qubits -> "
        f"{transformation.circuit.num_qubits} qubits "
        f"(t_trans = {transformation.time_taken:.6f}s)"
    )
    print("Reconstructed circuit (Fig. 3b):")
    print(transformation.circuit.draw())
    print()

    functional = check_equivalence(static, dynamic)
    print("Full functional verification:", functional.criterion.value)
    print(f"  method = {functional.method}, t_ver = {functional.time_check:.6f}s")
    print()

    # Scheme 2: distribution extraction (Section 5 / Fig. 4).
    behavioural = check_behavioural_equivalence(static, dynamic)
    print("Fixed-input behavioural verification:", behavioural.criterion.value)
    distribution = behavioural.details["distribution_second"]
    print("Outcome distribution of the dynamic circuit (c2 c1 c0):")
    for outcome in sorted(distribution):
        print(f"  |{outcome}> : {distribution[outcome]:.4f}")
    print(
        "The two most probable estimates are |001> and |010>, matching Example 1 "
        "of the paper (theta = 3/16 is not exactly representable with 3 bits)."
    )


if __name__ == "__main__":
    main()
