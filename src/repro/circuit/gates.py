"""Standard gate library.

Every gate knows its unitary matrix, its inverse, and (for gates that a
backend may not support natively) a *definition* in terms of more primitive
gates.  Controlled gates are first-class: :class:`ControlledGate` wraps a base
gate together with a number of control qubits and a control state, which is
exactly the information the decision-diagram backend needs to build the gate
directly (without blowing it up to a dense matrix).

Matrix convention
-----------------
For a gate acting on the qubit tuple ``(q_0, q_1, ..., q_{k-1})`` (the order in
which the qubits are passed to the circuit method), the matrix index is
``sum_j b_j * 2**j`` where ``b_j`` is the basis value of ``q_j``.  In other
words the *first* listed qubit is the least significant bit of the matrix —
the same little-endian convention used by Qiskit.  Controlled gates list their
control qubits first, followed by the qubits of the base gate.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

import numpy as np

from repro.circuit.parameter import ParameterExpression, is_symbolic
from repro.exceptions import CircuitError

__all__ = [
    "Barrier",
    "CCXGate",
    "CCZGate",
    "CHGate",
    "CPhaseGate",
    "CRXGate",
    "CRYGate",
    "CRZGate",
    "CSwapGate",
    "CUGate",
    "CXGate",
    "CYGate",
    "CZGate",
    "ControlledGate",
    "Gate",
    "GlobalPhaseGate",
    "HGate",
    "IGate",
    "MCPhaseGate",
    "MCXGate",
    "Measure",
    "Operation",
    "PhaseGate",
    "RXGate",
    "RYGate",
    "RZGate",
    "Reset",
    "SdgGate",
    "SGate",
    "SXGate",
    "SXdgGate",
    "SwapGate",
    "TdgGate",
    "TGate",
    "U2Gate",
    "UGate",
    "XGate",
    "YGate",
    "ZGate",
    "iSwapGate",
    "get_gate",
    "STANDARD_GATES",
]


def _coerce_parameter(value):
    """Parameter coercion: floats stay floats, symbolic expressions pass.

    An expression with at least one free parameter is kept as-is (the gate
    becomes a *template*, instantiated by :meth:`Operation.bind_parameters`);
    everything else — including a fully-bound expression — collapses to
    ``float`` so concrete gates behave exactly as before.  A non-finite
    number (``nan``, ``±inf``) has no gate matrix and raises
    :class:`CircuitError`.
    """
    if is_symbolic(value):
        return value
    number = float(value)
    if not math.isfinite(number):
        raise CircuitError(f"gate parameter must be finite, got {number!r}")
    return number


def _params_equal(a, b) -> bool:
    if isinstance(a, ParameterExpression) or isinstance(b, ParameterExpression):
        return bool(a == b)
    return abs(a - b) < 1e-12


def _bind_argument(value, mapping):
    if isinstance(value, ParameterExpression):
        bound = value.bind(mapping)
        return _coerce_parameter(bound)
    if isinstance(value, Operation):
        return value.bind_parameters(mapping)
    return value


class Operation:
    """Base class for anything that can be appended to a circuit.

    Attributes
    ----------
    name:
        Lower-case mnemonic, also used for QASM export.
    num_qubits / num_clbits:
        Number of quantum / classical operands.
    params:
        Tuple of real parameters (rotation angles, phases).  Entries may
        also be symbolic :class:`~repro.circuit.parameter.ParameterExpression`
        values — such a gate is a template (no matrix) until
        :meth:`bind_parameters` substitutes concrete angles.
    """

    def __init__(
        self,
        name: str,
        num_qubits: int,
        num_clbits: int = 0,
        params: Sequence[float] = (),
    ) -> None:
        self.name = name
        self.num_qubits = num_qubits
        self.num_clbits = num_clbits
        self.params = tuple(_coerce_parameter(p) for p in params)

    @property
    def is_unitary(self) -> bool:
        """Whether this operation is described by a unitary matrix."""
        return False

    def __repr__(self) -> str:
        if self.params:
            args = ", ".join(
                str(p) if isinstance(p, ParameterExpression) else f"{p:.6g}"
                for p in self.params
            )
            return f"{type(self).__name__}({args})"
        return f"{type(self).__name__}()"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Operation):
            return NotImplemented
        return (
            self.name == other.name
            and self.num_qubits == other.num_qubits
            and self.num_clbits == other.num_clbits
            and len(self.params) == len(other.params)
            and all(_params_equal(a, b) for a, b in zip(self.params, other.params))
        )

    @property
    def free_parameters(self) -> frozenset:
        """The symbolic parameters this operation still depends on."""
        names: set = set()
        for value in self.params:
            if isinstance(value, ParameterExpression):
                names |= value.parameters
        return frozenset(names)

    def bind_parameters(self, mapping) -> "Operation":
        """Substitute parameter values, returning a new concrete operation.

        Reconstructs the operation through its constructor (the same route
        pickling takes), so binding re-runs full validation and works for
        nested structures such as a :class:`ControlledGate`'s base gate.
        """
        cls, args = self.__reduce__()[:2]
        return cls(*(_bind_argument(value, mapping) for value in args))

    def __hash__(self) -> int:
        return hash((self.name, self.num_qubits, self.num_clbits, self.params))

    # -- pickling -----------------------------------------------------------
    #
    # Operations are reconstructed through their constructors (rather than by
    # restoring ``__dict__``) so that unpickling re-runs the same validation
    # as normal construction and worker processes can never observe a gate
    # state that could not have been built directly.

    def _pickle_args(self) -> tuple:
        """Constructor arguments reproducing this operation (see __reduce__)."""
        if type(self) is Operation:
            return (self.name, self.num_qubits, self.num_clbits, self.params)
        # Every concrete operation subclass takes exactly its parameters.
        return self.params

    def __reduce__(self):
        return (type(self), self._pickle_args())


class Gate(Operation):
    """A unitary quantum gate."""

    def __init__(self, name: str, num_qubits: int, params: Sequence[float] = ()) -> None:
        super().__init__(name, num_qubits, 0, params)

    @property
    def is_unitary(self) -> bool:
        return True

    def _pickle_args(self) -> tuple:
        if type(self) is Gate:
            return (self.name, self.num_qubits, self.params)
        return self.params

    @property
    def matrix(self) -> np.ndarray:
        """The ``2**k x 2**k`` unitary matrix of the gate."""
        raise NotImplementedError(f"gate {self.name!r} does not define a matrix")

    def inverse(self) -> "Gate":
        """Return a gate realizing the inverse (adjoint) operation."""
        raise NotImplementedError(f"gate {self.name!r} does not define an inverse")

    def control(self, num_ctrl_qubits: int = 1, ctrl_state: int | None = None) -> "ControlledGate":
        """Return the controlled version of this gate."""
        return ControlledGate(self, num_ctrl_qubits, ctrl_state)

    def definition(self) -> list[tuple["Gate", tuple[int, ...]]] | None:
        """Decomposition into more primitive gates on local qubit indices.

        Resolved through the single
        :data:`~repro.circuit.equivalence_library.StandardEquivalenceLibrary`
        (imported lazily — the library is populated from gate templates
        defined in this module).  Returns ``None`` for gates that every
        backend supports natively (single-qubit gates and controlled
        single-qubit gates).
        """
        from repro.circuit.equivalence_library import StandardEquivalenceLibrary

        return StandardEquivalenceLibrary.definition_steps(self)

    def power(self, exponent: int) -> list["Gate"]:
        """Return a list of gates realizing ``self`` applied ``exponent`` times.

        Negative exponents use the inverse gate.
        """
        if exponent >= 0:
            return [self] * exponent
        return [self.inverse()] * (-exponent)


class GlobalPhaseGate(Gate):
    """A zero-qubit gate multiplying the state by ``exp(i*phase)``."""

    def __init__(self, phase: float) -> None:
        super().__init__("gphase", 0, (phase,))

    @property
    def phase(self) -> float:
        return self.params[0]

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[cmath.exp(1j * self.phase)]], dtype=complex)

    def inverse(self) -> "GlobalPhaseGate":
        return GlobalPhaseGate(-self.phase)


# ---------------------------------------------------------------------------
# Fixed single-qubit gates
# ---------------------------------------------------------------------------


class IGate(Gate):
    """Identity gate."""

    def __init__(self) -> None:
        super().__init__("id", 1)

    @property
    def matrix(self) -> np.ndarray:
        return np.eye(2, dtype=complex)

    def inverse(self) -> "IGate":
        return IGate()


class XGate(Gate):
    """Pauli-X (NOT) gate."""

    def __init__(self) -> None:
        super().__init__("x", 1)

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[0, 1], [1, 0]], dtype=complex)

    def inverse(self) -> "XGate":
        return XGate()


class YGate(Gate):
    """Pauli-Y gate."""

    def __init__(self) -> None:
        super().__init__("y", 1)

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[0, -1j], [1j, 0]], dtype=complex)

    def inverse(self) -> "YGate":
        return YGate()


class ZGate(Gate):
    """Pauli-Z gate."""

    def __init__(self) -> None:
        super().__init__("z", 1)

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[1, 0], [0, -1]], dtype=complex)

    def inverse(self) -> "ZGate":
        return ZGate()


class HGate(Gate):
    """Hadamard gate."""

    def __init__(self) -> None:
        super().__init__("h", 1)

    @property
    def matrix(self) -> np.ndarray:
        s = 1.0 / math.sqrt(2.0)
        return np.array([[s, s], [s, -s]], dtype=complex)

    def inverse(self) -> "HGate":
        return HGate()


class SGate(Gate):
    """Phase gate S = sqrt(Z)."""

    def __init__(self) -> None:
        super().__init__("s", 1)

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[1, 0], [0, 1j]], dtype=complex)

    def inverse(self) -> "SdgGate":
        return SdgGate()


class SdgGate(Gate):
    """Adjoint of the S gate."""

    def __init__(self) -> None:
        super().__init__("sdg", 1)

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[1, 0], [0, -1j]], dtype=complex)

    def inverse(self) -> "SGate":
        return SGate()


class TGate(Gate):
    """T gate (pi/8 gate)."""

    def __init__(self) -> None:
        super().__init__("t", 1)

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=complex)

    def inverse(self) -> "TdgGate":
        return TdgGate()


class TdgGate(Gate):
    """Adjoint of the T gate."""

    def __init__(self) -> None:
        super().__init__("tdg", 1)

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]], dtype=complex)

    def inverse(self) -> "TGate":
        return TGate()


class SXGate(Gate):
    """Square root of X."""

    def __init__(self) -> None:
        super().__init__("sx", 1)

    @property
    def matrix(self) -> np.ndarray:
        return 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)

    def inverse(self) -> "SXdgGate":
        return SXdgGate()


class SXdgGate(Gate):
    """Adjoint of the square root of X."""

    def __init__(self) -> None:
        super().__init__("sxdg", 1)

    @property
    def matrix(self) -> np.ndarray:
        return 0.5 * np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]], dtype=complex)

    def inverse(self) -> "SXGate":
        return SXGate()


# ---------------------------------------------------------------------------
# Parameterized single-qubit gates
# ---------------------------------------------------------------------------


class RXGate(Gate):
    """Rotation about the X axis by ``theta``."""

    def __init__(self, theta: float) -> None:
        super().__init__("rx", 1, (theta,))

    @property
    def matrix(self) -> np.ndarray:
        c = math.cos(self.params[0] / 2)
        s = math.sin(self.params[0] / 2)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)

    def inverse(self) -> "RXGate":
        return RXGate(-self.params[0])


class RYGate(Gate):
    """Rotation about the Y axis by ``theta``."""

    def __init__(self, theta: float) -> None:
        super().__init__("ry", 1, (theta,))

    @property
    def matrix(self) -> np.ndarray:
        c = math.cos(self.params[0] / 2)
        s = math.sin(self.params[0] / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)

    def inverse(self) -> "RYGate":
        return RYGate(-self.params[0])


class RZGate(Gate):
    """Rotation about the Z axis by ``theta`` (traceless convention)."""

    def __init__(self, theta: float) -> None:
        super().__init__("rz", 1, (theta,))

    @property
    def matrix(self) -> np.ndarray:
        half = self.params[0] / 2
        return np.array(
            [[cmath.exp(-1j * half), 0], [0, cmath.exp(1j * half)]], dtype=complex
        )

    def inverse(self) -> "RZGate":
        return RZGate(-self.params[0])


class PhaseGate(Gate):
    """Phase gate ``p(theta) = diag(1, exp(i*theta))``.

    This is the gate written as ``p(.)`` throughout the paper; for instance the
    running example uses ``U = p(3*pi/8)``.
    """

    def __init__(self, theta: float) -> None:
        super().__init__("p", 1, (theta,))

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[1, 0], [0, cmath.exp(1j * self.params[0])]], dtype=complex)

    def inverse(self) -> "PhaseGate":
        return PhaseGate(-self.params[0])


class UGate(Gate):
    """Generic single-qubit gate ``U(theta, phi, lam)`` (IBM convention)."""

    def __init__(self, theta: float, phi: float, lam: float) -> None:
        super().__init__("u", 1, (theta, phi, lam))

    @property
    def matrix(self) -> np.ndarray:
        theta, phi, lam = self.params
        c = math.cos(theta / 2)
        s = math.sin(theta / 2)
        return np.array(
            [
                [c, -cmath.exp(1j * lam) * s],
                [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
            ],
            dtype=complex,
        )

    def inverse(self) -> "UGate":
        theta, phi, lam = self.params
        return UGate(-theta, -lam, -phi)


class U2Gate(Gate):
    """Legacy ``u2(phi, lam) = U(pi/2, phi, lam)`` gate."""

    def __init__(self, phi: float, lam: float) -> None:
        super().__init__("u2", 1, (phi, lam))

    @property
    def matrix(self) -> np.ndarray:
        phi, lam = self.params
        return UGate(math.pi / 2, phi, lam).matrix

    def inverse(self) -> "U2Gate":
        phi, lam = self.params
        return U2Gate(-lam - math.pi, -phi + math.pi)


# ---------------------------------------------------------------------------
# Controlled gates
# ---------------------------------------------------------------------------


class ControlledGate(Gate):
    """A gate controlled on one or more qubits.

    The instruction's qubit order is ``(controls..., base-gate qubits...)``.
    ``ctrl_state`` encodes the activation pattern as an integer whose bit ``j``
    is the required value of control ``j`` (default: all ones).
    """

    def __init__(
        self,
        base_gate: Gate,
        num_ctrl_qubits: int = 1,
        ctrl_state: int | None = None,
        name: str | None = None,
    ) -> None:
        if num_ctrl_qubits < 1:
            raise CircuitError("a controlled gate needs at least one control qubit")
        if ctrl_state is None:
            ctrl_state = (1 << num_ctrl_qubits) - 1
        if not 0 <= ctrl_state < (1 << num_ctrl_qubits):
            raise CircuitError(
                f"ctrl_state {ctrl_state} out of range for {num_ctrl_qubits} controls"
            )
        if name is None:
            name = "c" * num_ctrl_qubits + base_gate.name
        super().__init__(name, num_ctrl_qubits + base_gate.num_qubits)
        # The base gate's constructor has coerced its parameters already.
        self.params = base_gate.params
        self.base_gate = base_gate
        self.num_ctrl_qubits = num_ctrl_qubits
        self.ctrl_state = ctrl_state

    @property
    def matrix(self) -> np.ndarray:
        nc = self.num_ctrl_qubits
        base = self.base_gate.matrix
        nb = self.base_gate.num_qubits
        dim = 1 << (nc + nb)
        result = np.eye(dim, dtype=complex)
        mask = (1 << nc) - 1
        for col in range(dim):
            if (col & mask) != self.ctrl_state:
                continue
            base_col = col >> nc
            result[:, col] = 0.0
            for base_row in range(1 << nb):
                row = (base_row << nc) | self.ctrl_state
                result[row, col] = base[base_row, base_col]
        return result

    def inverse(self) -> "ControlledGate":
        return ControlledGate(
            self.base_gate.inverse(), self.num_ctrl_qubits, self.ctrl_state
        )

    def control(self, num_ctrl_qubits: int = 1, ctrl_state: int | None = None) -> "ControlledGate":
        if ctrl_state is None:
            ctrl_state = (1 << num_ctrl_qubits) - 1
        combined_state = (self.ctrl_state << num_ctrl_qubits) | ctrl_state
        return ControlledGate(
            self.base_gate, self.num_ctrl_qubits + num_ctrl_qubits, combined_state
        )

    def definition(self) -> list[tuple[Gate, tuple[int, ...]]] | None:
        """Decompose a controlled multi-qubit gate into controlled factors.

        ``C(U_k ... U_1) = C(U_k) ... C(U_1)``: controlling a product is the
        product of the controlled factors, for any control count and state.
        Resolved through the
        :data:`~repro.circuit.equivalence_library.StandardEquivalenceLibrary`
        so deferral, compilation and backends all share one factoring rule.
        """
        from repro.circuit.equivalence_library import StandardEquivalenceLibrary

        return StandardEquivalenceLibrary.controlled_factoring(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ControlledGate):
            return NotImplemented
        return (
            self.num_ctrl_qubits == other.num_ctrl_qubits
            and self.ctrl_state == other.ctrl_state
            and self.base_gate == other.base_gate
        )

    def __hash__(self) -> int:
        return hash((self.name, self.num_ctrl_qubits, self.ctrl_state, self.base_gate))

    def _pickle_args(self) -> tuple:
        if type(self) is ControlledGate:
            return (self.base_gate, self.num_ctrl_qubits, self.ctrl_state, self.name)
        # The single-control convenience subclasses take (params..., ctrl_state).
        return (*self.params, self.ctrl_state)


class CXGate(ControlledGate):
    """Controlled-NOT gate."""

    def __init__(self, ctrl_state: int | None = None) -> None:
        super().__init__(XGate(), 1, ctrl_state, name="cx")

    def inverse(self) -> "CXGate":
        return CXGate(self.ctrl_state)


class CYGate(ControlledGate):
    """Controlled-Y gate."""

    def __init__(self, ctrl_state: int | None = None) -> None:
        super().__init__(YGate(), 1, ctrl_state, name="cy")

    def inverse(self) -> "CYGate":
        return CYGate(self.ctrl_state)


class CZGate(ControlledGate):
    """Controlled-Z gate."""

    def __init__(self, ctrl_state: int | None = None) -> None:
        super().__init__(ZGate(), 1, ctrl_state, name="cz")

    def inverse(self) -> "CZGate":
        return CZGate(self.ctrl_state)


class CHGate(ControlledGate):
    """Controlled-Hadamard gate."""

    def __init__(self, ctrl_state: int | None = None) -> None:
        super().__init__(HGate(), 1, ctrl_state, name="ch")

    def inverse(self) -> "CHGate":
        return CHGate(self.ctrl_state)


class CPhaseGate(ControlledGate):
    """Controlled phase gate ``cp(theta)``."""

    def __init__(self, theta: float, ctrl_state: int | None = None) -> None:
        super().__init__(PhaseGate(theta), 1, ctrl_state, name="cp")

    def inverse(self) -> "CPhaseGate":
        return CPhaseGate(-self.params[0], self.ctrl_state)


class CRXGate(ControlledGate):
    """Controlled X rotation."""

    def __init__(self, theta: float, ctrl_state: int | None = None) -> None:
        super().__init__(RXGate(theta), 1, ctrl_state, name="crx")

    def inverse(self) -> "CRXGate":
        return CRXGate(-self.params[0], self.ctrl_state)


class CRYGate(ControlledGate):
    """Controlled Y rotation."""

    def __init__(self, theta: float, ctrl_state: int | None = None) -> None:
        super().__init__(RYGate(theta), 1, ctrl_state, name="cry")

    def inverse(self) -> "CRYGate":
        return CRYGate(-self.params[0], self.ctrl_state)


class CRZGate(ControlledGate):
    """Controlled Z rotation."""

    def __init__(self, theta: float, ctrl_state: int | None = None) -> None:
        super().__init__(RZGate(theta), 1, ctrl_state, name="crz")

    def inverse(self) -> "CRZGate":
        return CRZGate(-self.params[0], self.ctrl_state)


class CUGate(ControlledGate):
    """Controlled generic single-qubit gate ``cu(theta, phi, lam)``."""

    def __init__(
        self, theta: float, phi: float, lam: float, ctrl_state: int | None = None
    ) -> None:
        super().__init__(UGate(theta, phi, lam), 1, ctrl_state, name="cu")

    def inverse(self) -> "CUGate":
        theta, phi, lam = self.params
        return CUGate(-theta, -lam, -phi, self.ctrl_state)


class CCXGate(ControlledGate):
    """Toffoli gate (doubly-controlled X)."""

    def __init__(self, ctrl_state: int | None = None) -> None:
        super().__init__(XGate(), 2, ctrl_state, name="ccx")

    def inverse(self) -> "CCXGate":
        return CCXGate(self.ctrl_state)


class CCZGate(ControlledGate):
    """Doubly-controlled Z gate."""

    def __init__(self, ctrl_state: int | None = None) -> None:
        super().__init__(ZGate(), 2, ctrl_state, name="ccz")

    def inverse(self) -> "CCZGate":
        return CCZGate(self.ctrl_state)


class MCXGate(ControlledGate):
    """Multi-controlled X gate."""

    def __init__(self, num_ctrl_qubits: int, ctrl_state: int | None = None) -> None:
        super().__init__(XGate(), num_ctrl_qubits, ctrl_state, name=f"mcx_{num_ctrl_qubits}")

    def inverse(self) -> "MCXGate":
        return MCXGate(self.num_ctrl_qubits, self.ctrl_state)

    def _pickle_args(self) -> tuple:
        return (self.num_ctrl_qubits, self.ctrl_state)


class MCPhaseGate(ControlledGate):
    """Multi-controlled phase gate."""

    def __init__(self, theta: float, num_ctrl_qubits: int, ctrl_state: int | None = None) -> None:
        super().__init__(
            PhaseGate(theta), num_ctrl_qubits, ctrl_state, name=f"mcphase_{num_ctrl_qubits}"
        )

    def inverse(self) -> "MCPhaseGate":
        return MCPhaseGate(-self.params[0], self.num_ctrl_qubits, self.ctrl_state)

    def _pickle_args(self) -> tuple:
        return (self.params[0], self.num_ctrl_qubits, self.ctrl_state)


# ---------------------------------------------------------------------------
# Multi-qubit gates with definitions
# ---------------------------------------------------------------------------


class SwapGate(Gate):
    """SWAP gate, exchanging two qubits."""

    def __init__(self) -> None:
        super().__init__("swap", 2)

    @property
    def matrix(self) -> np.ndarray:
        return np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )

    def inverse(self) -> "SwapGate":
        return SwapGate()


class iSwapGate(Gate):  # noqa: N801 - conventional gate name
    """iSWAP gate."""

    def __init__(self) -> None:
        super().__init__("iswap", 2)

    @property
    def matrix(self) -> np.ndarray:
        return np.array(
            [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex
        )

    def inverse(self) -> Gate:
        # iSWAP^-1 = S^-1 x S^-1 . SWAP . CZ  (realized via its own definition)
        return _InverseISwapGate()


class _InverseISwapGate(Gate):
    """Adjoint of the iSWAP gate (internal helper)."""

    def __init__(self) -> None:
        super().__init__("iswapdg", 2)

    @property
    def matrix(self) -> np.ndarray:
        return iSwapGate().matrix.conj().T

    def inverse(self) -> iSwapGate:
        return iSwapGate()


class CSwapGate(Gate):
    """Fredkin gate (controlled SWAP); qubit order ``(control, a, b)``."""

    def __init__(self) -> None:
        super().__init__("cswap", 3)

    @property
    def matrix(self) -> np.ndarray:
        dim = 8
        result = np.eye(dim, dtype=complex)
        swap_pairs = []
        for idx in range(dim):
            control = idx & 1
            a = (idx >> 1) & 1
            b = (idx >> 2) & 1
            if control == 1 and a != b:
                swapped = 1 | (b << 1) | (a << 2)
                swap_pairs.append((idx, swapped))
        for i, j in swap_pairs:
            result[i, i] = 0.0
            result[i, j] = 1.0
        return result

    def inverse(self) -> "CSwapGate":
        return CSwapGate()


# ---------------------------------------------------------------------------
# Non-unitary operations
# ---------------------------------------------------------------------------


class Measure(Operation):
    """Projective measurement of one qubit into one classical bit."""

    def __init__(self) -> None:
        super().__init__("measure", 1, 1)


class Reset(Operation):
    """Reset of one qubit to the |0> state (non-unitary)."""

    def __init__(self) -> None:
        super().__init__("reset", 1, 0)


class Barrier(Operation):
    """Barrier pseudo-operation (no functional effect)."""

    def __init__(self, num_qubits: int) -> None:
        super().__init__("barrier", num_qubits, 0)

    def _pickle_args(self) -> tuple:
        return (self.num_qubits,)

    @property
    def is_unitary(self) -> bool:
        # A barrier has no effect on the state; it is treated as the identity
        # by all functional backends but kept distinct so that it can be
        # skipped (and exported to QASM) explicitly.
        return False


# ---------------------------------------------------------------------------
# Name-based construction (used by the QASM importer)
# ---------------------------------------------------------------------------

STANDARD_GATES: dict[str, tuple[type[Gate], int]] = {
    # name -> (class, number of parameters)
    "id": (IGate, 0),
    "x": (XGate, 0),
    "y": (YGate, 0),
    "z": (ZGate, 0),
    "h": (HGate, 0),
    "s": (SGate, 0),
    "sdg": (SdgGate, 0),
    "t": (TGate, 0),
    "tdg": (TdgGate, 0),
    "sx": (SXGate, 0),
    "sxdg": (SXdgGate, 0),
    "rx": (RXGate, 1),
    "ry": (RYGate, 1),
    "rz": (RZGate, 1),
    "p": (PhaseGate, 1),
    "u1": (PhaseGate, 1),
    "u2": (U2Gate, 2),
    "u": (UGate, 3),
    "u3": (UGate, 3),
    "cx": (CXGate, 0),
    "cy": (CYGate, 0),
    "cz": (CZGate, 0),
    "ch": (CHGate, 0),
    "cp": (CPhaseGate, 1),
    "cu1": (CPhaseGate, 1),
    "crx": (CRXGate, 1),
    "cry": (CRYGate, 1),
    "crz": (CRZGate, 1),
    "cu": (CUGate, 3),
    "cu3": (CUGate, 3),
    "swap": (SwapGate, 0),
    "iswap": (iSwapGate, 0),
    "ccx": (CCXGate, 0),
    "ccz": (CCZGate, 0),
    "cswap": (CSwapGate, 0),
}


def get_gate(name: str, params: Sequence[float] = ()) -> Gate:
    """Construct a standard gate by QASM name.

    Raises :class:`~repro.exceptions.CircuitError` for unknown names or a
    parameter-count mismatch.
    """
    key = name.lower()
    if key not in STANDARD_GATES:
        raise CircuitError(f"unknown gate {name!r}")
    cls, num_params = STANDARD_GATES[key]
    params = tuple(params)
    if len(params) != num_params:
        raise CircuitError(
            f"gate {name!r} expects {num_params} parameter(s), got {len(params)}"
        )
    return cls(*params)
