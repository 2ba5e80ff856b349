"""OpenQASM 2 export and import.

The exporter emits the dialect understood by most tools (``qelib1.inc`` gate
names, ``measure``, ``reset`` and ``if (creg == value)`` statements).  The
importer parses the same subset, which is sufficient to round-trip every
circuit this library generates, including dynamic circuits.
"""

from __future__ import annotations

import functools
import math
import re

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gates import Barrier, ControlledGate, Gate, GlobalPhaseGate, get_gate
from repro.circuit.registers import ClassicalRegister, QuantumRegister
from repro.exceptions import QasmError

__all__ = ["circuit_from_qasm", "circuit_to_qasm"]

_EXPORTABLE_NAMES = {
    "id",
    "x",
    "y",
    "z",
    "h",
    "s",
    "sdg",
    "t",
    "tdg",
    "sx",
    "sxdg",
    "rx",
    "ry",
    "rz",
    "p",
    "u",
    "u2",
    "cx",
    "cy",
    "cz",
    "ch",
    "cp",
    "crx",
    "cry",
    "crz",
    "cu",
    "swap",
    "iswap",
    "ccx",
    "ccz",
    "cswap",
}


def _format_param(value) -> str:
    """Format an angle, preferring exact multiples of pi for readability.

    Symbolic :class:`~repro.circuit.parameter.ParameterExpression` values are
    emitted as their evaluable text form (``1.0*theta + 0.5``), which
    :func:`_eval_param` parses back into the identical expression.  Floats
    go through :func:`_memo_format_float`.
    """
    if isinstance(value, float):
        return _memo_format_float(value)
    from repro.circuit.parameter import ParameterExpression

    if isinstance(value, ParameterExpression):
        return str(value)
    return _format_number(value)


def _format_number(value) -> str:
    """The text of a numeric angle: a multiple of pi when within 1e-12 of one."""
    if value == 0:
        return "0"
    for denominator in (1, 2, 3, 4, 6, 8, 16, 32):
        multiple = value * denominator / math.pi
        if abs(multiple - round(multiple)) < 1e-12 and round(multiple) != 0:
            numerator = int(round(multiple))
            if denominator == 1:
                return "pi" if numerator == 1 else f"{numerator}*pi"
            if numerator == 1:
                return f"pi/{denominator}"
            return f"{numerator}*pi/{denominator}"
    return repr(float(value))


#: :func:`_format_number` for floats, memoized: a circuit, and every
#: translation of it, repeats the same angles, and each distinct one pays the
#: up to eight divisions once.  Equal floats format alike (``-0.0`` and
#: ``0.0`` both read ``0``; a ``numpy.float64`` formats as its ``float``), so
#: keying on the value is exact.
_memo_format_float = functools.lru_cache(maxsize=1024)(_format_number)


def circuit_to_qasm(circuit: QuantumCircuit) -> str:
    """Serialize ``circuit`` to an OpenQASM 2 string."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";']
    qreg_of: dict[int, tuple[str, int]] = {}
    creg_of: dict[int, tuple[str, int]] = {}

    index = 0
    for reg in circuit.qregs:
        lines.append(f"qreg {reg.name}[{reg.size}];")
        for offset in range(reg.size):
            qreg_of[index] = (reg.name, offset)
            index += 1
    index = 0
    for reg in circuit.cregs:
        lines.append(f"creg {reg.name}[{reg.size}];")
        for offset in range(reg.size):
            creg_of[index] = (reg.name, offset)
            index += 1

    def qname(qubit: int) -> str:
        name, offset = qreg_of[qubit]
        return f"{name}[{offset}]"

    def cname(clbit: int) -> str:
        name, offset = creg_of[clbit]
        return f"{name}[{offset}]"

    for inst in circuit:
        op = inst.operation
        prefix = ""
        if inst.condition is not None:
            cond = inst.condition
            registers = {creg_of[c][0] for c in cond.clbits}
            if len(registers) != 1:
                raise QasmError(
                    "OpenQASM 2 conditions must address a single classical register, "
                    f"got bits from {sorted(registers)}"
                )
            register_name = registers.pop()
            register = next(r for r in circuit.cregs if r.name == register_name)
            offsets = [creg_of[c][1] for c in cond.clbits]
            if sorted(offsets) != list(range(register.size)):
                # OpenQASM 2 ``if`` compares a whole register; a condition on a
                # strict subset of its bits cannot be expressed faithfully.
                raise QasmError(
                    "OpenQASM 2 cannot express a condition on a subset of register "
                    f"{register_name!r}; use one classical register per condition bit"
                )
            value = 0
            for offset, bit in zip(offsets, cond.bit_values):
                value |= bit << offset
            prefix = f"if ({register_name} == {value}) "

        if isinstance(op, Barrier):
            operands = ", ".join(qname(q) for q in inst.qubits)
            lines.append(f"barrier {operands};")
            continue
        if op.name == "measure":
            lines.append(f"{prefix}measure {qname(inst.qubits[0])} -> {cname(inst.clbits[0])};")
            continue
        if op.name == "reset":
            lines.append(f"{prefix}reset {qname(inst.qubits[0])};")
            continue
        if isinstance(op, GlobalPhaseGate):
            # OpenQASM 2 has no global-phase statement; emit an equivalent
            # two-gate identity on qubit 0 when possible, otherwise drop it.
            if circuit.num_qubits > 0:
                phase = _format_param(op.phase)
                target = qname(0)
                lines.append(f"{prefix}p({phase}) {target};")
                lines.append(f"{prefix}x {target};")
                lines.append(f"{prefix}p({phase}) {target};")
                lines.append(f"{prefix}x {target};")
            continue

        name = op.name
        if name not in _EXPORTABLE_NAMES:
            if isinstance(op, Gate) and op.definition() is not None:
                for sub_gate, local_qubits in op.definition():
                    mapped = [qname(inst.qubits[lq]) for lq in local_qubits]
                    params = ""
                    if sub_gate.params:
                        params = "(" + ", ".join(_format_param(p) for p in sub_gate.params) + ")"
                    lines.append(f"{prefix}{sub_gate.name}{params} {', '.join(mapped)};")
                continue
            if isinstance(op, ControlledGate):
                raise QasmError(
                    f"gate {name!r} has no OpenQASM 2 representation; decompose it first"
                )
            raise QasmError(f"cannot export operation {name!r} to OpenQASM 2")

        params = ""
        if op.params:
            params = "(" + ", ".join(_format_param(p) for p in op.params) + ")"
        operands = ", ".join(qname(q) for q in inst.qubits)
        lines.append(f"{prefix}{name}{params} {operands};")

    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Importer
# ---------------------------------------------------------------------------

_TOKEN_COMMENT = re.compile(r"//.*?$", re.MULTILINE)
_QREG = re.compile(r"^qreg\s+([A-Za-z_]\w*)\s*\[\s*(\d+)\s*\]$")
_CREG = re.compile(r"^creg\s+([A-Za-z_]\w*)\s*\[\s*(\d+)\s*\]$")
_IF = re.compile(r"^if\s*\(\s*([A-Za-z_]\w*)\s*==\s*(\d+)\s*\)\s*(.*)$")
_MEASURE = re.compile(
    r"^measure\s+([A-Za-z_]\w*)\s*\[\s*(\d+)\s*\]\s*->\s*([A-Za-z_]\w*)\s*\[\s*(\d+)\s*\]$"
)
_RESET = re.compile(r"^reset\s+([A-Za-z_]\w*)\s*\[\s*(\d+)\s*\]$")
_GATE = re.compile(r"^([A-Za-z_]\w*)\s*(\(([^)]*)\))?\s+(.*)$")
_OPERAND = re.compile(r"^([A-Za-z_]\w*)\s*\[\s*(\d+)\s*\]$")


_PARAM_CHARACTERS = re.compile(r"[\w+\-*/(). ]*")
_ATTRIBUTE_ACCESS = re.compile(r"\.\s*[A-Za-z_]")
_IDENTIFIER = re.compile(r"(?<![\w.])[A-Za-z_]\w*")


def _eval_param(text: str):
    """Evaluate a parameter expression (numbers, ``pi``, + - * /, parentheses).

    Free identifiers other than ``pi`` become symbolic
    :class:`~repro.circuit.parameter.Parameter` objects, so parameterized
    QASM (as emitted by :func:`_format_param` for symbolic angles) round-trips
    into the identical :class:`ParameterExpression`.
    """
    evaluate = _memo_numeric_param if len(text) <= _MEMO_MAX_CHARS else _eval_numeric_param
    value = evaluate(text)
    if value is not None:
        return value
    stripped = text.strip()
    from repro.circuit.parameter import Parameter

    env: dict[str, object] = {"pi": math.pi}
    env.update(
        {name: Parameter(name) for name in _IDENTIFIER.findall(stripped) if name != "pi"}
    )
    try:
        return eval(stripped, {"__builtins__": {}}, env)  # noqa: S307 - sanitized
    except Exception as exc:  # pragma: no cover - defensive
        raise QasmError(f"cannot evaluate parameter expression {text!r}") from exc


def _eval_numeric_param(text: str) -> float | None:
    """The value of an expression without free identifiers, else ``None``.

    A symbolic text answers ``None``, which sends it to :func:`_eval_param`;
    that builds fresh :class:`~repro.circuit.parameter.Parameter` objects
    each time.
    """
    stripped = text.strip()
    if not _PARAM_CHARACTERS.fullmatch(stripped):
        raise QasmError(f"unsupported parameter expression {text!r}")
    if _ATTRIBUTE_ACCESS.search(stripped):
        # Attribute access would escape the sandboxed eval below.
        raise QasmError(f"unsupported parameter expression {text!r}")
    if any(name != "pi" for name in _IDENTIFIER.findall(stripped)):
        return None
    try:
        value = float(eval(stripped, {"__builtins__": {}}, {"pi": math.pi}))  # noqa: S307 - sanitized
    except Exception as exc:
        raise QasmError(f"cannot evaluate parameter expression {text!r}") from exc
    if not math.isfinite(value):
        raise QasmError(f"parameter expression {text!r} is not finite")
    return value


#: Longest parameter text :func:`_memo_numeric_param` keeps.  Angles this
#: library writes are far shorter; a longer text (its length is the
#: sender's choice) is evaluated uncached, so the memo's memory stays bounded.
_MEMO_MAX_CHARS = 64

#: :func:`_eval_numeric_param`, memoized.  Circuits repeat the same angle
#: texts, and each distinct text pays the sanitizer, ``eval`` and the
#: finiteness check once; a text that raises is not cached, so it raises
#: again on every call.  On ``service-repeat`` traffic (seed 1, 6,416
#: circuits) 236 distinct texts answered 99.7% of the lookups; on distinct
#: random-angle circuits every lookup misses, at no measurable parse cost.
_memo_numeric_param = functools.lru_cache(maxsize=1024)(_eval_numeric_param)


def circuit_from_qasm(text: str) -> QuantumCircuit:
    """Parse an OpenQASM 2 string into a :class:`QuantumCircuit`."""
    body = _TOKEN_COMMENT.sub("", text)
    statements = [s.strip() for s in body.replace("\n", " ").split(";")]
    statements = [s for s in statements if s]

    circuit = QuantumCircuit(name="from_qasm")
    qregs: dict[str, QuantumRegister] = {}
    cregs: dict[str, ClassicalRegister] = {}
    # One gate object per distinct (name, parameter text): equal texts
    # evaluate to equal angles, and nothing mutates a gate, so its
    # instructions share it.  Symbolic gates stay unshared.
    gates: dict[tuple[str, str | None], Gate] = {}

    def qubit_index(name: str, offset: int) -> int:
        if name not in qregs:
            raise QasmError(f"unknown quantum register {name!r}")
        base = 0
        for reg in circuit.qregs:
            if reg.name == name:
                if offset >= reg.size:
                    raise QasmError(f"index {offset} out of range for qreg {name!r}")
                return base + offset
            base += reg.size
        raise QasmError(f"unknown quantum register {name!r}")  # pragma: no cover

    def clbit_index(name: str, offset: int) -> int:
        if name not in cregs:
            raise QasmError(f"unknown classical register {name!r}")
        base = 0
        for reg in circuit.cregs:
            if reg.name == name:
                if offset >= reg.size:
                    raise QasmError(f"index {offset} out of range for creg {name!r}")
                return base + offset
            base += reg.size
        raise QasmError(f"unknown classical register {name!r}")  # pragma: no cover

    for statement in statements:
        if statement.startswith("OPENQASM") or statement.startswith("include"):
            continue

        match = _QREG.match(statement)
        if match:
            name, size = match.group(1), int(match.group(2))
            register = QuantumRegister(size, name)
            qregs[name] = register
            circuit.add_register(register)
            continue

        match = _CREG.match(statement)
        if match:
            name, size = match.group(1), int(match.group(2))
            register = ClassicalRegister(size, name)
            cregs[name] = register
            circuit.add_register(register)
            continue

        condition = None
        match = _IF.match(statement)
        if match:
            register_name, value, statement = match.group(1), int(match.group(2)), match.group(3)
            if register_name not in cregs:
                raise QasmError(f"condition references unknown creg {register_name!r}")
            register = cregs[register_name]
            condition = (register, value)
            statement = statement.strip()

        match = _MEASURE.match(statement)
        if match:
            if condition is not None:
                # Silently dropping the condition would miscompile the circuit
                # into one that always measures.
                raise QasmError(
                    f"classically-conditioned measurement is not supported: {statement!r}"
                )
            q = qubit_index(match.group(1), int(match.group(2)))
            c = clbit_index(match.group(3), int(match.group(4)))
            circuit.measure(q, c)
            continue

        match = _RESET.match(statement)
        if match:
            q = qubit_index(match.group(1), int(match.group(2)))
            circuit.reset(q, condition=condition)
            continue

        match = _GATE.match(statement)
        if not match:
            raise QasmError(f"cannot parse statement {statement!r}")
        name = match.group(1)
        param_text = match.group(3)
        operand_text = match.group(4)

        operands = []
        for raw in operand_text.split(","):
            raw = raw.strip()
            operand_match = _OPERAND.match(raw)
            if not operand_match:
                raise QasmError(f"cannot parse operand {raw!r} in statement {statement!r}")
            operands.append(qubit_index(operand_match.group(1), int(operand_match.group(2))))

        if name == "barrier":
            circuit.barrier(*operands)
            continue

        key = (name, param_text)
        gate = gates.get(key)
        if gate is None:
            params = []
            if param_text is not None and param_text.strip():
                params = [_eval_param(p) for p in param_text.split(",")]
            gate = get_gate(name, params)
            if not gate.free_parameters:
                gates[key] = gate
        circuit.append(gate, operands, condition=condition)

    return circuit
