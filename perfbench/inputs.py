"""Seeded, known-answer circuit pairs for the three workloads.

Every pair has a constructed answer.  Equivalent pairs are the paper's own
constructions: a static algorithm against its dynamic realization (QFT vs.
semiclassical QFT, QPE vs. iterative QPE, BV vs. two-qubit BV).  A mutant
takes such a pair and inserts ``rz(theta)`` on the static side, with
``theta`` in ``[pi/4, 7*pi/4]``, at a seeded position before the chosen
qubit's measurement.  Such an ``rz`` is never a multiple of the identity, so
the mutant is not equivalent, not even up to global phase.  (After a
measurement the gate would make the static side dynamic, and
``to_unitary_circuit`` would reject it.)

Inputs are served in *blocks*: a block holds every class slot of the
workload's composition (``design.json``) once, in a seeded order.  Each run
therefore sees the same class shares whatever its seed, which keeps the
median and p90 ranks inside the classes they were placed in.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from repro.algorithms import (
    bernstein_vazirani_dynamic,
    bernstein_vazirani_static,
    ghz_ladder,
    iterative_qpe,
    qft_dynamic,
    qft_static_benchmark,
    qpe_static,
)
from repro.circuit.circuit import QuantumCircuit
from repro.compilation.basis import (
    decompose_to_cx_and_single_qubit,
    rewrite_single_qubit_to_u,
)

DESIGN = json.loads((Path(__file__).resolve().parent / "design.json").read_text())


@dataclass(frozen=True)
class Pair:
    """One circuit pair with its constructed answer.

    ``cls`` names the input class (``family-n/answer``), the unit in which
    percentile placement is reported.
    """

    cls: str
    first: QuantumCircuit
    second: QuantumCircuit
    equivalent: bool


def rng_for(workload: str, seed: int) -> random.Random:
    """The workload's input generator; the same seed gives the same inputs."""
    return random.Random(f"{workload}:{seed}")


def hidden_string(n: int, rng: random.Random) -> str:
    """A seeded BV hidden string with at least one 1 (so BV has a CX)."""
    bits = [rng.choice("01") for _ in range(n)]
    bits[rng.randrange(n)] = "1"
    return "".join(bits)


def algorithm_pair(family: str, n: int, rng: random.Random) -> tuple[QuantumCircuit, QuantumCircuit]:
    """(static, dynamic) realizations of one Table-1 algorithm."""
    if family == "qft":
        return qft_static_benchmark(n), qft_dynamic(n)
    if family == "qpe":
        return qpe_static(n), iterative_qpe(n)
    if family == "bv":
        hidden = hidden_string(n, rng)
        return bernstein_vazirani_static(hidden), bernstein_vazirani_dynamic(hidden)
    raise ValueError(f"unknown algorithm family {family!r}")


def insert_rz(
    circuit: QuantumCircuit, rng: random.Random, theta: float | None = None
) -> QuantumCircuit:
    """``circuit`` with ``rz(theta)`` at a seeded position on a seeded qubit.

    The position lies before the qubit's first measurement, so the result is
    as static as the input.  Without ``theta`` an angle far from any
    multiple of 2*pi is drawn.
    """
    if theta is None:
        theta = rng.uniform(math.pi / 4, 7 * math.pi / 4)
    data = list(circuit)
    qubit = rng.randrange(circuit.num_qubits)
    first_measure = next(
        (
            index
            for index, instruction in enumerate(data)
            if instruction.is_measurement and qubit in instruction.qubits
        ),
        len(data),
    )
    position = rng.randint(0, first_measure)
    result = circuit.copy_empty()
    for index, instruction in enumerate(data):
        if index == position:
            result.rz(theta, qubit)
        result.append_instruction(instruction)
    if position == len(data):
        result.rz(theta, qubit)
    return result


def make_pair(family: str, n: int, equivalent: bool, rng: random.Random) -> Pair:
    """A Table-1 pair of one class, mutated unless ``equivalent``."""
    static, dynamic = algorithm_pair(family, n, rng)
    if not equivalent:
        static = insert_rz(static, rng)
    answer = "equivalent" if equivalent else "mutant"
    return Pair(f"{family}-{n}/{answer}", static, dynamic, equivalent)


def block_slots(composition: list[dict]) -> list[tuple[dict, bool]]:
    """Expand a block composition into one (entry, equivalent) slot per pair."""
    slots = []
    for entry in composition:
        slots.extend((entry, True) for _ in range(entry.get("equivalent", 0)))
        slots.extend((entry, False) for _ in range(entry.get("mutant", 0)))
    return slots


def composition(workload: str, block_index: int) -> list[dict]:
    """The class slots of one block (rotating slots included)."""
    design = DESIGN["workloads"][workload]
    entries = list(design["block"])
    rotating = design.get("rotating")
    if rotating is not None:
        entries.extend(rotating["even" if block_index % 2 == 0 else "odd"])
    return entries


def algorithm_blocks(workload: str, seed: int):
    """Endless seeded blocks of Table-1 pairs for ``table1-scheme1`` or
    ``portfolio-default``, generated one at a time."""
    rng = rng_for(workload, seed)
    for index in itertools.count():
        slots = block_slots(composition(workload, index))
        rng.shuffle(slots)
        yield [make_pair(entry["family"], entry["n"], equivalent, rng) for entry, equivalent in slots]


# ----------------------------------------------------------------------
# service-repeat
# ----------------------------------------------------------------------


def translate_subset(circuit: QuantumCircuit, mask: int) -> QuantumCircuit:
    """Translate the gates whose bit is set in ``mask`` to another level.

    Multi-qubit gates go through ``decompose_to_cx_and_single_qubit`` and
    single-qubit gates through ``rewrite_single_qubit_to_u`` (which keeps the
    global phase).  The result is exactly equivalent to ``circuit`` and has
    the same canonical fingerprint, but a raw fingerprint of its own for
    every distinct non-zero mask.
    """
    result = circuit.copy_empty()
    gate_index = 0
    for instruction in circuit:
        if not instruction.is_gate or instruction.is_barrier:
            result.append_instruction(instruction)
            continue
        if mask >> gate_index & 1:
            single = circuit.copy_empty()
            single.append_instruction(instruction)
            if instruction.operation.num_qubits > 1:
                translated = decompose_to_cx_and_single_qubit(single)
            else:
                translated = rewrite_single_qubit_to_u(single)
            for piece in translated:
                result.append_instruction(piece)
        else:
            result.append_instruction(instruction)
        gate_index += 1
    return result


def gate_count(circuit: QuantumCircuit) -> int:
    return sum(1 for instruction in circuit if instruction.is_gate and not instruction.is_barrier)


def first_seen_pair(family: str, n: int, equivalent: bool, rng: random.Random) -> Pair:
    """A small pair the server has never seen: a tagged circuit and a second
    build of it (equivalent) or of its mutant.

    The tag is an ``rz`` with a seeded angle, so no two first-seen pairs
    share a raw or canonical fingerprint.
    """
    if family == "ghz":
        base = ghz_ladder(n, measure=True)
    elif family == "bv":
        base = bernstein_vazirani_static(hidden_string(n - 1, rng))
    else:
        raise ValueError(f"unknown first-seen family {family!r}")
    tagged = insert_rz(base, rng, theta=rng.uniform(0.1, 6.0))
    first = tagged if equivalent else insert_rz(tagged, rng)
    answer = "equivalent" if equivalent else "mutant"
    return Pair(f"miss/{family}/{answer}", first, tagged.copy(), equivalent)


@dataclass(frozen=True)
class Request:
    """One service request: QASM text on the wire plus its known answer."""

    cls: str
    tier: str
    first: str
    second: str
    equivalent: bool


class ServiceInputs:
    """Primed pairs and the seeded request stream of ``service-repeat``."""

    def __init__(self, seed: int):
        self.rng = rng_for("service-repeat", seed)
        design = DESIGN["workloads"]["service-repeat"]
        # The primed pairs are the same for every seed: the server keeps the
        # memory that priming made resident, and a seeded mutant that blows
        # up its DD would otherwise decide the peak memory of the whole run.
        primed_rng = random.Random("service-repeat:primed")
        self.primed: dict[tuple[str, int, bool], Pair] = {}
        for entry in design["primed"]:
            for equivalent in (True, False):
                key = (entry["family"], entry["n"], equivalent)
                self.primed[key] = make_pair(entry["family"], entry["n"], equivalent, primed_rng)
        self._primed_qasm = {
            key: (pair.first.to_qasm(), pair.second.to_qasm()) for key, pair in self.primed.items()
        }
        self._used_masks: dict[tuple[str, int, bool], set[int]] = {key: set() for key in self.primed}
        self._block = design["block"]
        self._miss_sizes = design["miss_sizes"]

    def priming_requests(self) -> list[Request]:
        return [self._primed_request("prime", key) for key in self.primed]

    def _primed_request(self, tier: str, key: tuple[str, int, bool]) -> Request:
        family, n, equivalent = key
        first, second = self._primed_qasm[key]
        answer = "equivalent" if equivalent else "mutant"
        return Request(f"{tier}/{family}-{n}/{answer}", tier, first, second, equivalent)

    def _canonical_request(self, key: tuple[str, int, bool]) -> Request:
        pair = self.primed[key]
        gates = gate_count(pair.first)
        used = self._used_masks[key]
        if len(used) >= (1 << gates) - 1:
            raise RuntimeError(f"no untranslated subset left for {key}")
        while True:
            mask = self.rng.randrange(1, 1 << gates)
            if mask not in used:
                used.add(mask)
                break
        family, n, equivalent = key
        answer = "equivalent" if equivalent else "mutant"
        return Request(
            f"canonical/{family}-{n}/{answer}",
            "canonical",
            translate_subset(pair.first, mask).to_qasm(),
            self._primed_qasm[key][1],
            equivalent,
        )

    def _miss_request(self, family: str, equivalent: bool) -> Request:
        pair = first_seen_pair(family, self.rng.choice(self._miss_sizes), equivalent, self.rng)
        return Request(pair.cls, "miss", pair.first.to_qasm(), pair.second.to_qasm(), equivalent)

    def block(self) -> list[Request]:
        """The next seeded block of requests."""
        slots = block_slots(self._block)
        self.rng.shuffle(slots)
        requests = []
        for entry, equivalent in slots:
            tier = entry["tier"]
            if tier == "miss":
                requests.append(self._miss_request(entry["family"], equivalent))
                continue
            key = (entry["family"], entry["n"], equivalent)
            if tier == "hit":
                requests.append(self._primed_request("hit", key))
            else:
                requests.append(self._canonical_request(key))
        return requests
