"""Shared helpers for the benchmark harness.

The paper's Table 1 evaluates three benchmark families (Bernstein-Vazirani,
QFT, QPE) at sizes that assume the authors' C++ decision-diagram engine.  This
reproduction runs on a pure-Python engine, so the default sizes are scaled
down; setting the environment variable ``REPRO_SCALE=paper`` selects the
original sizes (may take a very long time), ``REPRO_SCALE=large`` an
intermediate setting.

Every benchmark family reports the same four quantities as Table 1:

* ``t_trans``   — runtime of the transformation scheme (Section 4),
* ``t_ver``     — runtime of the subsequent equivalence check,
* ``t_extract`` — runtime of the extraction scheme (Section 5) on the dynamic circuit,
* ``t_sim``     — runtime of classical simulation of the static circuit.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "SCALE",
    "sizes_for",
    "validate_bench_payload",
    "write_bench_json",
]

SCALE = os.environ.get("REPRO_SCALE", "default")

#: Version of the ``BENCH_*.json`` result schema emitted by the benchmark
#: scripts.  Bump when the payload layout changes so downstream consumers
#: (CI smoke job, trend tooling) can detect incompatible files.
BENCH_SCHEMA_VERSION = 1

_SIZES = {
    # family: {scale: list of problem sizes}
    "bv": {
        "default": [8, 12, 16, 20],
        "large": [32, 48, 64, 96],
        "paper": [121, 122, 123, 124, 125, 126, 127, 128],
    },
    "qft": {
        "default": [4, 6, 8, 10],
        "large": [12, 16, 20, 24],
        "paper": [23, 24, 25, 26, 125, 126, 127, 128],
    },
    # The QFT extraction blows up exponentially (dense outcome distribution):
    # n=16 takes ~10 s and n=20 over 200 s in pure Python, so the paper's
    # QFT block (n=23-26) is out of reach and paper scale stops at n=16.
    "qft_extract": {
        "default": [4, 6, 8],
        "large": [10, 12],
        "paper": [16],
    },
    "qpe": {
        "default": [4, 6, 8],
        "large": [10, 12, 14],
        "paper": [43, 44, 45, 46, 47, 48, 49, 50],
    },
}


def sizes_for(family: str) -> list[int]:
    """Problem sizes of a benchmark family under the active ``REPRO_SCALE``."""
    table = _SIZES[family]
    return table.get(SCALE, table["default"])


def validate_bench_payload(payload: dict) -> None:
    """Validate a ``BENCH_*.json`` payload; raises ``ValueError`` on errors.

    The check is structural only (keys and types), deliberately blind to the
    timing values themselves: CI runs it on shared machines whose timings are
    noisy, so the smoke job must fail on schema regressions, never on noise.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"payload must be a dict, got {type(payload).__name__}")
    version = payload.get("schema_version")
    if version != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"schema_version must be {BENCH_SCHEMA_VERSION}, got {version!r}"
        )
    if not isinstance(payload.get("benchmark"), str) or not payload["benchmark"]:
        raise ValueError("payload needs a non-empty 'benchmark' name")
    if not isinstance(payload.get("scale"), str):
        raise ValueError("payload needs a 'scale' string")
    results = payload.get("results")
    if not isinstance(results, list) or not results:
        raise ValueError("payload needs a non-empty 'results' list")
    for position, entry in enumerate(results):
        if not isinstance(entry, dict):
            raise ValueError(f"results[{position}] must be a dict")
        if not isinstance(entry.get("name"), str) or not entry["name"]:
            raise ValueError(f"results[{position}] needs a non-empty 'name'")
        for field in ("mean_ms", "min_ms"):
            value = entry.get(field)
            if not isinstance(value, (int, float)) or isinstance(value, bool) or value < 0:
                raise ValueError(f"results[{position}].{field} must be a non-negative number")
        repeats = entry.get("repeats")
        if not isinstance(repeats, int) or isinstance(repeats, bool) or repeats < 1:
            raise ValueError(f"results[{position}].repeats must be a positive integer")
    baseline = payload.get("baseline")
    if baseline is not None:
        if not isinstance(baseline, dict) or not isinstance(baseline.get("source"), str):
            raise ValueError("'baseline', when present, must be a dict with a 'source' string")
    speedup = payload.get("speedup_vs_baseline")
    if speedup is not None and (
        not isinstance(speedup, (int, float)) or isinstance(speedup, bool) or speedup <= 0
    ):
        raise ValueError("'speedup_vs_baseline', when present, must be a positive number")


def write_bench_json(path: "str | Path", payload: dict) -> None:
    """Validate ``payload`` and write it as pretty-printed JSON."""
    validate_bench_payload(payload)
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
