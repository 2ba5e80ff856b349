"""Machine speed corrections, so that runs on a drifting machine stay comparable.

Shared virtual machines change speed at sub-second scale and by up to ~40%
over a minute: the same seed and code measured 79 ms and 123 ms median in
two runs.  No run is long enough to average that out, so measured times are
corrected in one of two ways.

* A single caller (one CPU-bound thread) times a fixed pure-Python
  reference call next to every verdict and scales each verdict's time by
  the reference calls around it.  On a 2-vCPU virtual machine, eight
  22-second runs of one seed spread 33% raw and 7% scaled (interquartile
  range over median).  The reference imitates the interpreter work of the
  DD kernels (tuple keys, dict lookups, complex arithmetic, small
  allocations) but runs no repro code, so a change to repro moves the
  scaled times and leaves the reference alone.  Scaled times are those of
  a machine on which one reference call takes :data:`REFERENCE_MS`.
* The service (two processes that wake each other) loses most of its
  speed to time the hypervisor steals from the virtual CPUs, which a
  reference call in one process does not see: on the same machine its
  block times correlated 0.85 with the steal share and 0.36 with the
  reference.  Its times are scaled by the share of non-idle CPU time that
  was not stolen (``/proc/stat``); ten 20-second runs then spread 4-6%
  instead of 23-27%.
"""

from __future__ import annotations

import statistics
import time

#: Nominal time of one reference call: the unit machine of the reported times.
REFERENCE_MS = 10.0

#: Neighbouring reference calls on each side that set one verdict's scale.
RADIUS = 3


def reference_workload(rounds: int = 4500) -> complex:
    """Fixed interpreter work: hash-consed tuples, dict traffic, complex math."""
    table: dict[tuple, tuple] = {}
    total = 0j
    for index in range(rounds):
        key = (index % 97, (index * 7) % 89, index & 15)
        node = table.get(key)
        if node is None:
            node = table[key] = (key, complex(index % 13, 1.5), [index, index + 1])
        total += node[1] * 0.5
        total += len([value * 2 for value in node[2]])
    return total


def reference_ms() -> float:
    """Milliseconds of one reference call."""
    began = time.perf_counter()
    reference_workload()
    return (time.perf_counter() - began) * 1e3


def scale(references: list[float]) -> float:
    """Factor from times measured next to ``references`` to the unit machine."""
    return REFERENCE_MS / statistics.median(references)


def local_scales(references: list[float], count: int) -> list[float]:
    """One factor per interval: interval ``i`` lies between references
    ``i`` and ``i + 1`` and is scaled by the :data:`RADIUS` calls around it."""
    return [
        scale(references[max(0, i - RADIUS + 1) : i + 1 + RADIUS]) for i in range(count)
    ]


def cpu_ticks() -> tuple[int, int]:
    """(busy, stolen) clock ticks of all CPUs since boot, from ``/proc/stat``."""
    with open("/proc/stat", encoding="ascii") as stat:
        user, nice, system, _idle, _iowait, irq, softirq, steal = (
            int(value) for value in stat.readline().split()[1:9]
        )
    return user + nice + system + irq + softirq, steal


def unstolen_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of the non-idle CPU time between two readings that was not stolen."""
    busy = after[0] - before[0]
    stolen = after[1] - before[1]
    return busy / (busy + stolen) if busy + stolen else 1.0
