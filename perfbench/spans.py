"""Spans recorded from the benchmark's own code around calls into repro.

:class:`Recorder` replaces a public function *where its caller resolves it*
(a module attribute such as ``repro.core.checkers.alternating.instruction_to_dd``
or a class attribute such as ``DDPackage.multiply_matrices``) with a wrapper
that times the call.  Nothing inside ``src/`` changes; :meth:`Recorder.restore`
puts every original back.

Each wrapped call is a span: name (its layer), start, end and parent (the
innermost open span of the same thread).  A span's *self time* is its
duration minus the durations of its direct children.  Self time, call counts
and observed values are summed per *group*: one verdict in the benchmark
process, one job in the server.  The first ``export_limit`` spans are also
kept for a Chrome trace-event file.
"""

from __future__ import annotations

import importlib
import itertools
import json
import statistics
import threading
import time

#: Values kept as the maximum within a group rather than the sum.
MAX_VALUES = frozenset({"dd.peak_nodes", "dd.matrix_nodes"})

#: Marks a wrapped call that raised (None is a legitimate result).
_RAISED = object()

#: Criteria that decide a pair (CheckerOutcome / PortfolioResult values).
DEFINITIVE = frozenset({"equivalent", "equivalent_up_to_global_phase", "not_equivalent"})


class Recorder:
    """Thread-safe span recorder with per-group self-time aggregation."""

    def __init__(self, export_limit: int = 50_000):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.export_limit = export_limit
        self.exported: list[tuple] = []
        self.groups: dict[object, dict] = {}
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------
    # span bookkeeping
    # ------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer: str) -> list:
        stack = self._stack()
        if not stack:
            self._local.bucket = {"layers": {}, "values": {}}
        parent = stack[-1][3] if stack else 0
        frame = [layer, 0, 0, next(self._ids), parent]
        stack.append(frame)
        frame[1] = time.perf_counter_ns()
        return frame

    def _close(self, frame: list, group_key=None) -> int:
        end = time.perf_counter_ns()
        stack = self._local.stack
        stack.pop()
        duration = end - frame[1]
        if stack:
            stack[-1][2] += duration
        bucket = self._local.bucket
        layers = bucket["layers"]
        entry = layers.get(frame[0])
        if entry is None:
            entry = layers[frame[0]] = [0, 0]
        entry[0] += duration - frame[2]
        entry[1] += 1
        if len(self.exported) < self.export_limit:
            self.exported.append(
                (frame[0], frame[1], end, threading.get_ident(), frame[3], frame[4])
            )
        if not stack:
            bucket["root_ns"] = duration
            bucket["root"] = frame[0]
            self._merge(group_key, bucket)
        return duration

    def _merge(self, key, bucket: dict) -> None:
        with self._lock:
            group = self.groups.get(key)
            if group is None:
                self.groups[key] = bucket
                return
            for layer, (self_ns, calls) in bucket["layers"].items():
                entry = group["layers"].setdefault(layer, [0, 0])
                entry[0] += self_ns
                entry[1] += calls
            for name, value in bucket["values"].items():
                _note(group["values"], name, value)
            group["root_ns"] = group.get("root_ns", 0) + bucket.get("root_ns", 0)
            if bucket.get("root") == "verdict":
                group["root"] = "verdict"

    def verdict(self, key):
        """Context manager: a root span that groups everything one verdict calls."""
        return _Verdict(self, key)

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------

    def wrap(self, target: str, layer: str | None, *, observe=None, group=None, recursive=False):
        """Replace ``module:attr`` or ``module:Class.attr`` with a timing wrapper.

        ``layer`` None makes a counting wrapper (no span, only ``observe``).
        ``observe(note, args, result, duration_ns)`` records values;
        ``group(args, result)`` names the group of a root span;
        ``recursive`` methods shadow themselves on the instance during a
        top-level call, so their own recursion runs unwrapped.
        """
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        for name in owners:
            owner = getattr(owner, name)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_static = isinstance(raw, staticmethod)
        function = raw.__func__ if is_static else raw
        if layer is None:
            wrapper = self._counting_wrapper(function, observe)
        else:
            wrapper = self._span_wrapper(function, layer, observe, group, recursive, attr)
        setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)
        self._patches.append((owner, attr, raw))

    def _counting_wrapper(self, function, observe):
        recorder = self

        def counted(*args, **kwargs):
            result = function(*args, **kwargs)
            if getattr(recorder._local, "stack", None):
                observe(recorder._bucket_note, args, result, 0)
            return result

        return counted

    def _bucket_note(self, name: str, value: float) -> None:
        _note(self._local.bucket["values"], name, value)

    def _span_wrapper(self, function, layer, observe, group, recursive, attr):
        recorder = self

        def spanned(*args, **kwargs):
            if recursive:
                instance = args[0]
                instance.__dict__[attr] = function.__get__(instance)
            frame = recorder._open(layer)
            result = _RAISED
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                if recursive:
                    del instance.__dict__[attr]
                if result is _RAISED:
                    result = None
                elif observe is not None:
                    # Observed before the span closes, so a root span's
                    # values still land in its own group.
                    observe(recorder._bucket_note, args, result, time.perf_counter_ns() - frame[1])
                key = group(args, result) if group is not None else None
                recorder._close(frame, key)

        return spanned

    def restore(self) -> None:
        """Put every wrapped original back (in reverse order)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # reduction and export
    # ------------------------------------------------------------------

    def verdict_groups(self) -> list[dict]:
        """Groups rooted at a benchmark ``verdict`` span."""
        return [group for group in self.groups.values() if group.get("root") == "verdict"]

    def chrome_events(self, pid: int, label: str) -> list[dict]:
        """The exported spans as Chrome trace-event 'complete' events."""
        events = [
            {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": label}},
        ]
        for name, start, end, tid, span_id, parent in self.exported:
            events.append(
                {
                    "name": name,
                    "ph": "X",
                    "ts": start / 1000.0,
                    "dur": (end - start) / 1000.0,
                    "pid": pid,
                    "tid": tid,
                    "args": {"id": span_id, "parent": parent},
                }
            )
        return events

    def dump(self, path, pid: int, label: str) -> None:
        """Write spans, groups and counters for another process to merge."""
        payload = {
            "events": self.chrome_events(pid, label),
            "groups": [
                {"key": key, "root": group.get("root"), "root_ns": group.get("root_ns", 0),
                 "layers": group["layers"], "values": group["values"]}
                for key, group in self.groups.items()
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


class _Verdict:
    def __init__(self, recorder: Recorder, key):
        self.recorder = recorder
        self.key = key

    def __enter__(self):
        self.frame = self.recorder._open("verdict")
        return self

    def __exit__(self, *exc):
        self.recorder._close(self.frame, self.key)
        return False


def _note(values: dict, name: str, value: float) -> None:
    if name in MAX_VALUES:
        values[name] = max(values.get(name, value), value)
    else:
        values[name] = values.get(name, 0) + value


def calibrate_wrapper_ns(calls: int = 20_000) -> float:
    """Cost of one span wrapper around a no-op call, in nanoseconds (best of 3)."""
    recorder = Recorder(export_limit=0)

    def noop():
        return None

    wrapped = recorder._span_wrapper(noop, "noop", None, None, False, "noop")
    best = float("inf")
    for _ in range(3):
        timings = []
        for call in (noop, wrapped):
            with recorder.verdict(None):
                start = time.perf_counter_ns()
                for _ in range(calls):
                    call()
                timings.append(time.perf_counter_ns() - start)
        best = min(best, (timings[1] - timings[0]) / calls)
    return max(0.0, best)


# ----------------------------------------------------------------------
# what is wrapped, and how groups reduce to per-layer metrics
# ----------------------------------------------------------------------


def _observe_checker(note, args, outcome, duration_ns):
    criterion = outcome.criterion.value
    note("checker.attempts", 1)
    if criterion in DEFINITIVE:
        note("checker.decisive", 1)
    details = outcome.details
    if "max_nodes" in details:
        note("dd.peak_nodes", details["max_nodes"])
    statistics_ = details.get("dd_statistics")
    if statistics_:
        note("dd.matrix_nodes", statistics_["matrix_nodes"])


def _observe_simulation(note, args, outcome, duration_ns):
    _observe_checker(note, args, outcome, duration_ns)
    if outcome.criterion.value not in DEFINITIVE:
        note("checker.simulation.wasted_ns", duration_ns)


def _observe_transform(note, args, result, duration_ns):
    note("transform.gates_out", len(result.circuit))


def _observe_gate_cache(note, args, result, duration_ns):
    note("dd.gate_cache_lookups", 1)
    if result is not None:
        note("dd.gate_cache_hits", 1)


def _observe_cache_get(note, args, result, duration_ns):
    note("cache.gets", 1)
    if result is not None:
        note("cache.hits", 1)


def _observe_request(note, args, result, duration_ns):
    note("http.requests", 1)


#: The engine: manager, scheduler, Scheme-1 transformation, checkers, DD.
ENGINE = [
    ("repro.core.manager:EquivalenceCheckingManager.run", "manager", {}),
    ("repro.core.manager:EquivalenceCheckingManager.schedule_for", "scheduler.decide", {}),
    ("repro.core.transformation:to_unitary_circuit", "transform", {"observe": _observe_transform}),
    ("repro.core.equivalence:to_unitary_circuit", "transform", {"observe": _observe_transform}),
    ("repro.core.manager:to_unitary_circuit", "transform", {"observe": _observe_transform}),
    ("repro.core.checkers.alternating:AlternatingChecker.check", "checker.alternating", {"observe": _observe_checker}),
    ("repro.core.checkers.simulation:SimulationChecker.check", "checker.simulation", {"observe": _observe_simulation}),
    ("repro.core.checkers.alternating:instruction_to_dd", "dd.gate_build", {}),
    ("repro.dd.circuits:instruction_to_dd", "dd.gate_build", {}),
    ("repro.dd.package:DDPackage.multiply_matrices", "dd.multiply", {"recursive": True}),
    ("repro.dd.package:DDPackage.multiply_matrix_vector", "dd.mv_multiply", {"recursive": True}),
    ("repro.dd.package:DDPackage.identity_scalar", "dd.identity", {}),
    ("repro.dd.package:DDPackage.count_nodes", "dd.count_nodes", {}),
    ("repro.dd.package:DDPackage.gate_cache_lookup", None, {"observe": _observe_gate_cache}),
]

#: The client side of the service: one span per HTTP call.
CLIENT = [
    ("repro.service.client:VerificationClient.submit", "http.submit", {}),
    ("repro.service.client:VerificationClient.result", "http.result", {}),
    ("repro.service.client:VerificationClient._request_once", None, {"observe": _observe_request}),
]

#: The server side: submission and execution roots, parse, fingerprints, cache.
SERVER = [
    ("repro.service.server:VerificationService.submit_qasm", "service.submit",
     {"group": lambda args, result: result["job_id"] if result else None}),
    ("repro.service.server:VerificationService._execute", "service.execute",
     {"group": lambda args, result: args[1].job_id}),
    ("repro.service.server:circuit_from_qasm", "qasm.parse", {}),
    ("repro.service.server:pair_fingerprint", "fingerprint.raw", {}),
    ("repro.service.fingerprint:pair_fingerprint", "fingerprint.raw", {}),
    ("repro.service.fingerprint:canonical_pair_fingerprint", "fingerprint.canonical", {}),
    ("repro.service.cache:VerdictCache.get", "cache.lookup", {"observe": _observe_cache_get}),
    ("repro.service.cache:VerdictCache.put", "cache.store", {}),
] + ENGINE

#: Span name -> repro layer, for the coverage table.
LAYER_OF = {
    "manager": "repro.core.manager",
    "scheduler.decide": "repro.core.scheduler",
    "transform": "repro.core.transformation",
    "checker.alternating": "repro.core.checkers",
    "checker.simulation": "repro.core.checkers",
    "dd.gate_build": "repro.dd",
    "dd.multiply": "repro.dd",
    "dd.mv_multiply": "repro.dd",
    "dd.identity": "repro.dd",
    "dd.count_nodes": "repro.dd",
    "http.submit": "repro.service front end",
    "http.result": "repro.service front end",
    "service.submit": "repro.service.server",
    "service.execute": "repro.service.server",
    "qasm.parse": "repro.circuit.qasm",
    "fingerprint.raw": "repro.service.fingerprint",
    "fingerprint.canonical": "repro.service.fingerprint",
    "cache.lookup": "repro.service.cache",
    "cache.store": "repro.service.cache",
    "verdict": "unattributed",
}

#: Per-layer time metrics: metric name -> span name (median self ms per group).
SELF_TIME_METRICS = {
    "dd.gate_build_ms": "dd.gate_build",
    "dd.multiply_ms": "dd.multiply",
    "dd.identity_ms": "dd.identity",
    "dd.count_nodes_ms": "dd.count_nodes",
    "dd.mv_multiply_ms": "dd.mv_multiply",
    "transform.ms": "transform",
    "checker.alternating.ms": "checker.alternating",
    "checker.simulation.ms": "checker.simulation",
    "scheduler.decide_ms": "scheduler.decide",
    "manager.self_ms": "manager",
    "qasm.parse_ms": "qasm.parse",
    "fingerprint.raw_ms": "fingerprint.raw",
    "fingerprint.canonical_ms": "fingerprint.canonical",
    "cache.lookup_ms": "cache.lookup",
    "http.submit_ms": "http.submit",
    "http.result_ms": "http.result",
}

#: Per-layer count metrics: metric name -> span name (median calls per group).
CALL_COUNT_METRICS = {"dd.gate_builds": "dd.gate_build", "dd.multiplies": "dd.multiply"}

#: Median per group of an observed value (groups that observed it).
VALUE_METRICS = {
    "dd.peak_nodes": ("dd.peak_nodes", 1.0),
    "dd.matrix_nodes": ("dd.matrix_nodes", 1.0),
    "transform.gates_out": ("transform.gates_out", 1.0),
    "checker.simulation.wasted_ms": ("checker.simulation.wasted_ns", 1e-6),
}

#: Ratios of summed values over all groups.
RATIO_METRICS = {
    "dd.gate_cache_hit_ratio": ("dd.gate_cache_hits", "dd.gate_cache_lookups"),
    "portfolio.decisive_ratio": ("checker.decisive", "checker.attempts"),
    "cache.hit_ratio": ("cache.hits", "cache.gets"),
}


def reduce_groups(groups: list[dict]) -> dict[str, float]:
    """Per-layer metrics from per-group aggregates; absent layers read 0."""
    metrics: dict[str, float] = {}
    for metric, layer in SELF_TIME_METRICS.items():
        values = [g["layers"][layer][0] / 1e6 for g in groups if layer in g["layers"]]
        metrics[metric] = statistics.median(values) if values else 0.0
    for metric, layer in CALL_COUNT_METRICS.items():
        values = [g["layers"][layer][1] for g in groups if layer in g["layers"]]
        metrics[metric] = statistics.median(values) if values else 0.0
    for metric, (name, scale) in VALUE_METRICS.items():
        values = [g["values"][name] * scale for g in groups if name in g["values"]]
        metrics[metric] = statistics.median(values) if values else 0.0
    for metric, (numerator, denominator) in RATIO_METRICS.items():
        top = sum(g["values"].get(numerator, 0) for g in groups)
        bottom = sum(g["values"].get(denominator, 0) for g in groups)
        metrics[metric] = top / bottom if bottom else 0.0
    return metrics


#: Observed values that count the calls of a counting wrapper.
COUNTED_CALLS = ("dd.gate_cache_lookups", "http.requests")


def wrapped_calls(groups: list[dict]) -> int:
    """Wrapped calls made inside the groups, benchmark verdict spans excluded."""
    return sum(
        sum(calls for name, (_, calls) in group["layers"].items() if name != "verdict")
        + sum(group["values"].get(name, 0) for name in COUNTED_CALLS)
        for group in groups
    )


def layer_table(groups: list[dict]) -> tuple[dict[str, float], float]:
    """Total self ms per repro layer, and the groups' summed root time in ms."""
    totals: dict[str, float] = {}
    for group in groups:
        for name, (self_ns, _calls) in group["layers"].items():
            layer = LAYER_OF.get(name, name)
            totals[layer] = totals.get(layer, 0.0) + self_ns / 1e6
    return totals, sum(group.get("root_ns", 0) for group in groups) / 1e6
