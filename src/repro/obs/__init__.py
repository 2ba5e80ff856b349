"""Observability layer: tracing, structured logging, metrics, run telemetry.

Four stdlib-only modules that sit *below* every other subsystem (core,
service, resilience all import them; they import nothing back except the
crash-safe journal, which itself only uses :mod:`repro.obs.logs`):

* :mod:`repro.obs.trace` — contextvars-based spans with W3C ``traceparent``
  propagation: the manager opens spans around runs, scheduler decisions,
  checker attempts and cache lookups; the HTTP front ends accept a
  ``traceparent`` header and expose the finished tree at
  ``GET /jobs/<id>/trace``; the process-pool batch path ships the parent's
  trace context inside :class:`~repro.core.workers.BatchWorkUnit` and
  serializes finished worker spans back in the results.  Export as a nested
  span tree (``verify --json``) or Chrome trace-event JSON for perfetto
  (``repro-qcec trace``).
* :mod:`repro.obs.logs` — a JSON-lines structured logger with automatic
  trace correlation (``trace_id``/``span_id`` from the active span), wired
  to ``--log-level``/``--log-file`` on every CLI command.  Without explicit
  configuration the stack stays library-quiet (no handlers installed).
* :mod:`repro.obs.metrics` — the unified :class:`~repro.obs.metrics.
  MetricsRegistry` (counters, gauges, histograms) rendered as Prometheus
  text.  The manager's single recorder writes its run, checker-latency and
  DD series there, and the service exports the registry at
  ``GET /metrics``.
* :mod:`repro.obs.telemetry` — a run-telemetry journal: one crash-safe
  record per settled verification (fingerprint, features, schedule,
  per-checker timings and outcomes, verdict, cache provenance, breaker
  state) — the training substrate for a learned scheduler — surfaced via
  ``repro-qcec telemetry summarize`` and the service ``/stats`` section.

Tracing and logging are strictly opt-in at runtime: without an activated
:class:`~repro.obs.trace.Tracer` every ``span()`` is a no-op costing one
contextvar read, and without ``configure_logging()`` no handler is
installed, so the instrumented hot paths stay effectively free.
"""

from repro.obs.logs import configure_logging, get_logger
from repro.obs.trace import Span, Tracer, span, span_tree
from repro.obs.telemetry import TelemetryJournal, summarize_records

__all__ = [
    "Span",
    "TelemetryJournal",
    "Tracer",
    "configure_logging",
    "get_logger",
    "span",
    "span_tree",
    "summarize_records",
]
