"""Verification service layer: fingerprints, verdict cache, job-queue server.

The PR 1-4 stack made one *process* fast at verifying circuit pairs; this
subsystem turns it into a *service* for real compilation flows, where the
same pairs are re-verified over and over as toolchains iterate:

* :mod:`repro.service.fingerprint` — a canonical, collision-resistant
  structural hash for circuits and ordered circuit pairs, keyed together
  with the verdict-relevant :class:`~repro.core.configuration.Configuration`
  fields so a cache hit can never change a verdict;
* :mod:`repro.service.cache` — :class:`VerdictCache`, an in-memory LRU tier
  with an optional persistent JSON-lines tier
  (``Configuration.cache_path``) storing
  :class:`~repro.core.results.PortfolioResult` essentials;
* :mod:`repro.service.server` — :class:`VerificationService`, the
  transport-free job queue: worker pool, request deduplication by
  fingerprint, queue-limit backpressure, graceful drain and long-poll
  plumbing;
* :mod:`repro.service.aserver` — :class:`VerificationServer`, the asyncio
  HTTP front end over that queue (``repro-qcec serve``) with
  submit/status/result/trace/stats/metrics/healthz endpoints, long-poll
  result delivery, 429 + ``Retry-After`` backpressure and per-client
  token-bucket rate limiting;
* :mod:`repro.service.client` — the matching :class:`VerificationClient`:
  one kept-alive connection per thread, one long-polling submission per
  warm verdict.

The cache is also consulted by
:class:`~repro.core.manager.EquivalenceCheckingManager` itself
(``Configuration.verdict_cache`` / ``cache_path``), which additionally
dedupes identical pairs *within* a batch.

The server exports the unified metrics registry of
:mod:`repro.obs.metrics` as Prometheus text at ``GET /metrics``;
:class:`Counter`, :class:`Gauge`, :class:`Histogram` and
:class:`MetricsRegistry` are re-exported here.
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.service.aserver import VerificationServer
from repro.service.cache import CachedVerdict, VerdictCache
from repro.service.client import VerificationClient
from repro.service.fingerprint import (
    circuit_fingerprint,
    configuration_fingerprint,
    pair_fingerprint,
)
from repro.service.server import VerificationService

__all__ = [
    "CachedVerdict",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "VerdictCache",
    "VerificationClient",
    "VerificationServer",
    "VerificationService",
    "circuit_fingerprint",
    "configuration_fingerprint",
    "pair_fingerprint",
]
