"""Tests for the unified metrics registry and its integration hooks."""

import threading

import pytest

from repro.algorithms import (
    bernstein_vazirani_dynamic,
    bernstein_vazirani_static,
    ghz_ladder,
    ghz_with_bug,
    iterative_qpe,
    qpe_static,
)
from repro.compilation import rewrite_single_qubit_to_u
from repro.core.configuration import Configuration
from repro.core.manager import EquivalenceCheckingManager
from repro.dd.package import DDPackage
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    publish_dd_statistics,
)
from repro.service.server import VerificationService


def _parse_exposition(text: str) -> dict[str, float]:
    """Sample lines of a Prometheus text page as ``{series: value}``."""
    samples: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        assert series, f"malformed sample line {line!r}"
        samples[series] = float(value)
    return samples


class TestInstruments:
    def test_counter_counts_and_renders(self):
        registry = MetricsRegistry()
        counter = registry.counter("jobs_total", "Jobs.", labelnames=("status",))
        counter.inc(status="done")
        counter.inc(2, status="failed")
        samples = _parse_exposition(registry.render())
        assert samples['jobs_total{status="done"}'] == 1
        assert samples['jobs_total{status="failed"}'] == 2

    def test_counter_rejects_decrease_and_label_mismatch(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "C.", labelnames=("k",))
        with pytest.raises(ValueError):
            counter.inc(-1, k="a")
        with pytest.raises(ValueError):
            counter.inc(wrong="a")

    def test_unlabelled_counter_renders_zero_sample(self):
        registry = MetricsRegistry()
        registry.counter("idle_total", "Never incremented.")
        assert "idle_total 0" in registry.render().splitlines()

    def test_gauge_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth", "Depth.")
        gauge.set(5)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value() == 4
        assert "depth 4" in registry.render().splitlines()

    def test_gauge_callback_evaluated_at_scrape_time(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("live", "Live value.")
        state = {"value": 1.0}
        gauge.set_function(lambda: state["value"])
        assert "live 1" in registry.render().splitlines()
        state["value"] = 7.5
        assert "live 7.5" in registry.render().splitlines()

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "lat_seconds", "Latency.", buckets=(0.1, 1.0, 10.0)
        )
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            histogram.observe(value)
        samples = _parse_exposition(registry.render())
        assert samples['lat_seconds_bucket{le="0.1"}'] == 1
        assert samples['lat_seconds_bucket{le="1"}'] == 3
        assert samples['lat_seconds_bucket{le="10"}'] == 4
        assert samples['lat_seconds_bucket{le="+Inf"}'] == 5
        assert samples["lat_seconds_count"] == 5
        assert samples["lat_seconds_sum"] == pytest.approx(56.05)

    def test_histogram_with_labels(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "h_seconds", "H.", labelnames=("checker",), buckets=(1.0,)
        )
        histogram.observe(0.5, checker="alternating")
        histogram.observe(2.0, checker="alternating")
        samples = _parse_exposition(registry.render())
        assert samples['h_seconds_bucket{checker="alternating", le="1"}'] == 1
        assert samples['h_seconds_bucket{checker="alternating", le="+Inf"}'] == 2
        assert histogram.count(checker="alternating") == 2

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        counter = registry.counter("esc_total", "E.", labelnames=("path",))
        counter.inc(path='a"b\\c\nd')
        rendered = registry.render()
        assert 'path="a\\"b\\\\c\\nd"' in rendered

    def test_invalid_names_are_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad name", "B.")
        with pytest.raises(ValueError):
            registry.counter("ok_total", "B.", labelnames=("bad-label",))


class TestRegistry:
    def test_reregistration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "X.", labelnames=("a",))
        second = registry.counter("x_total", "X again.", labelnames=("a",))
        assert first is second

    def test_kind_or_schema_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "X.", labelnames=("a",))
        with pytest.raises(ValueError):
            registry.gauge("x_total", "X.", labelnames=("a",))
        with pytest.raises(ValueError):
            registry.counter("x_total", "X.", labelnames=("b",))

    def test_collector_runs_per_scrape_and_failures_are_isolated(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("harvested", "H.")
        calls = []

        def good():
            calls.append(1)
            gauge.set(len(calls))

        def bad():
            raise RuntimeError("sick source")

        registry.add_collector(bad)
        registry.add_collector(good)
        registry.render()
        rendered = registry.render()
        assert "harvested 2" in rendered.splitlines()

    def test_concurrent_observations_do_not_lose_counts(self):
        registry = MetricsRegistry()
        counter = registry.counter("hot_total", "Hot.")
        histogram = registry.histogram("hot_seconds", "Hot.", buckets=(1.0,))

        def hammer():
            for _ in range(500):
                counter.inc()
                histogram.observe(0.5)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value() == 4000
        assert histogram.count() == 4000


class TestIntegrationHooks:
    def test_manager_observes_checker_latency_and_run_outcomes(self):
        registry = MetricsRegistry()
        manager = EquivalenceCheckingManager(
            Configuration(seed=11, verdict_cache=True)
        )
        manager.metrics = registry
        first, second = iterative_qpe(3), qpe_static(3)
        manager.run(first, second)
        manager.run(first, second)  # warm: cache hit
        runs = registry.get("repro_manager_runs_total")
        assert runs.value(outcome="executed") == 1
        assert runs.value(outcome="cache_hit") == 1
        latency = registry.get("repro_checker_latency_seconds")
        assert latency is not None and latency.kind == "histogram"
        rendered = registry.render()
        assert "repro_checker_latency_seconds_bucket" in rendered

    def test_manager_harvests_dd_statistics_from_attempts(self):
        registry = MetricsRegistry()
        manager = EquivalenceCheckingManager(
            Configuration(portfolio=("alternating",), seed=11, verdict_cache=False)
        )
        manager.metrics = registry
        manager.run(iterative_qpe(3), qpe_static(3))
        rendered = registry.render()
        assert "repro_dd_events_total" in rendered

    def test_dd_package_statistics_publish_into_registry(self):
        registry = MetricsRegistry()
        package = DDPackage(2)
        key = ("h", (0,))
        assert package.gate_cache_lookup(key) is None  # miss
        package.gate_cache_store(key, package.identity())
        assert package.gate_cache_lookup(key) is not None  # hit
        publish_dd_statistics(registry, package.statistics(), checker="unit-test")
        counter = registry.get("repro_dd_events_total")
        assert counter.value(checker="unit-test", event="gate_cache_hits") >= 1
        assert counter.value(checker="unit-test", event="gate_cache_misses") >= 1

    def test_publish_dd_statistics_ignores_missing_keys(self):
        registry = MetricsRegistry()
        publish_dd_statistics(registry, {"vector_nodes": 3}, checker="partial")
        nodes = registry.get("repro_dd_last_run_nodes")
        assert nodes.value(checker="partial", kind="vector_nodes") == 3


#: The families every settled pair writes, whichever path settled it.
_SETTLE_FAMILIES = (
    "repro_manager_runs_total",
    "repro_dd_events_total",
    "repro_checker_latency_seconds_count",
)


def _settle_counts(registry: MetricsRegistry) -> dict[str, float]:
    """The settle families' samples (histograms by observation count only)."""
    return {
        series: value
        for series, value in _parse_exposition(registry.render()).items()
        if series.startswith(_SETTLE_FAMILIES)
    }


def _distinct_pairs():
    """Four distinct pairs, none a translation of another (no canonical hits)."""
    ghz = ghz_ladder(3)
    return [
        (ghz, rewrite_single_qubit_to_u(ghz)),  # a translated pair, proved
        (ghz_ladder(4), ghz_with_bug(4)),  # the DD prover refutes it
        (iterative_qpe(3), qpe_static(3)),  # dynamic: reconstructed first
        (bernstein_vazirani_static("101"), bernstein_vazirani_dynamic("101")),
    ]


def _settle_manager(executor: str, cache: bool) -> EquivalenceCheckingManager:
    manager = EquivalenceCheckingManager(
        Configuration(
            portfolio=("alternating",),
            seed=11,
            verdict_cache=cache,
            executor=executor,
            max_workers=2,
        )
    )
    manager.metrics = MetricsRegistry()
    return manager


class TestOneSettlePath:
    """A batch records each pair exactly as ``run()`` on that pair would."""

    @pytest.mark.parametrize("cache", [False, True], ids=["uncached", "cached"])
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_batch_records_what_run_records(self, executor, cache):
        pairs = _distinct_pairs()
        reference = _settle_manager(executor, cache)
        for first, second in pairs:
            reference.run(first, second)
        expected = _settle_counts(reference.metrics)
        assert expected['repro_manager_runs_total{outcome="executed"}'] == len(pairs)
        assert expected[
            'repro_checker_latency_seconds_count{checker="alternating", status="completed"}'
        ] == len(pairs)
        assert any(series.startswith("repro_dd_events_total") for series in expected)

        manager = _settle_manager(executor, cache)
        batch = manager.verify_batch(pairs)
        assert batch.num_failed == 0
        assert _settle_counts(manager.metrics) == expected
        assert manager.dd_statistics() == reference.dd_statistics()

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_second_batch_pass_counts_cache_hits(self, executor):
        pairs = _distinct_pairs()
        manager = _settle_manager(executor, cache=True)
        manager.verify_batch(pairs)
        cold = _settle_counts(manager.metrics)
        manager.verify_batch(pairs)
        warm = _settle_counts(manager.metrics)
        assert warm.pop('repro_manager_runs_total{outcome="cache_hit"}') == len(pairs)
        # A cache hit runs no checker: nothing else moves.
        assert warm == cold


class TestCanonicalMetrics:
    def test_canonical_cache_hit_counts_and_fans_out(self):
        registry = MetricsRegistry()
        manager = EquivalenceCheckingManager(
            Configuration(seed=11, verdict_cache=True)
        )
        manager.metrics = registry
        first = ghz_ladder(3)
        cold = manager.run(first, first.copy())
        assert cold.cached is False
        # The same pair at another translation level: raw fingerprints differ
        # but the canonical form is translation-level-invariant.
        translated = rewrite_single_qubit_to_u(first)
        cross = manager.run(translated, translated.copy())
        assert cross.cached is True
        assert cross.cached_via == "canonical_fingerprint"
        runs = registry.get("repro_manager_runs_total")
        assert runs.value(outcome="canonical_cache_hit") == 1
        canonical = registry.get("repro_canonical_fingerprints_total")
        assert canonical.value(status="computed") >= 1
        # The canonical hit fanned out to the raw key: re-running the
        # translated pair now hits the first (raw-fingerprint) tier.
        again = manager.run(translated, translated.copy())
        assert again.cached_via == "fingerprint"

    def test_canonicalize_false_disables_the_canonical_tier(self):
        registry = MetricsRegistry()
        manager = EquivalenceCheckingManager(
            Configuration(seed=11, verdict_cache=True, canonicalize=False)
        )
        manager.metrics = registry
        first = ghz_ladder(3)
        manager.run(first, first.copy())
        cross = manager.run(
            rewrite_single_qubit_to_u(first),
            rewrite_single_qubit_to_u(first),
        )
        assert cross.cached is False
        canonical = registry.get("repro_canonical_fingerprints_total")
        assert canonical is None or canonical.value(status="computed") == 0

    def test_service_stats_expose_the_canonicalization_section(self):
        service = VerificationService(Configuration(seed=11))
        try:
            stats = service.stats()
            assert stats["canonicalization"] == {
                "enabled": True,
                "cache_hits": 0,
                "fingerprints_computed": 0,
                "fingerprints_unavailable": 0,
            }
            assert "rewrite" not in stats
            # Instruments are pre-registered: the family renders on the
            # first scrape, before any run populates it.
            rendered = service.metrics.render()
            assert "# TYPE repro_canonical_fingerprints_total counter" in rendered
            assert "repro_rewrite_" not in rendered
            first = ghz_ladder(3)
            service.manager.run(first, first.copy())
            translated = rewrite_single_qubit_to_u(first)
            service.manager.run(translated, translated.copy())
            stats = service.stats()
            assert stats["canonicalization"]["cache_hits"] == 1
            assert stats["canonicalization"]["fingerprints_computed"] >= 1
        finally:
            service.shutdown(wait=False)


class TestExports:
    def test_service_package_reexports(self):
        from repro.service import MetricsRegistry as Exported

        assert Exported is MetricsRegistry
        assert {Counter.kind, Gauge.kind, Histogram.kind} == {
            "counter",
            "gauge",
            "histogram",
        }
