"""Verdict cache: tiers, persistence, manager integration, in-batch dedup, TTL."""

import pytest

from repro.algorithms import (
    bernstein_vazirani_dynamic,
    bernstein_vazirani_static,
    ghz_ladder,
    ghz_with_bug,
    qft_dynamic,
    qft_static_benchmark,
)
from repro.circuit import QuantumCircuit
from repro.core import Configuration, EquivalenceCheckingManager, EquivalenceCriterion
from repro.exceptions import EquivalenceCheckingError
from repro.service.cache import CachedVerdict, VerdictCache
from repro.service.fingerprint import pair_fingerprint

SEED = 99


def _result(manager=None, first=None, second=None):
    manager = manager or EquivalenceCheckingManager(seed=SEED)
    first = first or ghz_ladder(3)
    second = second or ghz_ladder(3)
    return manager._run_uncached(first, second)


class TestVerdictCacheUnit:
    def test_miss_then_hit(self):
        cache = VerdictCache()
        assert cache.get("fp") is None
        assert cache.put("fp", _result())
        restored = cache.get("fp")
        assert restored is not None
        assert restored.cached is True
        assert restored.criterion is EquivalenceCriterion.EQUIVALENT
        stats = cache.statistics()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["stores"] == 1

    def test_hit_preserves_essentials(self):
        cache = VerdictCache()
        original = _result()
        cache.put("fp", original)
        restored = cache.get("fp")
        assert restored.criterion is original.criterion
        assert restored.decided_by == original.decided_by
        assert restored.schedule == original.schedule
        assert [a.method for a in restored.attempts] == [
            a.method for a in original.attempts
        ]
        assert restored.result is not None  # decided-by attempt is rebuilt

    def test_no_information_results_are_not_cached(self):
        from repro.core.results import PortfolioResult

        cache = VerdictCache()
        undecided = PortfolioResult(
            criterion=EquivalenceCriterion.NO_INFORMATION,
            decided_by=None,
            reason="nothing ran",
        )
        assert not cache.put("fp", undecided)
        assert not cache.contains("fp")

    def test_lru_eviction_counts(self):
        cache = VerdictCache(max_entries=2)
        result = _result()
        for key in ("a", "b", "c"):
            cache.put(key, result)
        stats = cache.statistics()
        assert stats["entries"] == 2
        assert stats["evictions"] == 1
        assert cache.get("a") is None  # least recently used went first
        assert cache.get("c") is not None

    def test_invalid_max_entries_rejected(self):
        with pytest.raises(ValueError):
            VerdictCache(max_entries=0)

    def test_cached_verdict_json_roundtrip(self):
        verdict = CachedVerdict.from_result("fp", _result())
        rebuilt = CachedVerdict.from_json(verdict.to_json())
        assert rebuilt == verdict
        assert "scheduler" not in verdict.to_json()
        # Journal lines written before the one lineup carry a scheduler key.
        assert CachedVerdict.from_json({**verdict.to_json(), "scheduler": "static"}) == verdict


class TestVerdictCachePersistence:
    def test_survives_restart(self, tmp_path):
        path = tmp_path / "verdicts.jsonl"
        first = VerdictCache(path=path)
        first.put("fp", _result())
        reborn = VerdictCache(path=path)
        restored = reborn.get("fp")
        assert restored is not None
        assert restored.criterion is EquivalenceCriterion.EQUIVALENT
        stats = reborn.statistics()
        assert stats["persistent_hits"] == 1
        assert stats["persistent_entries"] == 1

    def test_eviction_does_not_lose_persisted_entries(self, tmp_path):
        path = tmp_path / "verdicts.jsonl"
        cache = VerdictCache(max_entries=1, path=path)
        result = _result()
        cache.put("a", result)
        cache.put("b", result)  # evicts "a" from the memory tier
        assert cache.get("a") is not None  # served from the journal tier
        assert cache.statistics()["persistent_hits"] == 1

    def test_clear_keeps_journal_backed_entries_servable(self, tmp_path):
        path = tmp_path / "verdicts.jsonl"
        cache = VerdictCache(path=path)
        cache.put("fp", _result())
        cache.clear()
        assert cache.get("fp") is not None  # replayed journal tier survives
        memory_only = VerdictCache()
        memory_only.put("fp", _result())
        memory_only.clear()
        assert memory_only.get("fp") is None

    def test_corrupt_journal_lines_are_skipped(self, tmp_path):
        path = tmp_path / "verdicts.jsonl"
        cache = VerdictCache(path=path)
        cache.put("fp", _result())
        with path.open("a", encoding="utf-8") as journal:
            journal.write("{truncated\n")
        reborn = VerdictCache(path=path)
        assert reborn.get("fp") is not None

    def test_missing_parent_directories_are_created_eagerly(self, tmp_path):
        path = tmp_path / "nested" / "deeper" / "verdicts.jsonl"
        cache = VerdictCache(path=path)
        assert path.exists()  # fail-fast touch at construction
        cache.put("fp", _result())
        assert VerdictCache(path=path).get("fp") is not None

    def test_journal_write_failure_degrades_to_memory_only(self, tmp_path, monkeypatch):
        path = tmp_path / "verdicts.jsonl"
        cache = VerdictCache(path=path)

        def broken_open(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(type(cache.path), "open", broken_open)
        assert cache.put("fp", _result())  # verification outcome survives
        monkeypatch.undo()
        assert cache.get("fp") is not None  # served from memory
        stats = cache.statistics()
        assert stats["journal_errors"] == 1
        assert stats["path"] is None  # persistence disabled after the failure

    def test_manager_cache_survives_restart(self, tmp_path):
        path = tmp_path / "verdicts.jsonl"
        first, second = ghz_ladder(3), ghz_ladder(3)
        cold = EquivalenceCheckingManager(seed=SEED, cache_path=str(path))
        fresh = cold.run(first, second)
        assert not fresh.cached
        warm = EquivalenceCheckingManager(seed=SEED, cache_path=str(path))
        replay = warm.run(first, second)
        assert replay.cached
        assert replay.criterion is fresh.criterion


class TestManagerCacheIntegration:
    def test_disabled_by_default(self):
        manager = EquivalenceCheckingManager(seed=SEED)
        assert manager.verdict_cache is None
        assert not Configuration().cache_enabled

    def test_run_hits_on_repeat(self):
        manager = EquivalenceCheckingManager(seed=SEED, verdict_cache=True)
        first, second = ghz_ladder(3), ghz_ladder(3)
        fresh = manager.run(first, second)
        repeat = manager.run(first, second)
        assert not fresh.cached
        assert repeat.cached
        assert repeat.criterion is fresh.criterion
        assert repeat.decided_by == fresh.decided_by
        assert manager.verdict_cache.hits == 1

    def test_not_equivalent_verdicts_cache_too(self):
        manager = EquivalenceCheckingManager(seed=SEED, verdict_cache=True)
        first, second = ghz_ladder(3), ghz_with_bug(3)
        fresh = manager.run(first, second)
        repeat = manager.run(first, second)
        assert fresh.criterion is EquivalenceCriterion.NOT_EQUIVALENT
        assert repeat.cached
        assert repeat.criterion is EquivalenceCriterion.NOT_EQUIVALENT

    def test_swapped_operands_do_not_collide(self):
        manager = EquivalenceCheckingManager(seed=SEED, verdict_cache=True)
        a, b = ghz_ladder(3), ghz_with_bug(3)
        manager.run(a, b)
        swapped = manager.run(b, a)
        assert not swapped.cached

    def test_permuted_runs_bypass_the_cache(self):
        manager = EquivalenceCheckingManager(seed=SEED, verdict_cache=True)
        first, second = ghz_ladder(3), ghz_ladder(3)
        manager.run(first, second)
        permuted = manager.run(
            first, second, qubit_permutation={0: 0, 1: 1, 2: 2}
        )
        assert not permuted.cached

    def test_injected_schedule_bypasses_the_cache(self):
        # The fingerprint does not commit to a caller-supplied schedule: such
        # runs must neither be stored (a falsifier-only schedule's
        # PROBABLY_EQUIVALENT would shadow the full portfolio's EQUIVALENT)
        # nor served (a hit would silently ignore the requested schedule).
        manager = EquivalenceCheckingManager(seed=SEED, verdict_cache=True)
        first, second = ghz_ladder(3), ghz_ladder(3)
        schedule = manager.schedule_for(first, second)
        scheduled = manager.run(first, second, schedule=schedule)
        assert not scheduled.cached
        assert manager.verdict_cache.statistics()["stores"] == 0
        manager.run(first, second)  # plain run primes the cache ...
        rescheduled = manager.run(first, second, schedule=schedule)
        assert not rescheduled.cached  # ... but scheduled runs still execute

    def test_unseeded_probably_equivalent_is_not_cached(self):
        # seed=None draws fresh stimuli per run: a later run could falsify a
        # pair an earlier run happened to pass, so that verdict must not be
        # frozen in the cache.
        first, second = ghz_ladder(3), ghz_ladder(3)
        unseeded = EquivalenceCheckingManager(
            verdict_cache=True, portfolio=("simulation",)
        )
        fresh = unseeded.run(first, second)
        assert fresh.criterion is EquivalenceCriterion.PROBABLY_EQUIVALENT
        repeat = unseeded.run(first, second)
        assert not repeat.cached
        assert unseeded.verdict_cache.statistics()["stores"] == 0
        # With a fixed seed the stimuli are part of the key: cacheable.
        seeded = EquivalenceCheckingManager(
            seed=SEED, verdict_cache=True, portfolio=("simulation",)
        )
        seeded.run(first, second)
        assert seeded.run(first, second).cached

    def test_unseeded_definitive_verdicts_still_cache(self):
        manager = EquivalenceCheckingManager(verdict_cache=True)
        first, second = ghz_ladder(3), ghz_ladder(3)
        fresh = manager.run(first, second)
        assert fresh.criterion is EquivalenceCriterion.EQUIVALENT
        assert manager.run(first, second).cached

    def test_precomputed_fingerprint_is_honoured(self):
        manager = EquivalenceCheckingManager(seed=SEED, verdict_cache=True)
        first, second = ghz_ladder(3), ghz_ladder(3)
        fingerprint = pair_fingerprint(first, second, manager.configuration)
        manager.run(first, second, fingerprint=fingerprint)
        assert manager.verdict_cache.contains(fingerprint)
        assert manager.run(first, second).cached  # same key either way

    def test_ultra_tight_tolerance_bypasses_the_cache(self):
        # The canonical form snaps angles within 1e-12 of pi multiples (as a
        # QASM round-trip does), so two such circuits share a fingerprint:
        import math

        from repro.service.fingerprint import circuit_fingerprint

        a = QuantumCircuit(1)
        a.rz(math.pi / 2, 0)
        b = QuantumCircuit(1)
        b.rz(math.pi / 2 + 5e-13, 0)
        assert circuit_fingerprint(a) == circuit_fingerprint(b)
        # A tolerance at/below that resolution could in principle tell them
        # apart, so fingerprint-keyed caching is disabled for it entirely.
        manager = EquivalenceCheckingManager(
            seed=SEED, verdict_cache=True, tolerance=1e-13
        )
        first, second = ghz_ladder(3), ghz_ladder(3)
        manager.run(first, second)
        repeat = manager.run(first, second)
        assert not repeat.cached
        assert manager.verdict_cache.statistics()["stores"] == 0

    def test_configuration_validation(self):
        with pytest.raises(EquivalenceCheckingError):
            Configuration(cache_size=0)
        assert Configuration(cache_path="x").cache_enabled


def _duplicate_heavy_pairs():
    """20 pairs, 4 distinct: the acceptance-criteria batch shape."""
    distinct = [
        (ghz_ladder(3), ghz_ladder(3)),
        (ghz_ladder(3), ghz_with_bug(3)),
        (qft_static_benchmark(3), qft_dynamic(3)),
        (
            bernstein_vazirani_static("101"),
            bernstein_vazirani_dynamic("101"),
        ),
    ]
    return [distinct[index % 4] for index in range(20)]


class TestInBatchDeduplication:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_dedup_agrees_with_uncached_run(self, executor):
        pairs = _duplicate_heavy_pairs()
        kwargs = dict(seed=SEED, executor=executor, max_workers=2, batch_chunk_size=2)
        plain = EquivalenceCheckingManager(**kwargs).verify_batch(pairs)
        cached_manager = EquivalenceCheckingManager(verdict_cache=True, **kwargs)
        deduped = cached_manager.verify_batch(pairs)

        assert [entry.index for entry in deduped.entries] == list(range(20))
        plain_criteria = [entry.result.criterion for entry in plain.entries]
        dedup_criteria = [entry.result.criterion for entry in deduped.entries]
        assert dedup_criteria == plain_criteria

        stats = cached_manager.verdict_cache.statistics()
        assert stats["hits"] >= 16, stats
        # Each of the 4 distinct pairs is stored under its raw fingerprint
        # plus (where canonicalizable) its translation-level-invariant
        # canonical fingerprint.
        assert 4 <= stats["stores"] <= 8

    def test_duplicate_entries_are_marked_cached(self):
        pairs = [(ghz_ladder(3), ghz_ladder(3))] * 3
        manager = EquivalenceCheckingManager(seed=SEED, verdict_cache=True)
        batch = manager.verify_batch(pairs)
        assert not batch.entries[0].result.cached
        assert batch.entries[1].result.cached
        assert batch.entries[2].result.cached
        assert batch.entries[2].result.cached_via == "fingerprint"

    def test_fan_out_replicates_undecidable_pairs_without_caching(self):
        good = ghz_ladder(3)
        lopsided = QuantumCircuit(2, name="lopsided")
        lopsided.h(0)
        pairs = [(good, lopsided), (good, lopsided)]
        manager = EquivalenceCheckingManager(seed=SEED, verdict_cache=True)
        batch = manager.verify_batch(pairs)
        # Mismatched qubit counts fail every checker: the pair ends
        # NO_INFORMATION, which is uncacheable — the duplicate replicates the
        # representative's verdict instead (same input, same outcome).
        for entry in batch.entries:
            assert entry.result.criterion is EquivalenceCriterion.NO_INFORMATION
        assert not batch.entries[1].result.cached
        assert batch.entries[1].name_second == "lopsided"
        assert manager.verdict_cache.statistics()["stores"] == 0

    def test_process_batch_stores_verdicts_in_parent_cache(self):
        pairs = [(ghz_ladder(3), ghz_ladder(3))]
        manager = EquivalenceCheckingManager(
            seed=SEED, verdict_cache=True, executor="process", max_workers=1
        )
        manager.verify_batch(pairs)
        fingerprint = pair_fingerprint(*pairs[0], manager.configuration)
        assert manager.verdict_cache.contains(fingerprint)

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_warm_batch_is_served_from_persistent_cache(self, executor, tmp_path):
        # Regression: process batches used to dispatch representatives to
        # (cache-less) workers without a parent-side lookup, so a warm
        # persistent cache was ignored on executor="process".
        path = tmp_path / "verdicts.jsonl"
        pairs = [(ghz_ladder(3), ghz_ladder(3)), (ghz_ladder(3), ghz_with_bug(3))]
        kwargs = dict(seed=SEED, cache_path=str(path), max_workers=2)
        cold = EquivalenceCheckingManager(executor=executor, **kwargs)
        cold_batch = cold.verify_batch(pairs)
        warm = EquivalenceCheckingManager(executor=executor, **kwargs)
        warm_batch = warm.verify_batch(pairs)
        assert all(entry.result.cached for entry in warm_batch.entries)
        assert [entry.result.criterion for entry in warm_batch.entries] == [
            entry.result.criterion for entry in cold_batch.entries
        ]
        stats = warm.verdict_cache.statistics()
        assert stats["hits"] == 2
        assert stats["stores"] == 0
