"""Tests for the result types, configuration plumbing and DD support tables."""

import pytest

from repro.core.configuration import Configuration
from repro.core.results import EquivalenceCheckResult, EquivalenceCriterion
from repro.dd.complexvalue import ckey, is_close, is_one, is_zero
from repro.utils.timing import Stopwatch, timed


class TestEquivalenceCriterion:
    @pytest.mark.parametrize(
        "criterion,expected",
        [
            (EquivalenceCriterion.EQUIVALENT, True),
            (EquivalenceCriterion.EQUIVALENT_UP_TO_GLOBAL_PHASE, True),
            (EquivalenceCriterion.PROBABLY_EQUIVALENT, True),
            (EquivalenceCriterion.NOT_EQUIVALENT, False),
            (EquivalenceCriterion.NO_INFORMATION, False),
        ],
    )
    def test_considered_equivalent(self, criterion, expected):
        assert criterion.considered_equivalent is expected

    def test_values_are_stable_strings(self):
        assert EquivalenceCriterion.EQUIVALENT.value == "equivalent"
        assert EquivalenceCriterion.NOT_EQUIVALENT.value == "not_equivalent"


class TestEquivalenceCheckResult:
    def test_total_time(self):
        result = EquivalenceCheckResult(
            EquivalenceCriterion.EQUIVALENT,
            method="alternating",
            time_transformation=0.25,
            time_check=0.5,
        )
        assert result.total_time == pytest.approx(0.75)
        assert result.equivalent

    def test_str_contains_key_fields(self):
        result = EquivalenceCheckResult(
            EquivalenceCriterion.NOT_EQUIVALENT, method="simulation"
        )
        text = str(result)
        assert "not_equivalent" in text
        assert "method=simulation" in text

    def test_details_default_is_independent(self):
        first = EquivalenceCheckResult(EquivalenceCriterion.EQUIVALENT, method="a")
        second = EquivalenceCheckResult(EquivalenceCriterion.EQUIVALENT, method="a")
        first.details["x"] = 1
        assert "x" not in second.details


class TestConfiguration:
    def test_frozen(self):
        config = Configuration()
        with pytest.raises(Exception):
            config.method = "construction"  # type: ignore[misc]

    def test_updated_chains(self):
        config = Configuration().updated(seed=3).updated(backend="dense")
        assert config.seed == 3
        assert config.backend == "dense"


class TestComplexValueHelpers:
    def test_ckey_collapses_nearby_values(self):
        assert ckey(0.1 + 0.2j) == ckey(0.1 + 1e-14 + 0.2j)

    def test_ckey_normalizes_negative_zero(self):
        assert ckey(complex(-0.0, -0.0)) == (0.0, 0.0)

    def test_predicates(self):
        assert is_zero(1e-12)
        assert not is_zero(1e-3)
        assert is_one(1.0 + 1e-12)
        assert is_close(0.5 + 0.5j, 0.5 + 0.5j + 1e-13)


class TestTimingHelpers:
    def test_stopwatch_accumulates(self):
        watch = Stopwatch()
        with watch.lap("a"):
            pass
        with watch.lap("a"):
            pass
        assert watch["a"] >= 0.0
        assert watch.get("missing", 1.5) == 1.5
        assert "a" in watch.laps

    def test_timed(self):
        value, elapsed = timed(lambda: 21 * 2)
        assert value == 42
        assert elapsed >= 0.0
