"""Property-based tests (hypothesis) for the alternating application schedule.

The schedule drives the alternating equivalence-checking scheme: get the token
counts wrong and gates of one circuit are skipped or applied twice, silently
corrupting the verdict.  These properties pin the schedule contract for all
gate counts.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.strategies import LEFT, RIGHT, alternating_schedule
from repro.exceptions import EquivalenceCheckingError

counts = st.integers(min_value=0, max_value=200)


@settings(deadline=None)
@given(num_left=counts, num_right=counts)
def test_schedule_emits_exact_token_counts(num_left, num_right):
    tokens = list(alternating_schedule(num_left, num_right))
    assert tokens.count(LEFT) == num_left
    assert tokens.count(RIGHT) == num_right
    assert len(tokens) == num_left + num_right
    assert set(tokens) <= {LEFT, RIGHT}


@settings(deadline=None)
@given(num_left=counts, num_right=counts)
def test_schedule_never_overruns_either_circuit(num_left, num_right):
    """Prefix counts never exceed the available gates (no index overruns)."""
    left_done = right_done = 0
    for token in alternating_schedule(num_left, num_right):
        if token == LEFT:
            left_done += 1
        else:
            right_done += 1
        assert left_done <= num_left
        assert right_done <= num_right


@settings(deadline=None)
@given(
    num_left=st.integers(min_value=1, max_value=200),
    num_right=st.integers(min_value=1, max_value=200),
)
def test_proportional_prefixes_track_the_ideal_ratio(num_left, num_right):
    """After k steps, k * num_left / (num_left + num_right) ± 1 LEFTs were emitted."""
    total = num_left + num_right
    left_done = 0
    for step, token in enumerate(alternating_schedule(num_left, num_right), 1):
        if token == LEFT:
            left_done += 1
        ideal = step * num_left / total
        assert abs(left_done - ideal) <= 1.0


@pytest.mark.parametrize("num_left,num_right", [(-1, 3), (3, -1), (-1, -1)])
def test_negative_counts_raise(num_left, num_right):
    with pytest.raises(EquivalenceCheckingError):
        list(alternating_schedule(num_left, num_right))


def test_schedule_takes_no_strategy_argument():
    """The proportional interleaving is the only schedule; there is nothing to select."""
    with pytest.raises(TypeError):
        alternating_schedule(2, 2, "proportional")
