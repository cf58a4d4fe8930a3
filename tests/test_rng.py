"""The simulator's stream equals ``numpy.random.default_rng`` draw for draw.

numpy is the oracle here only: ``repro.traffic.rng`` never imports it.
Every property builds both generators from one seed, makes the same calls
on each and compares every value, then one more ``random()`` to show both
streams are at the same position (the 32-bit half-word included).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traffic.rng import Stream

#: Seeds one 32-bit word, two words (>= 2**32) and three (>= 2**64) wide.
seeds = st.one_of(
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**96),
)
FAST = settings(max_examples=40, deadline=None)


def pair(seed):
    return Stream(seed), np.random.default_rng(seed)


def assert_in_step(ours, oracle):
    assert ours.random() == oracle.random()


@FAST
@given(seeds)
def test_seeding_and_doubles(seed):
    ours, oracle = pair(seed)
    assert [ours.random() for _ in range(8)] == oracle.random(8).tolist()


def test_seed_zero_and_first_draws_are_numpys():
    ours, oracle = pair(0)
    assert ours.random() == oracle.random() == 0.6369616873214543


@FAST
@given(seeds, st.lists(st.integers(1, 2**32 - 1), min_size=1, max_size=12))
def test_integers(seed, highs):
    ours, oracle = pair(seed)
    assert [ours.integers(h) for h in highs] == [int(oracle.integers(h)) for h in highs]
    assert_in_step(ours, oracle)


@FAST
@given(seeds, st.integers(2**31 + 1, 2**32 - 1))
def test_integers_rejection_branch(seed, high):
    """Near 2**32 most of Lemire's products fall below the threshold."""
    ours, oracle = pair(seed)
    assert [ours.integers(high) for _ in range(16)] == oracle.integers(high, size=16).tolist()
    assert_in_step(ours, oracle)


def test_integers_edges():
    ours, oracle = pair(3)
    assert ours.integers(1) == oracle.integers(1) == 0  # draws nothing
    assert_in_step(ours, oracle)
    for high in (0, 2**32):
        with pytest.raises(ValueError):
            ours.integers(high)


@FAST
@given(seeds, st.lists(st.sampled_from(["i32", "f64", "i8"]), min_size=1, max_size=20))
def test_interleaved_32_and_64_bit_draws(seed, calls):
    """A 32-bit draw keeps the upper half-word; a 64-bit draw leaves it."""
    ours, oracle = pair(seed)
    for call in calls:
        if call == "f64":
            assert ours.random() == oracle.random()
        else:
            high = 2**31 + 7 if call == "i32" else 255
            assert ours.integers(high) == oracle.integers(high)
    assert_in_step(ours, oracle)


@FAST
@given(
    seeds,
    st.one_of(
        st.integers(0, 64),  # inversion side of n * p = 30
        st.integers(61, 5_000),  # either side, depending on p
        st.integers(50_000, 200_000),  # BTPE
    ),
    st.one_of(
        st.sampled_from([0.0, 1.0, 0.5, 0.15 / 16, 0.3, 0.7, 0.999]),
        st.floats(0.0, 1.0),
    ),
)
def test_binomial(seed, n, p):
    ours, oracle = pair(seed)
    assert [ours.binomial(n, p) for _ in range(20)] == oracle.binomial(n, p, size=20).tolist()
    assert_in_step(ours, oracle)


@pytest.mark.parametrize("n", [30, 31, 60, 61, 100_000])
def test_binomial_either_side_of_inversion_limit(n):
    """n * p == 30 exactly is inversion, just above it BTPE, mirrored above 1/2."""
    p = 30 / n
    ours, oracle = pair(n)
    for q in (p, min(1.0, p * (1 + 1e-12)), 1 - p):
        assert [ours.binomial(n, q) for _ in range(50)] == oracle.binomial(n, q, 50).tolist()
    assert_in_step(ours, oracle)


def test_binomial_validation():
    ours = Stream(1)
    for n, p in ((4, -0.1), (4, 1.5), (4, float("nan")), (-1, 0.5)):
        with pytest.raises(ValueError):
            ours.binomial(n, p)


@FAST
@given(seeds, st.data())
def test_choice_floyd(seed, data):
    n = data.draw(st.integers(1, 10_000))
    size = data.draw(st.integers(0, min(n, 200)))
    ours, oracle = pair(seed)
    assert ours.choice(n, size) == oracle.choice(n, size, replace=False).tolist()
    assert_in_step(ours, oracle)


@pytest.mark.parametrize("n, size", [(10_001, 201), (12_000, 240), (12_000, 241), (20_000, 20_000)])
def test_choice_tail_shuffle(n, size):
    """Above 10,000 items a sample bigger than n // 50 shuffles the tail."""
    ours, oracle = pair(n + size)
    assert ours.choice(n, size) == oracle.choice(n, size, replace=False).tolist()
    assert_in_step(ours, oracle)


def test_choice_validation():
    with pytest.raises(ValueError):
        Stream(0).choice(5, 6)


@FAST
@given(seeds, st.lists(st.integers(), max_size=300))
def test_shuffle(seed, items):
    ours, oracle = pair(seed)
    mine, theirs = list(items), list(items)
    ours.shuffle(mine)
    oracle.shuffle(theirs)
    assert mine == theirs
    assert_in_step(ours, oracle)


def test_negative_seed_is_rejected_like_numpy():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        Stream(-1)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.default_rng(-1)
