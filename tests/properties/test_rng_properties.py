"""Property tests: the shared bounded draw is ``randint(1, n)``, draw for draw."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.rng import randint_upto

#: 1, 2, 3, then 2^k - 1, 2^k and 2^k + 1 for every k up to 20.
BOUNDS = sorted({1, 2, 3} | {2**k + d for k in range(1, 21) for d in (-1, 0, 1)})


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    n=st.sampled_from(BOUNDS),
    draws=st.integers(min_value=1, max_value=8),
)
def test_matches_randint_value_and_generator_state(seed, n, draws):
    ours = random.Random(seed)
    stdlib = random.Random(seed)
    for _ in range(draws):
        assert randint_upto(ours, n) == stdlib.randint(1, n)
        assert ours.getstate() == stdlib.getstate()


@given(seed=st.integers(min_value=0, max_value=2**32), n=st.sampled_from(BOUNDS))
def test_stays_in_range(seed, n):
    assert 1 <= randint_upto(random.Random(seed), n) <= n


@pytest.mark.parametrize("n", [0, -3])
def test_empty_range_raises_like_randint(n):
    with pytest.raises(ValueError):
        random.Random(0).randint(1, n)
    with pytest.raises(ValueError):
        randint_upto(random.Random(0), n)
