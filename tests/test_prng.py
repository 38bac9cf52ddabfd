import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pgcodes.prng import SplitMix64

# Bounds in (2^63, 2^64) reject about half of their draws, which sends
# below_each to the scalar loop.
BOUND = st.one_of(
    st.just(1),
    st.just(255),
    st.integers(1, 2000),
    st.integers(2**63 + 1, 2**64 - 1),
)
BOUNDS = st.one_of(
    st.just([]),
    st.lists(BOUND, max_size=40),
    # The Fisher-Yates bounds of a random round at epsilon = 7.
    st.integers(0, 300).map(lambda k: [1953 - i for i in range(k)]),
)


def _reference_sample(rng, n, k):
    """Fisher-Yates on repeated below calls."""
    swapped, out = {}, []
    for i in range(k):
        j = i + rng.below(n - i)
        out.append(swapped.get(j, j))
        swapped[j] = swapped.get(i, i)
    return out


@settings(deadline=None, max_examples=300)
@given(seed=st.integers(0, 2**64 - 1), bounds=BOUNDS, as_array=st.booleans())
def test_below_each_matches_repeated_below(seed, bounds, as_array):
    ref = SplitMix64(seed)
    expected = [ref.below(b) for b in bounds]
    rng = SplitMix64(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = rng.below_each(np.array(bounds, dtype=np.uint64) if as_array else bounds)
    assert got.dtype == np.uint64
    assert got.tolist() == expected
    assert rng.state == ref.state


def test_below_each_rejection_falls_back_to_below():
    # 2^63 + 1 rejects every draw of 2^63 - 1 or more: seed 2's third draw does.
    bound = 2**63 + 1
    ref = SplitMix64(2)
    assert any(ref.next_u64() >= 2**64 - 2**64 % bound for _ in range(3))
    ref = SplitMix64(2)
    expected = [ref.below(bound) for _ in range(3)]
    rng = SplitMix64(2)
    assert rng.below_each([bound] * 3).tolist() == expected
    assert rng.state == ref.state


def test_below_each_bound_two_to_the_64():
    # 2^64 does not fit a uint64; below takes it, and so does below_each.
    ref = SplitMix64(5)
    expected = [ref.below(7), ref.below(2**64)]
    rng = SplitMix64(5)
    assert rng.below_each([7, 2**64]).tolist() == expected
    assert rng.state == ref.state


@settings(deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(0, 3000), data=st.data())
def test_sample_matches_fisher_yates_on_below(seed, n, data):
    k = data.draw(st.integers(0, min(n, 300)))
    ref = SplitMix64(seed)
    expected = _reference_sample(ref, n, k)
    rng = SplitMix64(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = rng.sample(n, k)
    assert got == expected and len(set(got)) == k
    assert rng.state == ref.state


@pytest.mark.parametrize("n", [2**63 + 3, 2**64])
def test_sample_near_two_to_the_64(n):
    ref = SplitMix64(9)
    expected = _reference_sample(ref, n, 4)
    rng = SplitMix64(9)
    assert rng.sample(n, 4) == expected
    assert rng.state == ref.state


@pytest.mark.parametrize("bound", [0, -3, 2**64 + 1, 2**65])
def test_below_rejects_bounds_outside_one_to_two_to_the_64(bound):
    # A bound over 2^64 used to loop forever: no draw is below a limit of 0.
    with pytest.raises(ValueError):
        SplitMix64(1).below(bound)
    with pytest.raises(ValueError):
        SplitMix64(1).below_each([bound])


@pytest.mark.parametrize("n, k", [(2**64 + 1, 1), (2**64 + 1, 0), (5, 6), (5, -1)])
def test_sample_rejects_bad_arguments(n, k):
    with pytest.raises(ValueError):
        SplitMix64(1).sample(n, k)
