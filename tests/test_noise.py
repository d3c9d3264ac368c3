import math
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpbox.noise import make_rng, make_rngs, sample_cauchy, sample_laplace


def test_make_rng_reproducible():
    a = make_rng(42).random(8)
    b = make_rng(42).random(8)
    assert np.array_equal(a, b)


def test_make_rng_streams_differ():
    a = make_rng(42, 0).random(8)
    b = make_rng(42, 1).random(8)
    assert not np.array_equal(a, b)


def _assert_same_as_make_rng(rngs, seed, streams):
    rngs = list(rngs)
    assert len(rngs) == len(streams)
    for rng, stream in zip(rngs, streams):
        assert rng.bit_generator.state == make_rng(seed, stream).bit_generator.state


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 130 - 1),
       streams=st.lists(st.integers(0, 2 ** 64 - 1), max_size=6))
def test_make_rngs_equals_make_rng(seed, streams):
    # Seeds and streams of one to five 32-bit words: more than four entropy
    # words in all take SeedSequence's extra mixing loop.
    _assert_same_as_make_rng(make_rngs(seed, streams), seed, streams)


@pytest.mark.parametrize("seed,streams", [
    (3, []),
    (2 ** 32, [0, 1, 2 ** 32 - 1, 2 ** 32]),
    (5, [2 ** 64, 7, 2 ** 100 + 3]),
    # Either side of the 2^64 edge, past which make_rngs calls make_rng.
    (2 ** 64 - 1, [0, 2 ** 64 - 1]),
    (2 ** 64, [0, 1]),
])
def test_make_rngs_fixed_cases(seed, streams):
    _assert_same_as_make_rng(make_rngs(seed, streams), seed, streams)


def test_make_rngs_across_the_batch_edge():
    # Streams are hashed 2^16 at a time; 65536 is the first of the second batch.
    tail = islice(make_rngs(7, range(65538)), 65535, None)
    _assert_same_as_make_rng(tail, 7, [65535, 65536, 65537])


def test_make_rngs_spawn_like_make_rng():
    batched, reference = next(make_rngs(3, [5])), make_rng(3, 5)
    for n in (2, 1):
        assert ([c.bit_generator.state for c in batched.spawn(n)]
                == [c.bit_generator.state for c in reference.spawn(n)])


def test_make_rngs_rejects_negative_seeds_and_streams():
    with pytest.raises(ValueError):
        make_rngs(-1, [0])
    with pytest.raises(ValueError):
        list(make_rngs(0, [1, -1]))


def test_laplace_fixed_seed_values():
    # Reproducibility is part of the contract: a fixed (seed, stream) pair
    # must give the same draw on every platform. These values were recorded
    # once and must never drift.
    assert sample_laplace(1.0, make_rng(7)) == 0.2879366824746073
    assert sample_cauchy(1.0, make_rng(7)) == 0.4145649808777322


def test_laplace_scale_scales_linearly():
    # The inverse-CDF transform is linear in b, so the same rng state gives
    # exactly b times the unit draw.
    unit = sample_laplace(1.0, make_rng(11))
    scaled = sample_laplace(2.5, make_rng(11))
    assert scaled == pytest.approx(2.5 * unit, rel=1e-15)


def test_cauchy_scale_scales_linearly():
    unit = sample_cauchy(1.0, make_rng(11))
    scaled = sample_cauchy(0.25, make_rng(11))
    assert scaled == pytest.approx(0.25 * unit, rel=1e-15)


def test_zero_scale_is_exactly_zero():
    rng = make_rng(0)
    assert sample_laplace(0.0, rng) == 0.0
    assert sample_cauchy(0.0, rng) == 0.0
    assert np.all(sample_laplace(0.0, rng, size=10) == 0.0)
    assert np.all(sample_cauchy(0.0, rng, size=10) == 0.0)


@pytest.mark.parametrize("bad", [-1.0, -1e-9, math.inf, math.nan])
def test_bad_scale_rejected(bad):
    with pytest.raises(ValueError):
        sample_laplace(bad, make_rng(0))
    with pytest.raises(ValueError):
        sample_cauchy(bad, make_rng(0))


def test_vector_draws_shape_and_type():
    x = sample_laplace(1.0, make_rng(3), size=5)
    assert x.shape == (5,)
    y = sample_cauchy(1.0, make_rng(3), size=(2, 3))
    assert y.shape == (2, 3)
    assert isinstance(sample_laplace(1.0, make_rng(3)), float)
    assert isinstance(sample_cauchy(1.0, make_rng(3)), float)


def test_laplace_tail_quick():
    # Small-sample version of the acceptance tail check: P(|X| > b) = e^-1.
    x = sample_laplace(1.0, make_rng(5), size=40_000)
    p = np.mean(np.abs(x) > 1.0)
    target = math.exp(-1.0)
    sigma = math.sqrt(target * (1 - target) / 40_000)
    assert abs(p - target) < 4 * sigma


def test_cauchy_tail_quick():
    x = sample_cauchy(1.0, make_rng(5), size=40_000)
    p = np.mean(np.abs(x) > 1.0)
    # P(|X| > b) for a Cauchy is exactly 1/2.
    sigma = math.sqrt(0.25 / 40_000)
    assert abs(p - 0.5) < 4 * sigma


def test_laplace_symmetry_and_median():
    x = sample_laplace(3.0, make_rng(9), size=50_000)
    assert abs(np.median(x)) < 0.1
    assert abs(np.mean(np.sign(x))) < 0.02


def test_cauchy_median_centered():
    x = sample_cauchy(2.0, make_rng(9), size=50_000)
    # The mean does not exist for a Cauchy; the median is the location, 0.
    assert abs(np.median(x)) < 0.1


def test_a_batched_generator_defers_other_state_requests_to_its_seed_sequence():
    # make_rngs seeds PCG64 from a precomputed row; any other request goes to
    # the SeedSequence that make_rng builds.
    (batched,) = make_rngs(7, [3])
    want = make_rng(7, 3).bit_generator.seed_seq.generate_state(8)
    assert np.array_equal(batched.bit_generator.seed_seq.generate_state(8), want)
