import math

import numpy as np
import pytest

from dpbox.noise import make_rng, sample_cauchy, sample_laplace


def test_make_rng_reproducible():
    a = make_rng(42).random(8)
    b = make_rng(42).random(8)
    assert np.array_equal(a, b)


def test_make_rng_streams_differ():
    a = make_rng(42, 0).random(8)
    b = make_rng(42, 1).random(8)
    assert not np.array_equal(a, b)


# First draw of each (seed, stream) pair, recorded once; the cases sit either
# side of the 2^32 and 2^64 word edges, where seed and stream grow a word.
@pytest.mark.parametrize("seed,streams", [
    (3, [(0, 0.08564916714362436)]),
    (2 ** 32, [(0, 0.8897387912781343), (1, 0.8486500432887727),
               (2 ** 32 - 1, 0.815347584908412), (2 ** 32, 0.49651871913848644)]),
    (5, [(2 ** 64, 0.5757322714295288), (7, 0.5124898348706527),
         (2 ** 100 + 3, 0.8993026253252456)]),
    (2 ** 64 - 1, [(0, 0.6800266789616931), (2 ** 64 - 1, 0.24291404157889662)]),
    (2 ** 64, [(0, 0.4492388188116676), (1, 0.7458762556705532)]),
])
def test_make_rng_fixed_cases(seed, streams):
    assert [make_rng(seed, stream).random() for stream, _ in streams] == [
        first for _, first in streams]


def test_make_rng_rejects_negative_seeds_and_streams():
    with pytest.raises(ValueError):
        make_rng(-1, 0)
    with pytest.raises(ValueError):
        make_rng(0, -1)


def test_laplace_fixed_seed_values():
    # Reproducibility is part of the contract: a fixed (seed, stream) pair
    # must give the same draw on every platform. These values were recorded
    # once and must never drift.
    assert sample_laplace(1.0, make_rng(7)) == 0.2879366824746073
    assert sample_cauchy(1.0, make_rng(7)) == 0.4145649808777322
    # A vector draw runs the same kernel on the same uniforms, so its first
    # entry is the scalar draw.
    assert [x.hex() for x in sample_laplace(1.0, make_rng(7), size=3)] == [
        "0x1.26d8dfaa304e9p-2", "0x1.94fb22608a8c3p+0", "0x1.9a660dde33711p-1"]
    assert [x.hex() for x in sample_cauchy(1.0, make_rng(7), size=3)] == [
        "0x1.a883b8ebbf34ep-2", "0x1.7e849e7f94df2p+1", "0x1.2d0c5aae3829ep+0"]


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


class _FixedUniform:
    """An rng whose every uniform is u."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None):
        return self.u if size is None else np.full(size, self.u)


# float.hex of each sampler at scale 2 for the edge uniforms: u = 0, which
# Generator.random() returns with probability 2^-53, the center, and the
# largest u below 1. Laplace takes u = 0 at the next grid point, u = 2^-53,
# so its two tails are mirror images; Cauchy at u = 0 stays finite.
@pytest.mark.parametrize("sampler,u,expected", [
    (sample_laplace, 0.0, "-0x1.205966f2b4f12p+6"),
    (sample_laplace, 2.0 ** -53, "-0x1.205966f2b4f12p+6"),
    (sample_laplace, 0.5, "0x0.0p+0"),
    (sample_laplace, 1.0 - 2.0 ** -53, "0x1.205966f2b4f12p+6"),
    (sample_cauchy, 0.0, "-0x1.d02967c31cdb5p+54"),
    (sample_cauchy, 0.5, "0x0.0p+0"),
    (sample_cauchy, 1.0 - 2.0 ** -53, "0x1.c1f559a01adccp+51"),
])
def test_edge_uniforms_give_pinned_finite_draws(sampler, u, expected):
    assert sampler(2.0, _FixedUniform(u)).hex() == expected
    assert [x.hex() for x in sampler(2.0, _FixedUniform(u), size=2)] == [expected] * 2


@pytest.mark.parametrize("sampler", [sample_laplace, sample_cauchy])
def test_scalar_draws_equal_one_vector_draw(sampler):
    # A scalar draw runs the vector draw's numpy ufuncs, whose SIMD kernels
    # can round differently from math.log1p and math.tan; the two must agree
    # bit for bit, draw by draw.
    rng, twin = make_rng(13), make_rng(13)
    scalar = [sampler(1.5, rng).hex() for _ in range(10 ** 4)]
    assert scalar == [x.hex() for x in sampler(1.5, twin, size=10 ** 4)]
