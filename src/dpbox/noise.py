"""Seeded samplers for the two heavy-tailed noise distributions used by the wrappers.

Both samplers use explicit inverse-CDF transforms through one kernel,
b * q(u - 1/2), for a scalar and an array draw alike, so that a fixed seed
yields the same sequence on every run and platform, independent of any
library internals for these distributions. The transform stays on numpy's
ufuncs even for one scalar draw: math.log1p and math.tan round differently
from numpy's SIMD kernels on some draws, and a scalar draw must equal the
same draw of a vector. Generator.random() returns u = 0 with probability
2^-53; Laplace takes that draw at the next grid point, u = 2^-53, instead of
at -inf, and Cauchy's is finite (-1.6e16*b). Scale 0 is the degenerate "no
noise" case and returns exactly 0. make_rng builds the generator of one
(seed, stream) pair. Tail facts used by the tests:

    Laplace(b):  Pr[|X| >= l*b] = exp(-l)
    Cauchy(b):   Pr[|X| >= l*b] = 1 - (2/pi) * arctan(l)
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["make_rng", "sample_laplace", "sample_cauchy"]


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Dedicated generator for (seed, stream).

    Distinct stream ids give statistically independent sequences, which is how
    parallel trials avoid sharing state. The same (seed, stream) pair always
    produces the same sequence.
    """
    return np.random.default_rng([int(seed), int(stream)])


def _inverse_cdf(q, scale, rng: np.random.Generator, size):
    """b * q(u - 1/2) for u uniform on [0,1) and b = scale, the one kernel of
    both samplers: q is the distribution's inverse CDF at unit scale, shifted
    by 1/2. Returns a Python float when size is None, else an ndarray of that
    shape; scale 0 returns exactly 0 and draws nothing.

    Raises:
        ValueError: if the scale is negative or not finite.
    """
    b = float(scale)
    if not math.isfinite(b) or b < 0.0:
        raise ValueError(f"noise scale must be a finite nonnegative real, got {scale!r}")
    # Scale 0 takes no uniform from the rng, so the draws after it stay put.
    x = b * q(rng.random(size) - 0.5) if b else np.zeros(() if size is None else size)
    return float(x) if size is None else x


def _laplace_q(v):
    # u = 0 gives |v| = 1/2 and log1p(-1) = -inf; that draw is taken at the
    # next grid point, u = 2^-53, where |v| = 1/2 - 2^-53. Any other |v|
    # stays as it is (minus an exact 0), on a float and an array alike.
    a = abs(v)
    a = a - (a == 0.5) * 2.0 ** -53
    return -np.sign(v) * np.log1p(-2.0 * a)


def _cauchy_q(v):
    return np.tan(np.pi * v)


def sample_laplace(scale, rng: np.random.Generator, size=None):
    """Draw from the zero-mean Laplace distribution with the given scale.

    Inverse CDF: for u uniform on [0,1), x = -b * sign(u - 1/2) * ln(1 - 2|u - 1/2|).
    Returns a Python float when size is None, else an ndarray of that shape.

    Raises:
        ValueError: if the scale is negative or not finite.
    """
    return _inverse_cdf(_laplace_q, scale, rng, size)


def sample_cauchy(scale, rng: np.random.Generator, size=None):
    """Draw from the zero-location Cauchy distribution with the given scale.

    Inverse CDF: x = b * tan(pi * (u - 1/2)) for u uniform on [0,1).
    Returns a Python float when size is None, else an ndarray of that shape.

    Raises:
        ValueError: if the scale is negative or not finite.
    """
    return _inverse_cdf(_cauchy_q, scale, rng, size)
