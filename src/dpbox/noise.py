"""Seeded samplers for the two heavy-tailed noise distributions used by the wrappers.

Both samplers use explicit inverse-CDF transforms, one body for a scalar and
an array draw, so that a fixed seed yields the same sequence on every run and
platform, independent of any library internals for these distributions. Scale
0 is the degenerate "no noise" case and returns exactly 0. make_rng builds the
generator of one (seed, stream) pair. Tail facts used by the tests:

    Laplace(b):  Pr[|X| >= l*b] = exp(-l)
    Cauchy(b):   Pr[|X| >= l*b] = 1 - (2/pi) * arctan(l)
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng", "sample_laplace", "sample_cauchy"]


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Dedicated generator for (seed, stream).

    Distinct stream ids give statistically independent sequences, which is how
    parallel trials avoid sharing state. The same (seed, stream) pair always
    produces the same sequence.
    """
    return np.random.default_rng([int(seed), int(stream)])


def _check_scale(scale) -> float:
    b = float(scale)
    if not np.isfinite(b) or b < 0.0:
        raise ValueError(f"noise scale must be a finite nonnegative real, got {scale!r}")
    return b


def sample_laplace(scale, rng: np.random.Generator, size=None):
    """Draw from the zero-mean Laplace distribution with the given scale.

    Inverse CDF: for u uniform on [0,1), x = -b * sign(u - 1/2) * ln(1 - 2|u - 1/2|).
    Returns a Python float when size is None, else an ndarray of that shape.

    Raises:
        ValueError: if the scale is negative or not finite.
    """
    b = _check_scale(scale)
    if b == 0.0:
        return 0.0 if size is None else np.zeros(size)
    u = rng.random(size) - 0.5
    x = -b * np.sign(u) * np.log1p(-2.0 * abs(u))
    return float(x) if size is None else x


def sample_cauchy(scale, rng: np.random.Generator, size=None):
    """Draw from the zero-location Cauchy distribution with the given scale.

    Inverse CDF: x = b * tan(pi * (u - 1/2)) for u uniform on [0,1).
    Returns a Python float when size is None, else an ndarray of that shape.

    Raises:
        ValueError: if the scale is negative or not finite.
    """
    b = _check_scale(scale)
    if b == 0.0:
        return 0.0 if size is None else np.zeros(size)
    x = b * np.tan(np.pi * (rng.random(size) - 0.5))
    return float(x) if size is None else x
