"""Empirical privacy audit: bound the realized privacy loss from samples.

estimate_epsilon runs a mechanism many times on each of two neighboring
datasets, each side on its own rng stream (SIDE_STREAMS, which dpb audit
draws from too); audit_samples histograms both output samples on a shared
grid and reports the largest per-bin log probability ratio, widened to an
upper-confidence value with Wilson intervals. The estimate can refute a
privacy claim (epsilon_hat well above the claimed epsilon) but can never
certify one: events thinner than the bin-mass floor are invisible to it,
which is exactly the role the delta slack plays in the guarantee being
audited.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .noise import make_rng

__all__ = ["AuditReport", "SIDE_STREAMS", "audit_samples", "estimate_epsilon"]

# The rng streams of an audit's two sides: d draws from (seed, 0) and d'
# from (seed, 1).
SIDE_STREAMS = (0, 1)

# Wilson interval width: z = 2 (~95.4% two-sided per bin).
_WILSON_Z = 2.0


def _check_audit_args(trials: int, bins: int, delta_slack: float):
    if trials < 1000:
        raise ValueError(f"audits need >= 1000 trials, got {trials!r}")
    if bins < 2:
        raise ValueError(f"audits need >= 2 bins, got {bins!r}")
    if not (0.0 <= delta_slack < 1.0):
        raise ValueError(f"delta_slack must lie in [0, 1), got {delta_slack!r}")


@dataclass
class AuditReport:
    """Outcome of one audit run.

    epsilon_hat is an upper-confidence bound on the max log probability ratio
    over bins whose mass clears the floor on both sides; per_bin_ratios holds
    the per-bin widened ratios that entered the max; flagged_bins lists bins
    excluded by the floor. degenerate marks a constant-output mechanism for
    which the histogram carries no information.
    """

    epsilon_hat: float
    delta_slack: float
    trials: int
    bins: int
    per_bin_ratios: List[Tuple[int, float]] = field(default_factory=list)
    flagged_bins: List[int] = field(default_factory=list)
    degenerate: bool = False

    def __post_init__(self):
        if self.epsilon_hat < 0.0:
            raise ValueError(f"epsilon_hat must be >= 0, got {self.epsilon_hat!r}")
        _check_audit_args(self.trials, self.bins, self.delta_slack)

    @property
    def argmax_bin(self) -> Optional[int]:
        """The included bin whose ratio is epsilon_hat (the first such bin);
        None when no bin is included."""
        if not self.per_bin_ratios:
            return None
        return max(self.per_bin_ratios, key=lambda pair: pair[1])[0]

    def to_json(self) -> str:
        """Every field of the report, plus argmax_bin; per_bin_ratios become
        [bin, ratio] pairs."""
        return json.dumps({
            "epsilon_hat": self.epsilon_hat,
            "trials": self.trials,
            "bins": self.bins,
            "flagged_bins": self.flagged_bins,
            "delta_slack": self.delta_slack,
            "degenerate": self.degenerate,
            "per_bin_ratios": [list(pair) for pair in self.per_bin_ratios],
            "argmax_bin": self.argmax_bin,
        })


def _wilson(p_hat: float, n: int) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    z2 = _WILSON_Z * _WILSON_Z
    denom = 1.0 + z2 / n
    center = (p_hat + z2 / (2.0 * n)) / denom
    half = _WILSON_Z * math.sqrt(p_hat * (1.0 - p_hat) / n + z2 / (4.0 * n * n)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def estimate_epsilon(mech, d, d_prime, trials: int, bins: int,
                     delta_slack: float = 0.0, seed: int = 0) -> AuditReport:
    """Upper-confidence estimate of the privacy loss of mech between d and d'.

    mech is called as mech(dataset, rng) -> real, `trials` times on d and
    then `trials` times on d_prime, as dpb audit runs its two sides. Each
    side has one generator, make_rng(seed, stream) of its SIDE_STREAMS
    entry, and its calls draw from it in turn, so a run is reproducible from
    the seed, and an audit of a wrapped release equals the dpb audit report
    of the same config and seed. The two samples go to audit_samples. A
    negative seed raises ValueError before mech is called.
    """
    _check_audit_args(trials, bins, delta_slack)
    out = np.empty((2, trials))
    for side, dataset, stream in zip(out, (d, d_prime), SIDE_STREAMS):
        rng = make_rng(seed, stream)
        for t in range(trials):
            side[t] = mech(dataset, rng)
    return audit_samples(out[0], out[1], bins, delta_slack)


def audit_samples(out_a, out_b, bins: int, delta_slack: float = 0.0) -> AuditReport:
    """Upper-confidence privacy loss between two equally long output samples,
    out_a from d and out_b from d'.

    Outputs are pooled, clipped to the [0.1%, 99.9%] quantile range (heavy
    Cauchy tails would otherwise stretch the grid flat), and histogrammed on
    `bins` equal-width bins. Bins whose estimated mass on either side falls
    at or below delta_slack + 3 binomial sigma are flagged and excluded; the
    rest contribute Wilson-widened |log ratios|, whose max is epsilon_hat.
    A NaN or infinite output on either side raises ValueError, which names
    the side and counts the bad values.
    """
    out_a = np.asarray(out_a, dtype=float)
    out_b = np.asarray(out_b, dtype=float)
    if out_a.shape != out_b.shape or out_a.ndim != 1:
        raise ValueError(f"samples must be two equally long vectors, got shapes "
                         f"{out_a.shape} and {out_b.shape}")
    trials = len(out_a)
    _check_audit_args(trials, bins, delta_slack)
    for side, out in (("out_a", out_a), ("out_b", out_b)):
        bad = trials - int(np.count_nonzero(np.isfinite(out)))
        if bad:
            raise ValueError(f"audits need finite outputs; {side} holds {bad} NaN or"
                             f" infinite values of {trials}")

    pooled = np.concatenate([out_a, out_b])
    lo, hi = np.quantile(pooled, [0.001, 0.999])
    if not (hi > lo):
        return AuditReport(epsilon_hat=0.0, delta_slack=delta_slack, trials=trials,
                           bins=bins, per_bin_ratios=[],
                           flagged_bins=list(range(bins)), degenerate=True)

    edges = np.linspace(lo, hi, bins + 1)
    count_a, _ = np.histogram(np.clip(out_a, lo, hi), bins=edges)
    count_b, _ = np.histogram(np.clip(out_b, lo, hi), bins=edges)
    p_a = count_a / trials
    p_b = count_b / trials

    floor_a = delta_slack + 3.0 * np.sqrt(p_a * (1.0 - p_a) / trials)
    floor_b = delta_slack + 3.0 * np.sqrt(p_b * (1.0 - p_b) / trials)
    included = (p_a > floor_a) & (p_b > floor_b)

    # An included bin has outputs on both sides, so both Wilson lower bounds
    # are positive; the two logs sum to log((hi_a/lo_a)(hi_b/lo_b)) >= 0.
    ratios: List[Tuple[int, float]] = []
    eps_hat = 0.0
    for i in np.nonzero(included)[0]:
        lo_a, hi_a = _wilson(p_a[i], trials)
        lo_b, hi_b = _wilson(p_b[i], trials)
        widened = max(math.log(hi_a / lo_b), math.log(hi_b / lo_a))
        ratios.append((int(i), widened))
        eps_hat = max(eps_hat, widened)

    return AuditReport(epsilon_hat=eps_hat, delta_slack=delta_slack, trials=trials,
                       bins=bins, per_bin_ratios=ratios,
                       flagged_bins=[int(i) for i in np.nonzero(~included)[0]],
                       degenerate=False)
