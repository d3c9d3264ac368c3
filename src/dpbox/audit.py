"""Empirical privacy audit: bound the realized privacy loss from samples.

estimate_epsilon runs a mechanism many times on each of two neighboring
datasets, histograms both output samples on a shared grid, and reports the
largest per-bin log probability ratio, widened to an upper-confidence value
with Wilson intervals. The estimate can refute a privacy claim (epsilon_hat
well above the claimed epsilon) but can never certify one: events thinner
than the bin-mass floor are invisible to it, which is exactly the role the
delta slack plays in the guarantee being audited.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .noise import make_rng

__all__ = ["AuditReport", "estimate_epsilon"]

# Wilson interval width: z = 2 (~95.4% two-sided per bin).
_WILSON_Z = 2.0


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
        if self.trials < 1000:
            raise ValueError(f"audits need >= 1000 trials, got {self.trials!r}")
        if self.bins < 2:
            raise ValueError(f"audits need >= 2 bins, got {self.bins!r}")

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

    mech is called as mech(dataset, rng) -> real; trial t draws from the rng
    streams (seed, 2t) for d and (seed, 2t+1) for d_prime, so runs are
    reproducible and embarrassingly parallel in principle. Outputs are pooled,
    clipped to the [0.1%, 99.9%] quantile range (heavy Cauchy tails would
    otherwise stretch the grid flat), and histogrammed on `bins` equal-width
    bins. Bins whose estimated mass on either side falls at or below
    delta_slack + 3 binomial sigma are flagged and excluded; the rest
    contribute Wilson-widened |log ratios|, whose max is epsilon_hat.
    """
    if trials < 1000:
        raise ValueError(f"audits need >= 1000 trials, got {trials!r}")
    if bins < 2:
        raise ValueError(f"audits need >= 2 bins, got {bins!r}")
    if not (0.0 <= delta_slack < 1.0):
        raise ValueError(f"delta_slack must lie in [0, 1), got {delta_slack!r}")

    out_a = np.empty(trials)
    out_b = np.empty(trials)
    for t in range(trials):
        out_a[t] = mech(d, make_rng(seed, 2 * t))
        out_b[t] = mech(d_prime, make_rng(seed, 2 * t + 1))

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

    ratios: List[Tuple[int, float]] = []
    eps_hat = 0.0
    for i in np.nonzero(included)[0]:
        lo_a, hi_a = _wilson(p_a[i], trials)
        lo_b, hi_b = _wilson(p_b[i], trials)
        widened = max(math.log(hi_a / lo_b) if lo_b > 0 else math.inf,
                      math.log(hi_b / lo_a) if lo_a > 0 else math.inf)
        widened = max(widened, 0.0)
        if math.isinf(widened):
            # Wilson lower bound can only hit 0 when a side has almost no
            # mass, which the floor should have excluded; skip defensively.
            continue
        ratios.append((int(i), widened))
        eps_hat = max(eps_hat, widened)

    return AuditReport(epsilon_hat=eps_hat, delta_slack=delta_slack, trials=trials,
                       bins=bins, per_bin_ratios=ratios,
                       flagged_bins=[int(i) for i in np.nonzero(~included)[0]],
                       degenerate=False)
