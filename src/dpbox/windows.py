"""Sliding-window estimation via smooth histograms over insertion streams.

A SmoothHistogram keeps a short list of estimator instances, each covering a
suffix of the stream, pruned so that consecutive-but-two instances differ by
at least a (1-xi) factor. Querying returns the estimate of the earliest
instance fully inside the window; xi is chosen from the target relative error
rho by the smoothness of the quantity (xi = rho for distinct count,
xi = rho^2/2 for the second moment), which makes the answer a
(1 +/- (rho + alpha + rho*alpha)) approximation when the per-instance
estimator is itself (1 +/- alpha) accurate.

Instances are backed by a family object owning per-instance state. Exact
families (running distinct counts, running F2) support the rho -> 0 limit and
fast large-stream testing; SketchFamily plugs in bare KMV or AMS sketches,
feeding each its item through update(item) (an AMS update's delta defaults
to 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from .sketches import AmsSketch, KmvSketch

__all__ = [
    "SmoothnessParams",
    "smoothness_check_de",
    "smoothness_check_f2",
    "DistinctExactFamily",
    "F2ExactFamily",
    "SketchFamily",
    "SmoothHistogram",
    "smooth_histogram_distinct",
    "smooth_histogram_f2",
]


@dataclass
class SmoothnessParams:
    """Target relative error rho and pruning threshold xi, 0 < xi <= rho < 1."""

    rho: float
    xi: float

    def __post_init__(self):
        if not (0.0 < self.xi <= self.rho < 1.0):
            raise ValueError(
                f"need 0 < xi <= rho < 1, got xi={self.xi!r}, rho={self.rho!r}")


def smoothness_check_de(rho: float) -> float:
    """Pruning threshold for distinct counting: xi = rho."""
    if not (0.0 < rho < 1.0):
        raise ValueError(f"rho must lie in (0, 1), got {rho!r}")
    return rho


def smoothness_check_f2(rho: float) -> float:
    """Pruning threshold for the second moment: xi = rho^2 / 2."""
    if not (0.0 < rho < 1.0):
        raise ValueError(f"rho must lie in (0, 1), got {rho!r}")
    return rho * rho / 2.0


class DistinctExactFamily:
    """Per-instance exact distinct counts, vectorized over instances.

    last_seen[item] is the time of the item's previous arrival (0 = never):
    exactly the instances that started after that time gain a new distinct
    item, so one comparison against the start vector updates every instance.
    """

    def __init__(self):
        self._counts = np.zeros(0, dtype=np.int64)
        self._last_seen = {}

    def append(self, start: int):
        self._counts = np.append(self._counts, 0)

    def ingest(self, item: int, t: int, starts: np.ndarray):
        prev = self._last_seen.get(item, 0)
        self._counts[starts > prev] += 1
        self._last_seen[item] = t

    def estimates(self) -> np.ndarray:
        return self._counts.astype(np.float64)

    def drop(self, indices):
        self._counts = np.delete(self._counts, indices)

    def sketch_at(self, i: int):
        return None


class F2ExactFamily:
    """Per-instance exact second moments.

    Appending an occurrence of an item whose count inside an instance is c
    raises that instance's F2 by 2c + 1; the counts for all instances come
    from one searchsorted against the item's occurrence-time list.
    """

    def __init__(self):
        self._f2 = np.zeros(0, dtype=np.int64)
        self._occurrences = {}

    def append(self, start: int):
        self._f2 = np.append(self._f2, 0)

    def ingest(self, item: int, t: int, starts: np.ndarray):
        occ = self._occurrences.setdefault(item, [])
        counts = len(occ) - np.searchsorted(np.asarray(occ, dtype=np.int64), starts)
        self._f2 += 2 * counts + 1
        occ.append(t)

    def estimates(self) -> np.ndarray:
        return self._f2.astype(np.float64)

    def drop(self, indices):
        self._f2 = np.delete(self._f2, indices)

    def sketch_at(self, i: int):
        return None


class SketchFamily:
    """One live sketch per instance, spawned from a parent rng."""

    def __init__(self, factory: Callable, rng):
        self._factory = factory
        self._rng = rng
        self._sketches: List = []

    def append(self, start: int):
        self._sketches.append(self._factory(self._rng.spawn(1)[0]))

    def ingest(self, item: int, t: int, starts: np.ndarray):
        for sk in self._sketches:
            sk.update(item)

    def estimates(self) -> np.ndarray:
        return np.array([sk.estimate() for sk in self._sketches], dtype=np.float64)

    def drop(self, indices):
        for i in sorted(indices, reverse=True):
            del self._sketches[i]

    def sketch_at(self, i: int):
        return self._sketches[i]


class SmoothHistogram:
    """Smooth-histogram adapter turning a suffix estimator into a window one."""

    def __init__(self, window: int, params: SmoothnessParams, family):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window!r}")
        self.window = int(window)
        self.params = params
        self.family = family
        self.clock = 0
        self.starts = np.zeros(0, dtype=np.int64)

    @property
    def instances(self):
        """Ordered (start, sketch-or-None, current estimate) triples."""
        est = self.family.estimates()
        return [(int(s), self.family.sketch_at(i), float(est[i]))
                for i, s in enumerate(self.starts)]

    def instance_count(self) -> int:
        return len(self.starts)

    def instance_bound(self, estimates: np.ndarray) -> float:
        top = float(estimates.max()) if estimates.size else 0.0
        return (4.0 / self.params.xi) * math.log2(top + 2.0) + 2.0

    def update(self, item: int):
        self.clock += 1
        self.starts = np.append(self.starts, self.clock)
        self.family.append(self.clock)
        self.family.ingest(item, self.clock, self.starts)
        est = self._prune()
        est = self._expire(est)
        assert len(self.starts) <= self.instance_bound(est), \
            "smooth histogram invariant violated: too many live instances"

    def _prune(self) -> np.ndarray:
        """Delete middles until no i has estimate(i+2) >= (1-xi)*estimate(i).

        One forward pass suffices when estimates are non-increasing; sketch
        noise can break monotonicity, so the pass repeats until clean.
        """
        est = self.family.estimates()
        thresh = 1.0 - self.params.xi
        if est.size >= 3 and np.any(est[2:] >= thresh * est[:-2]):
            keep = list(range(est.size))
            dropped = []
            changed = True
            while changed:
                changed = False
                i = 0
                while i + 2 < len(keep):
                    if est[keep[i + 2]] >= thresh * est[keep[i]]:
                        dropped.append(keep[i + 1])
                        del keep[i + 1]
                        changed = True
                    else:
                        i += 1
            self.starts = np.delete(self.starts, dropped)
            self.family.drop(dropped)
            est = est[np.asarray(keep, dtype=np.intp)]
        return est

    def _expire(self, est: np.ndarray) -> np.ndarray:
        """Drop instances from the front, keeping one straddler at or before
        clock - window."""
        cutoff = self.clock - self.window
        last_outside = int(np.searchsorted(self.starts, cutoff, side="right")) - 1
        if last_outside > 0:
            drop = list(range(last_outside))
            self.starts = self.starts[last_outside:]
            self.family.drop(drop)
            est = est[last_outside:]
        return est

    def query(self) -> float:
        """Estimate for the last `window` items: the earliest instance that
        starts inside the window, or the straddler if it is alone."""
        if self.clock == 0:
            raise ValueError("query before any update")
        idx = int(np.searchsorted(self.starts, self.clock - self.window, side="right"))
        if idx >= len(self.starts):
            idx = len(self.starts) - 1
        return float(self.family.estimates()[idx])


def smooth_histogram_distinct(window: int, rho: float, sketch_alpha: float,
                              sketch_fail: float, rng,
                              exact: bool = False) -> SmoothHistogram:
    """Sliding-window distinct count: KMV instances, xi from the distinct-count
    smoothness. exact=True swaps in exact per-instance counts (the alpha -> 0
    limit), for calibration runs."""
    params = SmoothnessParams(rho=rho, xi=smoothness_check_de(rho))
    if exact:
        return SmoothHistogram(window, params, DistinctExactFamily())
    family = SketchFamily(
        lambda child: KmvSketch.from_accuracy(sketch_alpha, sketch_fail, child), rng)
    return SmoothHistogram(window, params, family)


def smooth_histogram_f2(window: int, rho: float, sketch_alpha: float,
                        sketch_fail: float, universe_size: int, rng,
                        exact: bool = False) -> SmoothHistogram:
    """Sliding-window second moment: AMS instances, xi = rho^2/2."""
    params = SmoothnessParams(rho=rho, xi=smoothness_check_f2(rho))
    if exact:
        return SmoothHistogram(window, params, F2ExactFamily())
    family = SketchFamily(
        lambda child: AmsSketch.from_accuracy(sketch_alpha, sketch_fail, universe_size, child),
        rng)
    return SmoothHistogram(window, params, family)
