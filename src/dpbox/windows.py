"""Sliding-window estimation via smooth histograms over insertion streams.

A SmoothHistogram keeps a short list of estimator instances, each covering a
suffix of the stream; `starts` lists their start times, increasing. Each
update opens an instance at the new time, feeds the item to all of them and
keeps the indices _prune returns, in one pass with a stack (see _prune), so
that no three consecutive instances have estimate(i+2) >= (1-xi)*estimate(i)
and only one starts at or before clock - window. Querying returns the
estimate of the earliest instance fully inside the window. xi is chosen from
the target relative error rho by the smoothness of the quantity (xi = rho for
distinct count, xi = rho^2/2 for the second moment), which makes the answer a
(1 +/- (rho + alpha + rho*alpha)) approximation when the per-instance
estimator is itself (1 +/- alpha) accurate.

A family object owns the per-instance state behind three methods:
ingest(item, starts) opens the instance at starts[-1] and feeds item to every
instance, estimates() lists the estimates as floats, and keep(indices) keeps
the instances at those increasing indices. Exact families (running distinct
counts, per-instance item counts for F2) support the rho -> 0 limit and fast
large-stream testing. SketchFamily plugs in KMV or AMS sketches as one
stacked sketch: each instance is built by the factory on its own child rng,
as a lone sketch would be, and its rows are appended to the stack, so one
update(item) call feeds every instance (an AMS update's delta defaults to
1), one row_values pass and a median per block give every estimate, and
keep selects row blocks. Each block holds the rows the instance's own sketch
would hold, bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from .mechanisms import block_medians
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
    return rho * smoothness_check_de(rho) / 2.0


class DistinctExactFamily:
    """Per-instance exact distinct counts.

    last_seen[item] is the time of the item's previous arrival (0 = never):
    exactly the instances that started after that time gain a new distinct
    item, and as starts increase they are a suffix of the list. An arrival
    before the first live start acts exactly like "never", so last_seen is
    kept in arrival order and such entries are dropped from its front: it
    holds at most one entry per update since the first live start.
    """

    def __init__(self):
        self._counts: List[int] = []
        self._last_seen: OrderedDict = OrderedDict()

    def ingest(self, item: int, starts: List[int]):
        counts, seen = self._counts, self._last_seen
        counts.append(0)
        for i in range(bisect_right(starts, seen.pop(item, 0)), len(counts)):
            counts[i] += 1
        seen[item] = starts[-1]
        while next(iter(seen.values())) < starts[0]:
            seen.popitem(last=False)

    def estimates(self) -> List[float]:
        return [float(c) for c in self._counts]

    def keep(self, indices: List[int]):
        self._counts = [self._counts[i] for i in indices]


class F2ExactFamily:
    """Per-instance exact second moments.

    Each instance holds its own item counts and F2; one more occurrence of an
    item it has counted c times raises its F2 by 2c + 1. The state is one
    count per live instance and item seen by it, whatever the stream length.
    """

    def __init__(self):
        self._counts: List[dict] = []
        self._f2: List[int] = []

    def ingest(self, item: int, starts: List[int]):
        self._counts.append({})
        self._f2.append(0)
        f2 = self._f2
        for i, counts in enumerate(self._counts):
            c = counts.get(item, 0)
            counts[item] = c + 1
            f2[i] += 2 * c + 1

    def estimates(self) -> List[float]:
        return [float(v) for v in self._f2]

    def keep(self, indices: List[int]):
        self._counts = [self._counts[i] for i in indices]
        self._f2 = [self._f2[i] for i in indices]


class SketchFamily:
    """Every live instance as a block of rows of one stacked sketch.

    Instance i owns rows [i*block, (i+1)*block), block being the row count
    of a sketch the factory builds; each instance's sketch is built on a
    child rng spawned from the parent one.
    """

    def __init__(self, factory: Callable, rng):
        self._factory = factory
        self._rng = rng
        self._stack = None
        self._block = 0
        self.count = 0

    @property
    def space_words(self) -> int:
        """Words held by the live instances, each counted as a lone sketch."""
        return 0 if self._stack is None else self._stack.space_words

    def ingest(self, item: int, starts: List[int]):
        sketch = self._factory(self._rng.spawn(1)[0])
        if self._stack is None:
            self._stack, self._block = sketch, sketch.rows
        else:
            self._stack.append_rows(sketch)
        self.count += 1
        self._stack.update(item)

    def estimates(self) -> List[float]:
        if self._stack is None:
            return []
        return block_medians(self._stack.row_values(), self._block).tolist()

    def keep(self, indices: List[int]):
        if len(indices) < self.count:
            blocks = np.asarray(indices, dtype=np.intp)[:, None] * self._block
            self._stack.take_rows((blocks + np.arange(self._block)).ravel())
            self.count = len(indices)


def _prune(est: List[float], starts: List[int], cutoff: int, xi: float) -> List[int]:
    """Increasing indices of the instances to keep.

    Index j pops the last kept index while est[j] >= (1-xi) * est[kept[-2]],
    then is pushed; every instance before the last kept one that starts at
    or before cutoff (the straddler) is then cut.
    """
    thresh = 1.0 - xi
    keep: List[int] = []
    for j, e in enumerate(est):
        while len(keep) >= 2 and e >= thresh * est[keep[-2]]:
            keep.pop()
        keep.append(j)
    return keep[max(bisect_right(keep, cutoff, key=starts.__getitem__) - 1, 0):]


class SmoothHistogram:
    """Smooth-histogram adapter turning a suffix estimator into a window one."""

    def __init__(self, window: int, params: SmoothnessParams, family):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window!r}")
        self.window = int(window)
        self.params = params
        self.family = family
        self.clock = 0
        self.starts: List[int] = []

    def instance_count(self) -> int:
        return len(self.starts)

    def instance_bound(self, estimates: List[float]) -> float:
        top = max(estimates, default=0.0)
        return (4.0 / self.params.xi) * math.log2(top + 2.0) + 2.0

    def update(self, item: int):
        self.clock += 1
        self.starts.append(self.clock)
        self.family.ingest(item, self.starts)
        est = self.family.estimates()
        keep = _prune(est, self.starts, self.clock - self.window, self.params.xi)
        self.starts = [self.starts[i] for i in keep]
        self.family.keep(keep)
        est = [est[i] for i in keep]
        assert len(self.starts) <= self.instance_bound(est), \
            "smooth histogram invariant violated: too many live instances"

    def query(self) -> float:
        """Estimate for the last `window` items: the earliest instance that
        starts inside the window, or the straddler if it is alone."""
        if self.clock == 0:
            raise ValueError("query before any update")
        idx = bisect_right(self.starts, self.clock - self.window)
        return self.family.estimates()[min(idx, len(self.starts) - 1)]


def smooth_histogram_distinct(window: int, rho: float, sketch_alpha: float,
                              sketch_fail: float, rng,
                              exact: bool = False) -> SmoothHistogram:
    """Sliding-window distinct count: KMV instances, xi from the distinct-count
    smoothness. exact=True swaps in exact per-instance counts: the alpha -> 0
    limit, and what the sketches would return on a stream of fewer than k
    updates (see sketches.kmv_dims)."""
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
