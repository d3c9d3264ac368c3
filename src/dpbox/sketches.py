"""Streaming sketches: AMS second-moment (turnstile) and KMV distinct count.

AmsSketch is the bucketed (Fast-AGMS, CountSketch) form of the AMS sketch:
r = ceil(48*ln(2/delta)) rows of c = ceil(16/alpha^2) signed counters. Each
row hashes an item to one counter with a Carter-Wegman hash
((a*x + b) mod p) mod c, a != 0, and adds sign * delta there, the sign coming
from a 4-wise independent degree-3 polynomial. Updates are linear, so
deletions cancel insertions bitwise. A row's sum of squared counters is an
unbiased F2 estimate with variance at most 2*(F2^2 - F4)/c, as for the mean
of c independent AGMS counters, so the median over rows lies in
(1 +/- alpha)*F2 with probability >= 1 - delta. The sketch holds r*c
counters and 6*r coefficients (space_words), and an update touches r
counters. A sketch whose counters, coefficients and update buffers would
pass 1 GiB is refused at construction, before any coefficient is drawn.

KmvSketch retains the k = ceil(16/alpha^2) smallest distinct 64-bit hash
values per copy, reps = ceil(12*ln(2/delta)) copies medianed. Its whole state
is one reps x w float array of per-copy ascending minima (w <= k, +inf pads
shorter rows), and single and bulk inserts share one merge that hashes each
item once under all copies' salts. space_words counts the words held, not
the reps*k capacity. Insertion-only: a deletion cannot be undone once a hash
is retained, so turnstile streams are rejected. Below k distinct items the
sketch is exact.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

from .streams import UpdateStream

__all__ = [
    "AmsSketch",
    "KmvSketch",
]

# Bucket hashes and signs are polynomials over the Mersenne prime 2^31 - 1,
# evaluated in uint64 (products stay below 2^62, so arithmetic never wraps).
_SIGN_PRIME = np.uint64(2 ** 31 - 1)
# Counters one AMS update pass touches, unless the sketch has more rows:
# update_bulk takes max(1, _AMS_PASS_CELLS // rows) distinct items a pass.
_AMS_PASS_CELLS = 2 ** 18
# Largest footprint AmsSketch accepts: 8-byte counters, 6 coefficients per
# row, and at most three rows x chunk buffers during an update pass.
_AMS_MAX_BYTES = 2 ** 30


def _ams_rows(fail_prob: float) -> int:
    return int(math.ceil(48.0 * math.log(2.0 / fail_prob)))


def _ams_cols(alpha: float) -> int:
    return int(math.ceil(16.0 / alpha ** 2))


class AmsSketch:
    """Bucketed signed-counter sketch for the second frequency moment."""

    def __init__(self, rows: int, cols: int, universe_size: int, rng):
        if rows < 1 or cols < 1:
            raise ValueError(f"rows and cols must be >= 1, got {rows}x{cols}")
        if not (1 <= universe_size < int(_SIGN_PRIME)):
            raise ValueError(
                f"universe_size must lie in [1, {int(_SIGN_PRIME)}), got {universe_size!r}")
        chunk = max(1, _AMS_PASS_CELLS // int(rows))
        need = 8 * int(rows) * (int(cols) + 6 + 3 * chunk)
        if need > _AMS_MAX_BYTES:
            raise ValueError(
                f"AMS grid {rows} x {cols} needs {need / 2 ** 30:.1f} GiB for its "
                f"counters, coefficients and update buffers, above the "
                f"{_AMS_MAX_BYTES / 2 ** 30:g} GiB cap")
        self.rows = int(rows)
        self.cols = int(cols)
        self.universe_size = int(universe_size)
        self._chunk = chunk
        self.counters = np.zeros((self.rows, self.cols), dtype=np.int64)
        # Row r: coeffs[r, :2] = (a, b) of its bucket hash, a drawn from
        # [1, p) so two items share a bucket with probability <= 1/cols, and
        # coeffs[r, 2:] its sign polynomial, highest degree first.
        self.coeffs = rng.integers([1, 0, 0, 0, 0, 0], int(_SIGN_PRIME),
                                   size=(self.rows, 6), dtype=np.uint64)

    @classmethod
    def from_accuracy(cls, alpha: float, fail_prob: float, universe_size: int, rng):
        """Size the grid for a (1 +/- alpha) estimate at failure <= fail_prob."""
        if not (0.0 < alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
        if not (0.0 < fail_prob < 1.0):
            raise ValueError(f"fail_prob must lie in (0, 1), got {fail_prob!r}")
        return cls(_ams_rows(fail_prob), _ams_cols(alpha), universe_size, rng)

    @property
    def space_words(self) -> int:
        return self.counters.size + self.coeffs.size

    def update(self, item: int, delta: int = 1):
        self.update_bulk([item], [delta])

    def update_bulk(self, items, deltas):
        """Apply many integer updates at once; exactly equivalent to the
        update loop. Updates are linear, so they collapse to the net change
        per distinct item, which adds sign * net to its bucket in each row.
        """
        items, deltas = np.ravel(items), np.ravel(deltas)
        if items.shape != deltas.shape:
            raise ValueError("items and deltas must have equal length")
        if items.size == 0:
            return
        if items.dtype.kind not in "iu" or deltas.dtype.kind not in "iu":
            raise ValueError(
                f"items and deltas must be integers, got {items.dtype} and {deltas.dtype}")
        if items.min() < 0 or items.max() >= self.universe_size:
            raise ValueError(f"update has an item outside the universe [0, {self.universe_size})")
        uniq, inv = np.unique(items, return_inverse=True)
        net = np.zeros(uniq.size, dtype=np.int64)
        np.add.at(net, inv, deltas.astype(np.int64))
        keep = net != 0
        uniq, net = uniq[keep].astype(np.uint64), net[keep]
        a, b, c3, c2, c1, c0 = self.coeffs.T[:, :, None]
        first_cell = np.arange(self.rows, dtype=np.uint64)[:, None] * np.uint64(self.cols)
        p = _SIGN_PRIME
        for lo in range(0, uniq.size, self._chunk):
            x = uniq[None, lo:lo + self._chunk]
            cell = (a * x + b) % p % np.uint64(self.cols) + first_cell
            odd = (((c3 * x + c2) % p * x + c1) % p * x + c0) % p & np.uint64(1)
            step = (2 * odd.view(np.int64) - 1) * net[lo:lo + self._chunk]
            np.add.at(self.counters.reshape(-1), cell.view(np.int64).ravel(), step.ravel())

    def consume(self, stream: UpdateStream):
        if stream.universe_size > self.universe_size:
            raise ValueError("stream universe exceeds sketch universe")
        self.update_bulk(stream.items, stream.deltas)

    def estimate(self) -> float:
        """Median over rows of the row's sum of squared counters."""
        z = self.counters.astype(np.float64)
        return float(np.median((z * z).sum(axis=1)))


# splitmix64 finalizer; uint64 in, uint64 out, all arithmetic mod 2^64.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
# Distinct items hashed per merge step of KmvSketch.
_KMV_CHUNK = 4096


def _mix64(x: np.ndarray) -> np.ndarray:
    z = x.astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _kmv_hash(items: np.ndarray, salt: np.uint64) -> np.ndarray:
    """Map items to floats in (0, 1]: the (item+1)-th splitmix64 output of the
    stream seeded by salt, scaled by 2^-64 with a +1 offset so 0 is excluded."""
    idx = (items.astype(np.uint64) + np.uint64(1)) * _GOLDEN + salt
    h = _mix64(idx)
    return (h.astype(np.float64) + 1.0) * 2.0 ** -64


class KmvSketch:
    """k minimum distinct hash values, replicated for a median."""

    def __init__(self, k: int, reps: int, rng):
        if k < 1 or reps < 1:
            raise ValueError(f"k and reps must be >= 1, got k={k}, reps={reps}")
        self.k = int(k)
        self.reps = int(reps)
        self.salts = rng.integers(0, 2 ** 63, size=self.reps, dtype=np.uint64)
        # Row r: the smallest distinct hashes under salts[r], ascending, at
        # most k; rows shorter than the widest are padded with +inf.
        self.minima = np.empty((self.reps, 0), dtype=np.float64)

    @classmethod
    def from_accuracy(cls, alpha: float, fail_prob: float, rng):
        if not (0.0 < alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
        if not (0.0 < fail_prob < 1.0):
            raise ValueError(f"fail_prob must lie in (0, 1), got {fail_prob!r}")
        k = int(math.ceil(16.0 / alpha ** 2))
        reps = int(math.ceil(12.0 * math.log(2.0 / fail_prob)))
        return cls(k, reps, rng)

    @property
    def space_words(self) -> int:
        return self.minima.size + self.reps

    def update(self, item: int):
        self._merge(np.array([item], dtype=np.int64))

    def update_bulk(self, items):
        """Insert many items at once; the rows come out identical to the
        one-at-a-time loop because "k smallest distinct values" does not
        depend on arrival order."""
        self._merge(np.unique(np.asarray(items, dtype=np.int64)))

    def _merge(self, uniq: np.ndarray):
        """Fold distinct items into every row, hashing each chunk under all
        salts at once, so the buffer holds at most reps x (k + chunk) words."""
        for lo in range(0, uniq.size, _KMV_CHUNK):
            hashes = _kmv_hash(uniq[None, lo:lo + _KMV_CHUNK], self.salts[:, None])
            rows = np.sort(np.concatenate([self.minima, hashes], axis=1), axis=1)
            rows[:, 1:][rows[:, 1:] == rows[:, :-1]] = np.inf
            rows.sort(axis=1)
            width = min(self.k, int(np.isfinite(rows).sum(axis=1).max()))
            self.minima = rows[:, :width].copy()

    def consume(self, stream: UpdateStream):
        if stream.mode != "insert":
            raise ValueError("KMV is insertion-only; turnstile streams are not supported")
        self.update_bulk(stream.items)

    def estimate(self) -> float:
        """Median over rows of the held count below k, else (k-1)/(k-th minimum)."""
        copies = np.isfinite(self.minima).sum(axis=1).astype(np.float64)
        if self.minima.shape[1] == self.k:
            full = copies == self.k
            copies[full] = (self.k - 1) / self.minima[full, -1]
        return float(statistics.median(copies.tolist()))
