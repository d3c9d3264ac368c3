"""Streaming sketches: AMS second-moment (turnstile) and KMV distinct count.

AmsSketch keeps an r x c grid of signed counters, r = ceil(48*ln(2/delta))
median groups by c = ceil(16/alpha^2) mean groups; each counter is the inner
product of the frequency vector with a 4-wise independent sign function, so
updates are linear and deletions cancel insertions bitwise. The estimate
(median over rows of the mean over columns of Z^2) lies in (1 +/- alpha)*F2
with probability >= 1 - delta. A grid whose coefficients plus one chunk of
the sign cube that bulk updates evaluate would pass 1 GiB is refused at
construction, before any coefficient is drawn.

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

# Signs come from degree-3 polynomials over the Mersenne prime 2^31 - 1,
# evaluated in uint64 (products stay below 2^62, so arithmetic never wraps).
_SIGN_PRIME = np.uint64(2 ** 31 - 1)
# Distinct items whose sign matrices update_bulk evaluates at once.
_AMS_CHUNK = 64
# Largest grid footprint AmsSketch accepts: 8-byte coefficient words (4 per
# counter) plus one chunk of the sign cube (_AMS_CHUNK words per counter).
_AMS_MAX_BYTES = 2 ** 30


def _ams_rows(fail_prob: float) -> int:
    return int(math.ceil(48.0 * math.log(2.0 / fail_prob)))


def _ams_cols(alpha: float) -> int:
    return int(math.ceil(16.0 / alpha ** 2))


class AmsSketch:
    """Signed-counter sketch for the second frequency moment."""

    def __init__(self, rows: int, cols: int, universe_size: int, rng):
        if rows < 1 or cols < 1:
            raise ValueError(f"rows and cols must be >= 1, got {rows}x{cols}")
        if not (1 <= universe_size < int(_SIGN_PRIME)):
            raise ValueError(
                f"universe_size must lie in [1, {int(_SIGN_PRIME)}), got {universe_size!r}")
        need = 8 * int(rows) * int(cols) * (4 + _AMS_CHUNK)
        if need > _AMS_MAX_BYTES:
            raise ValueError(
                f"AMS grid {rows} x {cols} needs {need / 2 ** 30:.1f} GiB for its "
                f"coefficients and one {_AMS_CHUNK}-item sign chunk, above the "
                f"{_AMS_MAX_BYTES / 2 ** 30:g} GiB cap")
        self.rows = int(rows)
        self.cols = int(cols)
        self.universe_size = int(universe_size)
        self.counters = np.zeros((self.rows, self.cols), dtype=np.int64)
        # coeffs[d] holds the degree-d coefficient for every counter's sign
        # polynomial; independent draws make the counters pairwise independent
        # and each sign function 4-wise independent in the item.
        self.coeffs = rng.integers(0, int(_SIGN_PRIME), size=(4, self.rows, self.cols),
                                   dtype=np.uint64)

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

    def _signs(self, items: np.ndarray) -> np.ndarray:
        """Sign matrix of shape (rows, cols, len(items)), entries +/-1 (int64).

        Horner evaluation of the degree-3 polynomial at each item, mod the
        Mersenne prime; the parity bit of the value is the sign.
        """
        x = items.astype(np.uint64)[None, None, :]
        c3, c2, c1, c0 = (self.coeffs[d][:, :, None] for d in range(4))
        acc = c3
        acc = (acc * x + c2) % _SIGN_PRIME
        acc = (acc * x + c1) % _SIGN_PRIME
        acc = (acc * x + c0) % _SIGN_PRIME
        return ((acc & np.uint64(1)).astype(np.int64) << 1) - 1

    def update(self, item: int, delta: int = 1):
        if not (0 <= item < self.universe_size):
            raise ValueError(f"item {item} outside universe [0, {self.universe_size})")
        self.counters += int(delta) * self._signs(np.array([item]))[:, :, 0]

    def update_bulk(self, items, deltas):
        """Apply many updates at once; exactly equivalent to the update loop.

        Updates are linear, so they collapse to the net frequency change per
        distinct item; the sign matrices are evaluated in chunks to bound
        peak memory.
        """
        items = np.asarray(items, dtype=np.int64)
        deltas = np.asarray(deltas, dtype=np.int64)
        if items.shape != deltas.shape:
            raise ValueError("items and deltas must have equal length")
        if items.size == 0:
            return
        if items.min() < 0 or items.max() >= self.universe_size:
            raise ValueError("bulk update contains an item outside the universe")
        uniq, inv = np.unique(items, return_inverse=True)
        net = np.zeros(uniq.size, dtype=np.int64)
        np.add.at(net, inv, deltas)
        keep = net != 0
        uniq, net = uniq[keep], net[keep]
        for lo in range(0, uniq.size, _AMS_CHUNK):
            hi = min(lo + _AMS_CHUNK, uniq.size)
            signs = self._signs(uniq[lo:hi])
            self.counters += signs @ net[lo:hi]

    def consume(self, stream: UpdateStream):
        if stream.universe_size > self.universe_size:
            raise ValueError("stream universe exceeds sketch universe")
        items = [it for it, _ in stream.updates]
        deltas = [d for _, d in stream.updates]
        self.update_bulk(items, deltas)

    def estimate(self) -> float:
        z = self.counters.astype(np.float64)
        row_means = (z * z).mean(axis=1)
        return float(np.median(row_means))


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
        self.update_bulk(stream.items())

    def estimate(self) -> float:
        """Median over rows of the held count below k, else (k-1)/(k-th minimum)."""
        copies = np.isfinite(self.minima).sum(axis=1).astype(np.float64)
        if self.minima.shape[1] == self.k:
            full = copies == self.k
            copies[full] = (self.k - 1) / self.minima[full, -1]
        return float(statistics.median(copies.tolist()))
