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
counters. A grid whose counters, coefficients and update buffers would pass
1 GiB is refused at construction, before any coefficient is drawn, and when
append_rows would grow it there.

KmvSketch retains the k = ceil(16/alpha^2) smallest distinct 64-bit hash
values per copy, reps = ceil(12*ln(2/delta)) copies medianed. Its whole state
is one rows x w float array of per-row ascending minima (w <= k, +inf pads
shorter rows). Items must be integers; anything else is refused before
hashing. Single and bulk inserts share one merge, and a bulk insert takes its
distinct items from one sort and an adjacent-difference mask. A merge step
takes up to max(1, 2^22 // rows) distinct items into one rows x (w + step)
float buffer that holds the minima on its left and then replaces them, so
the held copy is freed. It fills the buffer in bands of max(1, 2^15 // step)
rows, so that a band's temporaries stay in cache: the band's hashes are
computed and sorted in uint64 and converted into the buffer in place, as the
map to floats is monotone; one stable sort per row merges them with the held
minima, and a second runs only when a hash equal to its left neighbour was
marked +inf as a duplicate. A merge is refused before hashing when the
arrays one step holds at once (see _merge) would pass 1 GiB. space_words
counts the words held, not the reps*k capacity. Insertion-only: a deletion
cannot be undone once a hash is retained, so turnstile streams are rejected.
Below k distinct items the sketch is exact; kmv_dims states the exact
regime, a stream of fewer than k updates, which a caller can read from
public sizes and count exactly instead of hashing.

Both sketches keep their rows in arrays that can be stacked: append_rows
puts another sketch's rows below, take_rows keeps a subset, and row_values
gives the per-row estimates that estimate() takes the median of. A
sliding-window family (windows.SketchFamily) keeps every live instance as a
block of rows of one stacked sketch, so one update call feeds them all; the
rows of a block are bit for bit those of the instance's own sketch.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .mechanisms import _check_accuracy, block_medians
from .streams import UpdateStream, _check_bytes, _sorted_distinct

__all__ = [
    "AmsSketch",
    "KmvSketch",
    "kmv_dims",
]

# Bucket hashes and signs are polynomials over the Mersenne prime 2^31 - 1,
# evaluated in uint64 (products stay below 2^62, so arithmetic never wraps).
_SIGN_PRIME = np.uint64(2 ** 31 - 1)
# Counters one AMS update pass touches, unless the sketch has more rows:
# update_bulk takes max(1, _AMS_PASS_CELLS // rows) distinct items a pass.
_AMS_PASS_CELLS = 2 ** 18


def _ams_rows(fail_prob: float) -> int:
    return int(math.ceil(48.0 * math.log(2.0 / fail_prob)))


def _ams_cols(alpha: float) -> int:
    return int(math.ceil(16.0 / alpha ** 2))


def _ams_chunk(rows: int) -> int:
    return max(1, _AMS_PASS_CELLS // rows)


def _check_ams_grid(rows: int, cols: int):
    """Refuse a grid whose 8-byte counters, 6 coefficients per row and three
    rows x chunk update buffers would pass the cap."""
    _check_bytes(8 * rows * (cols + 6 + 3 * _ams_chunk(rows)), f"AMS grid {rows} x {cols}",
                 "counters, coefficients and update buffers")


class AmsSketch:
    """Bucketed signed-counter sketch for the second frequency moment."""

    def __init__(self, rows: int, cols: int, universe_size: int, rng):
        if rows < 1 or cols < 1:
            raise ValueError(f"rows and cols must be >= 1, got {rows}x{cols}")
        if not (1 <= universe_size < int(_SIGN_PRIME)):
            raise ValueError(
                f"universe_size must lie in [1, {int(_SIGN_PRIME)}), got {universe_size!r}")
        rows, self.cols, self.universe_size = int(rows), int(cols), int(universe_size)
        _check_ams_grid(rows, self.cols)
        self.counters = np.zeros((rows, self.cols), dtype=np.int64)
        # Row r: coeffs[r, :2] = (a, b) of its bucket hash, a drawn from
        # [1, p) so two items share a bucket with probability <= 1/cols, and
        # coeffs[r, 2:] its sign polynomial, highest degree first.
        self.coeffs = rng.integers([1, 0, 0, 0, 0, 0], int(_SIGN_PRIME),
                                   size=(rows, 6), dtype=np.uint64)

    @classmethod
    def from_accuracy(cls, alpha: float, fail_prob: float, universe_size: int, rng):
        """Size the grid for a (1 +/- alpha) estimate at failure <= fail_prob."""
        _check_accuracy(alpha, fail_prob)
        return cls(_ams_rows(fail_prob), _ams_cols(alpha), universe_size, rng)

    @property
    def rows(self) -> int:
        return self.counters.shape[0]

    @property
    def space_words(self) -> int:
        return self.counters.size + self.coeffs.size

    def append_rows(self, other: "AmsSketch"):
        """Stack other's rows, counters and coefficients, below these."""
        if (other.cols, other.universe_size) != (self.cols, self.universe_size):
            raise ValueError("appended AMS rows must share cols and universe_size")
        _check_ams_grid(self.rows + other.rows, self.cols)
        self.counters = np.concatenate([self.counters, other.counters])
        self.coeffs = np.concatenate([self.coeffs, other.coeffs])

    def take_rows(self, index):
        """Keep the rows at index, in that order."""
        self.counters, self.coeffs = self.counters[index], self.coeffs[index]

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
        uniq, net = _sorted_distinct(items, deltas.astype(np.int64))
        keep = net != 0
        uniq, net = uniq[keep].astype(np.uint64), net[keep]
        a, b, c3, c2, c1, c0 = self.coeffs.T[:, :, None]
        first_cell = np.arange(self.rows, dtype=np.uint64)[:, None] * np.uint64(self.cols)
        p = _SIGN_PRIME
        chunk = _ams_chunk(self.rows)
        for lo in range(0, uniq.size, chunk):
            x = uniq[None, lo:lo + chunk]
            cell = (a * x + b) % p % np.uint64(self.cols) + first_cell
            odd = (((c3 * x + c2) % p * x + c1) % p * x + c0) % p & np.uint64(1)
            step = (2 * odd.view(np.int64) - 1) * net[lo:lo + chunk]
            np.add.at(self.counters.reshape(-1), cell.view(np.int64).ravel(), step.ravel())

    def consume(self, stream: UpdateStream):
        if stream.universe_size > self.universe_size:
            raise ValueError("stream universe exceeds sketch universe")
        self.update_bulk(stream.items, stream.deltas)

    def row_values(self) -> np.ndarray:
        """Each row's sum of squared counters."""
        z = self.counters.astype(np.float64)
        return (z * z).sum(axis=1)

    def estimate(self) -> float:
        """Median over rows of row_values."""
        return float(block_medians(self.row_values(), self.rows)[0])


# splitmix64 finalizer; uint64 in, uint64 out, all arithmetic mod 2^64.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
# Hashes one KmvSketch merge step computes over all rows: a step takes
# max(1, _KMV_STEP_WORDS // rows) distinct items.
_KMV_STEP_WORDS = 2 ** 22
# Hashes one band of a step holds: a band takes max(1, _KMV_BAND_WORDS // n)
# rows of a step of n items, so its temporaries stay in cache.
_KMV_BAND_WORDS = 2 ** 15


def _mix64(z: np.ndarray) -> np.ndarray:
    """The finalizer applied in place to the uint64 array z, which it returns."""
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _kmv_offsets(items: np.ndarray) -> np.ndarray:
    """(item + 1) * golden: a salt plus this is the splitmix64 state whose
    output is the item's hash in the stream seeded by that salt."""
    return (items.astype(np.uint64) + np.uint64(1)) * _GOLDEN


def _to_unit(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write (float(z) + 1) * 2^-64 of the uint64 array z into the float
    array out, which it returns: values in (0, 1], the +1 keeping 0 out. The
    map is monotone, so sorted z stay sorted."""
    out[...] = z
    out += 1.0
    out *= 2.0 ** -64
    return out


def _kmv_hash(items: np.ndarray, salt: np.uint64) -> np.ndarray:
    """Map items to floats in (0, 1]: the (item+1)-th splitmix64 output of the
    stream seeded by salt, under _to_unit."""
    z = _mix64(_kmv_offsets(items) + salt)
    return _to_unit(z, np.empty(z.shape))


def _integer_items(items) -> np.ndarray:
    """items as a 1-D int64 array; anything but integers is refused."""
    items = np.ravel(items)
    if items.size and items.dtype.kind not in "iu":
        raise ValueError(f"items must be integers, got {items.dtype}")
    return items.astype(np.int64, copy=False)


def _width(minima: np.ndarray) -> int:
    """Columns of ascending, +inf-padded rows that hold a finite value in
    some row: the most values any row holds."""
    return int(np.count_nonzero(minima.min(axis=0, initial=np.inf) < np.inf))


def kmv_dims(alpha: float, fail_prob: float) -> Tuple[int, int]:
    """(k, reps) of a KMV sketch for a (1 +/- alpha) estimate at failure <=
    fail_prob: k = ceil(16/alpha^2) minima a row and reps =
    ceil(12*ln(2/fail_prob)) rows medianed.

    A stream of fewer than k updates is in the exact regime: no row can
    reach k minima, so each row's value is its held count, the stream's
    distinct count, and so is the median. The choice reads the stream's
    length and k, both public sizes, never the data. One caveat: _to_unit
    can round two distinct uint64 hashes to one float, which lowers that
    row's count by one; the median moves only if half the rows tie, which
    is negligible. At k updates a row can hold k minima and estimate
    (k-1)/(k-th minimum) instead of its count."""
    _check_accuracy(alpha, fail_prob)
    return int(math.ceil(16.0 / alpha ** 2)), int(math.ceil(12.0 * math.log(2.0 / fail_prob)))


class KmvSketch:
    """k minimum distinct hash values, replicated for a median."""

    def __init__(self, k: int, reps: int, rng):
        if k < 1 or reps < 1:
            raise ValueError(f"k and reps must be >= 1, got k={k}, reps={reps}")
        self.k = int(k)
        self.reps = int(reps)
        self.salts = rng.integers(0, 2 ** 63, size=self.reps, dtype=np.uint64)
        # Row r: the smallest distinct hashes under salts[r], ascending, at
        # most k; rows shorter than the widest are padded with +inf. Stacked
        # sketches hold several blocks of reps rows (append_rows).
        self.minima = np.empty((self.reps, 0), dtype=np.float64)

    @classmethod
    def from_accuracy(cls, alpha: float, fail_prob: float, rng):
        """Size the sketch for a (1 +/- alpha) estimate at failure <= fail_prob
        (see kmv_dims)."""
        return cls(*kmv_dims(alpha, fail_prob), rng)

    @property
    def rows(self) -> int:
        return self.salts.size

    @property
    def space_words(self) -> int:
        """Words held: each block of reps rows at its own width (the most
        minima a row of it holds), plus the salts."""
        held = self._held().reshape(-1, self.reps).max(axis=1, initial=0)
        return int(held.sum()) * self.reps + self.rows

    def _held(self) -> np.ndarray:
        """Minima held per row. Rows are ascending with +inf only at the end,
        so when no row's last column is +inf every row holds the width.
        Otherwise the count runs over the whole array: copying out just the
        short rows costs more where most rows are short, as in a
        sliding-window stack."""
        if self.minima[:, -1:].max(initial=0.0) < np.inf:
            return np.full(self.rows, self.minima.shape[1])
        return (self.minima < np.inf).sum(axis=1)

    def append_rows(self, other: "KmvSketch"):
        """Stack other's rows, salts and minima, below these, padding the
        narrower minima with +inf."""
        if (other.k, other.reps) != (self.k, self.reps):
            raise ValueError("appended KMV rows must share k and reps")
        rows = self.rows + other.rows
        width = max(self.minima.shape[1], other.minima.shape[1])
        _check_bytes(8 * rows * width, f"KMV sketch of {rows} rows x {width}", "minima")
        minima = np.full((rows, width), np.inf)
        minima[:self.rows, :self.minima.shape[1]] = self.minima
        minima[self.rows:, :other.minima.shape[1]] = other.minima
        self.salts, self.minima = np.concatenate([self.salts, other.salts]), minima

    def take_rows(self, index):
        """Keep the rows at index, in that order, trimmed to their widest."""
        self.salts, minima = self.salts[index], self.minima[index]
        self.minima = minima[:, :_width(minima)]

    def update(self, item: int):
        self._merge(_integer_items([item]))

    def update_bulk(self, items):
        """Insert many integer items at once; the rows come out identical to
        the one-at-a-time loop because "k smallest distinct values" does not
        depend on arrival order."""
        self._merge(_sorted_distinct(_integer_items(items)))

    def _merge(self, uniq: np.ndarray):
        """Fold distinct items into every row, in steps of at most
        S = max(1, _KMV_STEP_WORDS // rows) items (see _merge_step).

        The cap counts every array a step holds at once, with W = min(k,
        held + items) the widest the rows get and S' = min(S, items) the
        items of a step: rows x (2W + S') words hold the held minima beside
        the rows x (held + S') buffer they are copied into, or that buffer
        beside its trimmed copy; while the bands run, the buffer, a band's
        hashes, its repeat flags (a byte a value) and a row's sort buffer
        fit in rows x (2W + 3S') words; and the step's offsets and a band's
        column minima take another 3S' words."""
        rows, step = self.rows, max(1, _KMV_STEP_WORDS // self.rows)
        width, step_items = min(self.k, self.minima.shape[1] + uniq.size), min(step, uniq.size)
        _check_bytes(8 * (rows * (2 * width + 3 * step_items) + 3 * step_items),
                     f"KMV sketch of {rows} rows x {width} minima", "minima and merge buffer")
        for lo in range(0, uniq.size, step):
            self._merge_step(_kmv_offsets(uniq[lo:lo + step]))

    def _merge_step(self, offsets: np.ndarray):
        """Fold the items of offsets (_kmv_offsets) into every row: copy the
        held minima into the left columns of one rows x (held + step) buffer,
        which the rows then point at, so the held copy is freed, and fill it
        band by band (see _merge_band). The rows are whole again on return."""
        held = self.minima.shape[1]
        merged = np.empty((self.rows, held + offsets.size))
        merged[:, :held] = self.minima
        self.minima = merged
        band = max(1, _KMV_BAND_WORDS // offsets.size)
        kept = [self._merge_band(merged[r:r + band], offsets, self.salts[r:r + band])
                for r in range(0, self.rows, band)]
        # The widest row held `held` minima and no row loses any, so only the
        # new columns can widen the sketch.
        width = min(self.k, held + max(kept))
        self.minima = merged if width == merged.shape[1] else merged[:, :width].copy()

    @staticmethod
    def _merge_band(band: np.ndarray, offsets: np.ndarray, salts: np.ndarray) -> int:
        """Hash offsets under the band's salts in uint64, sort each row there,
        and convert the sorted hashes into the band's new columns; a stable
        sort then merges them with the held minima, two sorted runs. A hash
        equal to its left neighbour is a repeat, is marked +inf, and forces
        one more stable sort. Returns the most new values a row of the band
        keeps."""
        held = band.shape[1] - offsets.size
        z = _mix64(offsets + salts[:, None])
        z.sort(axis=1)
        _to_unit(z, band[:, held:])
        if held:
            band.sort(axis=1, kind="stable")
        dup = band[:, 1:] == band[:, :-1]
        dup &= band[:, 1:] < np.inf
        if dup.any():
            # Rows are sorted but for the new +inf marks: timsort's runs
            # make this second pass close to linear.
            band[:, 1:][dup] = np.inf
            band.sort(axis=1, kind="stable")
        return _width(band[:, held:])

    @staticmethod
    def insertion_only(stream: UpdateStream) -> UpdateStream:
        """stream, refused unless it is insertion-only."""
        if stream.mode != "insert":
            raise ValueError("KMV is insertion-only; turnstile streams are not supported")
        return stream

    def consume(self, stream: UpdateStream):
        self.update_bulk(self.insertion_only(stream).items)

    def row_values(self) -> np.ndarray:
        """Each row's estimate: its held count below k, else (k-1)/(k-th minimum)."""
        values = self._held().astype(np.float64)
        if self.minima.shape[1] == self.k:
            full = values == self.k
            values[full] = (self.k - 1) / self.minima[full, -1]
        return values

    def estimate(self) -> float:
        """Median over rows of row_values."""
        return float(block_medians(self.row_values(), self.rows)[0])
