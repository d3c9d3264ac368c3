"""Update streams over a bounded universe, exact recounts, and neighbors.

A stream is a sequence of (item, delta) updates over items 0..n-1. Insertion
mode forces delta = +1; turnstile mode allows +/-1 and running frequencies
may dip negative, the final frequency vector being the object of estimation.
Two streams are neighbors when they differ in exactly one update, which moves
the final frequency vector by at most 2 in L1 (hence distinct count and L2
each move by at most 2).

An UpdateStream holds its updates as two read-only int64 arrays, `items` and
`deltas`, checked once at construction by one vectorised validation (item
range and the delta rule of the mode). Consumers read the arrays directly.

File format: header "n m mode" with mode in {insert, turnstile}, then m
lines "item delta". '#' starts a comment and blank lines are skipped.
parse_stream converts every update token in one numpy call; only a file that
call rejects is walked line by line, so that the first error reported and its
message are those of a line-by-line reader.
"""

from __future__ import annotations

import math
import re
from dataclasses import InitVar, dataclass, field
from typing import Iterable, List, Optional, Tuple

import numpy as np

__all__ = [
    "UpdateStream",
    "parse_stream",
    "format_stream",
    "load_stream",
    "save_stream",
    "exact_frequencies",
    "exact_distinct",
    "exact_f2",
    "exact_l2",
    "stream_neighbor",
]

_MODES = ("insert", "turnstile")
_INT64_MAX = int(np.iinfo(np.int64).max)


def _update_error(n, insert: bool, item: int, delta: int) -> Optional[str]:
    """Why an integer update breaks the stream rules, or None; a range error
    is reported before a delta error."""
    if not (0 <= item < n):
        return f"item {item} outside universe [0, {n})"
    if delta != 1:
        if insert:
            return f"insertion-only stream update must have delta 1, got {delta}"
        if delta != -1:
            return f"delta must be +1 or -1, got {delta}"
    return None


def _check_columns(n, insert: bool, items: np.ndarray, deltas: np.ndarray):
    """The one validation of int64 update columns: raise the error of the
    first update that breaks the range or delta rule."""
    if items.size == 0:
        return
    bad = deltas != 1 if insert else np.abs(deltas) != 1
    out_of_range = int(items.min()) < 0 or int(items.max()) >= n
    if not out_of_range and not bad.any():
        return
    if out_of_range:
        bad |= (items < 0) | (items >= n)
    i = int(np.argmax(bad))
    raise ValueError(_update_error(n, insert, int(items[i]), int(deltas[i])))


def _int_pairs(updates) -> Optional[np.ndarray]:
    """updates as an (m, 2) int64 array when numpy types them as signed
    integer (or bool) pairs, else None."""
    try:
        arr = np.asarray(updates)
    except ValueError:
        return None
    if arr.shape == (0,):
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.dtype.kind not in "bi":
        return None
    return arr.astype(np.int64, copy=False)


def _walk_pairs(n, insert: bool, updates) -> List[Tuple[int, int]]:
    """The per-pair reader for updates numpy does not type as signed integer
    pairs (floats, strings, ints beyond int64, ragged pairs): raise the first
    error in update order, else return the pairs as ints."""
    cleaned = []
    for raw_item, raw_delta in updates:
        item, delta = int(raw_item), int(raw_delta)
        if item != raw_item or delta != raw_delta:
            raise ValueError(
                f"update must be a pair of integers, got ({raw_item!r}, {raw_delta!r})")
        error = _update_error(n, insert, item, delta)
        if error:
            raise ValueError(error)
        if item > _INT64_MAX:
            raise ValueError(f"item {item} does not fit in a 64-bit integer")
        cleaned.append((item, delta))
    return cleaned


def _frozen(column: np.ndarray) -> np.ndarray:
    """A read-only int64 copy, sharing no memory with the caller's data."""
    column = np.array(column, dtype=np.int64)
    column.flags.writeable = False
    return column


@dataclass(frozen=True, eq=False)
class UpdateStream:
    """An immutable stream, built from (item, delta) pairs: any sequence of
    pairs, or an (m, 2) integer array. It keeps them as two read-only int64
    arrays, items and deltas. A value that is not an integer (2.5, 1.9) is a
    ValueError, not truncated. Equality and hashing are by identity, as for
    Graph, so one stream object stands for one dataset."""

    universe_size: int
    updates: InitVar[Iterable[Tuple[int, int]]]
    mode: str = "insert"
    items: np.ndarray = field(init=False)
    deltas: np.ndarray = field(init=False)

    def __post_init__(self, updates):
        if self.universe_size < 1:
            raise ValueError(f"universe_size must be >= 1, got {self.universe_size!r}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        n, insert = self.universe_size, self.mode == "insert"
        pairs = _int_pairs(updates)
        if pairs is None:
            pairs = np.array(_walk_pairs(n, insert, updates), dtype=np.int64).reshape(-1, 2)
        items, deltas = _frozen(pairs[:, 0]), _frozen(pairs[:, 1])
        _check_columns(n, insert, items, deltas)
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "deltas", deltas)

    @property
    def length(self) -> int:
        return int(self.items.size)


# A comment runs from '#' to the end of its line; these are the line
# boundaries of str.splitlines.
_COMMENT = re.compile("#[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]*")
# Ends each line in the joined token list. With w tokens on every line it
# sits at every (w + 1)-th place; it is no integer, so the conversion fails
# wherever else it sits.
_EOL = "\x00"


def _walk_lines(body: List[str]) -> List[Tuple[int, int]]:
    """The line-by-line reader, run only on a file the vectorised parse
    rejected: raise the first line's error, else return the pairs as ints."""
    pairs = []
    for line in body:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"update line must be 'item delta', got {line.strip()!r}")
        pairs.append((int(parts[0]), int(parts[1])))
    return pairs


def _content_lines(text: str) -> List[str]:
    """The lines of text that hold anything once comments are cut."""
    if "#" in text:
        text = _COMMENT.sub("", text)
    return list(filter(str.strip, text.splitlines()))


def _int_rows(body: List[str], width: int) -> Optional[np.ndarray]:
    """All tokens of body as an (m, width) int64 array, converted in one numpy
    call, or None when some line does not hold exactly width tokens or some
    token is no integer that fits in 64 bits."""
    m = len(body)
    tokens = f" {_EOL} ".join(body + [""]).split()
    if len(tokens) != (width + 1) * m or tokens[width::width + 1] != [_EOL] * m:
        return None
    del tokens[width::width + 1]
    try:
        return np.array(tokens, dtype=np.int64).reshape(m, width)
    except (ValueError, OverflowError):
        return None


def parse_stream(text: str) -> UpdateStream:
    lines = _content_lines(text)
    if not lines:
        raise ValueError("empty stream file")
    header = lines[0].split()
    if len(header) != 3:
        raise ValueError(f"header must be 'n m mode', got {lines[0].strip()!r}")
    n, m, mode = int(header[0]), int(header[1]), header[2]
    body = lines[1:]
    if len(body) != m:
        raise ValueError(f"header declares {m} updates but file has {len(body)}")
    pairs = _int_rows(body, 2)
    if pairs is None:
        pairs = _walk_lines(body)
    return UpdateStream(universe_size=n, updates=pairs, mode=mode)


def format_stream(s: UpdateStream) -> str:
    out = [f"{s.universe_size} {s.length} {s.mode}"]
    out.extend(f"{item} {delta}" for item, delta in zip(s.items.tolist(), s.deltas.tolist()))
    return "\n".join(out) + "\n"


def load_stream(path) -> UpdateStream:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_stream(fh.read())


def save_stream(s: UpdateStream, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_stream(s))


def exact_frequencies(s: UpdateStream) -> np.ndarray:
    freq = np.zeros(s.universe_size, dtype=np.int64)
    np.add.at(freq, s.items, s.deltas)
    return freq


def exact_distinct(s: UpdateStream) -> int:
    """Number of items with nonzero final frequency."""
    return int(np.count_nonzero(exact_frequencies(s)))


def exact_f2(s: UpdateStream) -> float:
    freq = exact_frequencies(s)
    return float(np.dot(freq, freq))


def exact_l2(s: UpdateStream) -> float:
    return math.sqrt(exact_f2(s))


def stream_neighbor(s: UpdateStream, rng) -> UpdateStream:
    """Copy of s with one uniformly chosen update replaced by a different
    legal update (same universe and mode). The final frequency vectors of the
    pair differ by at most 2 in L1."""
    if s.length < 1:
        raise ValueError("cannot form a neighbor of an empty stream")
    idx = int(rng.integers(s.length))
    old = (int(s.items[idx]), int(s.deltas[idx]))
    while True:
        item = int(rng.integers(s.universe_size))
        delta = 1 if s.mode == "insert" else int(rng.choice((-1, 1)))
        if (item, delta) != old:
            break
        if s.universe_size == 1 and s.mode == "insert":
            raise ValueError("a 1-item insertion-only stream has no distinct neighbor")
    pairs = np.column_stack((s.items, s.deltas))
    pairs[idx] = (item, delta)
    return UpdateStream(universe_size=s.universe_size, updates=pairs, mode=s.mode)
