"""Update streams over a bounded universe, exact recounts, and neighbors.

A stream is a sequence of (item, delta) updates over items 0..n-1. Insertion
mode forces delta = +1; turnstile mode allows +/-1 and running frequencies
may dip negative, the final frequency vector being the object of estimation.
Two streams are neighbors when they differ in exactly one update, which moves
the final frequency vector by at most 2 in L1 (hence distinct count and L2
each move by at most 2).

File format: header "n m mode" with mode in {insert, turnstile}, then m
lines "item delta". '#' starts a comment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

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


@dataclass(frozen=True)
class UpdateStream:
    """An immutable stream: updates is a tuple of (item, delta) pairs, checked
    and normalized to ints once, at construction. A value that is not an
    integer (2.5, 1.9) is a ValueError, not truncated."""

    universe_size: int
    updates: Tuple[Tuple[int, int], ...]
    mode: str = "insert"

    def __post_init__(self):
        if self.universe_size < 1:
            raise ValueError(f"universe_size must be >= 1, got {self.universe_size!r}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        n, insert = self.universe_size, self.mode == "insert"
        cleaned = []
        for raw_item, raw_delta in self.updates:
            item, delta = int(raw_item), int(raw_delta)
            if item != raw_item or delta != raw_delta:
                raise ValueError(
                    f"update must be a pair of integers, got ({raw_item!r}, {raw_delta!r})")
            if not (0 <= item < n):
                raise ValueError(f"item {item} outside universe [0, {n})")
            if delta != 1:
                if insert:
                    raise ValueError(
                        f"insertion-only stream update must have delta 1, got {delta}")
                if delta != -1:
                    raise ValueError(f"delta must be +1 or -1, got {delta}")
            cleaned.append((item, delta))
        object.__setattr__(self, "updates", tuple(cleaned))

    @property
    def length(self) -> int:
        return len(self.updates)

    def items(self) -> List[int]:
        return [item for item, _ in self.updates]


def parse_stream(text: str) -> UpdateStream:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ValueError("empty stream file")
    header = lines[0].split()
    if len(header) != 3:
        raise ValueError(f"header must be 'n m mode', got {lines[0]!r}")
    n, m, mode = int(header[0]), int(header[1]), header[2]
    if len(lines) - 1 != m:
        raise ValueError(f"header declares {m} updates but file has {len(lines) - 1}")
    updates = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"update line must be 'item delta', got {line!r}")
        updates.append((int(parts[0]), int(parts[1])))
    return UpdateStream(universe_size=n, updates=updates, mode=mode)


def format_stream(s: UpdateStream) -> str:
    out = [f"{s.universe_size} {s.length} {s.mode}"]
    for item, delta in s.updates:
        out.append(f"{item} {delta}")
    return "\n".join(out) + "\n"


def load_stream(path) -> UpdateStream:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_stream(fh.read())


def save_stream(s: UpdateStream, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_stream(s))


def exact_frequencies(s: UpdateStream) -> np.ndarray:
    freq = np.zeros(s.universe_size, dtype=np.int64)
    for item, delta in s.updates:
        freq[item] += delta
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
    old = s.updates[idx]
    while True:
        item = int(rng.integers(s.universe_size))
        delta = 1 if s.mode == "insert" else int(rng.choice((-1, 1)))
        if (item, delta) != old:
            break
        if s.universe_size == 1 and s.mode == "insert":
            raise ValueError("a 1-item insertion-only stream has no distinct neighbor")
    updates = list(s.updates)
    updates[idx] = (item, delta)
    return UpdateStream(universe_size=s.universe_size, updates=updates, mode=s.mode)
