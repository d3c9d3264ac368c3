"""0/1 knapsack: profit-scaling FPTAS and exact dynamic program.

knapsack_fptas is the deterministic tunable substrate for the Cauchy route:
for any alpha in (0, 1) it returns a feasible selection's total value inside
[(1-alpha)*OPT, OPT] in time polynomial in (n, 1/alpha), and alpha = 0 runs
the exact value-axis DP (integer values required). Instances live in a small
text format: a header "n B" followed by n lines "size value", read by the
line walker the stream and graph formats share, with int sizes and float
values; the first line that cannot be read raises, and KnapsackInstance
checks the items once all are read.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .streams import _body_lines, _check_bytes, _split_header, _walk_lines

__all__ = [
    "KnapsackInstance",
    "parse_knapsack",
    "format_knapsack",
    "load_knapsack",
    "save_knapsack",
    "knapsack_exact",
    "knapsack_fptas",
]


def _positive_integer(x) -> bool:
    """Whether x is a number of integer value >= 1: 5 and 5.0 are; 2.5, "5",
    inf and nan are not."""
    return isinstance(x, numbers.Real) and x >= 1 and x == x // 1


@dataclass(frozen=True)
class KnapsackInstance:
    """Items with positive integer sizes and nonnegative real values; an
    immutable instance whose sizes and values are tuples."""

    capacity: int
    sizes: Tuple[int, ...]
    values: Tuple[float, ...]

    def __post_init__(self):
        if not _positive_integer(self.capacity):
            raise ValueError(f"capacity must be a positive integer, got {self.capacity!r}")
        object.__setattr__(self, "capacity", int(self.capacity))
        if len(self.sizes) != len(self.values):
            raise ValueError(
                f"sizes ({len(self.sizes)}) and values ({len(self.values)}) differ in length")
        for s in self.sizes:
            if not _positive_integer(s):
                raise ValueError(f"sizes must be positive integers, got {s!r}")
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        for v in self.values:
            if not (v >= 0.0 and math.isfinite(v)):
                raise ValueError(f"values must be nonnegative finite reals, got {v!r}")

    @property
    def n(self) -> int:
        return len(self.sizes)


def _item(parts: List[str]) -> Tuple[int, float]:
    """One item line's tokens as (size, value)."""
    return int(parts[0]), float(parts[1])


def parse_knapsack(text: str) -> KnapsackInstance:
    header, body = _split_header(text, "empty knapsack file")
    fields = header.split()
    if len(fields) != 2:
        raise ValueError(f"header must be 'n B', got {header.strip()!r}")
    n, capacity = int(fields[0]), int(fields[1])
    items = list(_walk_lines(_body_lines(body, n, "items"), 2, "item line must be 'size value'",
                             _item))
    return KnapsackInstance(capacity=capacity, sizes=[size for size, _ in items],
                            values=[value for _, value in items])


def format_knapsack(inst: KnapsackInstance) -> str:
    out = [f"{inst.n} {inst.capacity}"]
    for s, v in zip(inst.sizes, inst.values):
        out.append(f"{s} {v!r}" if not float(v).is_integer() else f"{s} {int(v)}")
    return "\n".join(out) + "\n"


def load_knapsack(path) -> KnapsackInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_knapsack(fh.read())


def save_knapsack(inst: KnapsackInstance, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_knapsack(inst))


def _value_axis_dp(sizes, values, scaled, capacity) -> float:
    """Min-size DP over the scaled-value axis; returns the original-value sum
    of the best feasible selection. scaled[i] = 0 items are skipped (they
    cannot raise the scaled objective)."""
    total_scaled = int(sum(scaled))
    _check_bytes(16 * (total_scaled + 1), f"knapsack DP over {total_scaled + 1} scaled values",
                 "size and value tables")
    best_size = np.full(total_scaled + 1, np.inf)
    best_size[0] = 0.0
    orig_value = np.zeros(total_scaled + 1)
    for s, v, sv in zip(sizes, values, scaled):
        if sv == 0:
            continue
        cand_size = best_size[:-sv] + s
        cand_value = orig_value[:-sv] + v
        better = cand_size < best_size[sv:]
        best_size[sv:] = np.where(better, cand_size, best_size[sv:])
        orig_value[sv:] = np.where(better, cand_value, orig_value[sv:])
    feasible = np.nonzero(best_size <= capacity)[0]
    return float(orig_value[feasible[-1]]) if feasible.size else 0.0


def _integers(values) -> List[int]:
    """values as ints, for the exact DP; raises at the first non-integer."""
    for v in values:
        if not float(v).is_integer():
            raise ValueError(f"exact knapsack DP needs integer values, got {v!r}")
    return [int(v) for v in values]


def _fitting(inst: KnapsackInstance):
    """(sizes, values) of the items that fit on their own; no feasible
    selection holds any other."""
    kept = [(s, v) for s, v in zip(inst.sizes, inst.values) if s <= inst.capacity]
    return [s for s, _ in kept], [v for _, v in kept]


def knapsack_exact(inst: KnapsackInstance) -> float:
    """Exact optimum via DP over the value axis; every item's value must be
    an integer, even that of an item too large to fit."""
    _integers(inst.values)
    sizes, values = _fitting(inst)
    return _value_axis_dp(sizes, values, _integers(values), inst.capacity)


def knapsack_fptas(inst: KnapsackInstance, alpha: float) -> float:
    """Deterministic (1 - alpha)-approximate knapsack by profit scaling.

    Drops items that cannot fit, scales values by mu = alpha * v_max / n,
    floors them, and solves the scaled problem exactly; the selected set's
    unscaled value is returned and satisfies (1-alpha)*OPT <= out <= OPT.
    alpha = 0, or no fitting item of positive value, runs the exact DP on the
    fitting items, whose values must then be integers.
    """
    if not (0.0 <= alpha < 1.0):
        raise ValueError(f"alpha must lie in [0, 1), got {alpha!r}")
    sizes, values = _fitting(inst)
    v_max = max(values, default=0.0)
    if alpha == 0.0 or v_max == 0.0:
        scaled = _integers(values)
    else:
        mu = alpha * v_max / len(values)
        scaled = [int(math.floor(v / mu)) for v in values]
    return _value_axis_dp(sizes, values, scaled, inst.capacity)
