"""0/1 knapsack: profit-scaling FPTAS and exact dynamic program.

knapsack_fptas is the deterministic tunable substrate for the Cauchy route:
for any alpha in (0, 1) it returns a feasible selection's total value inside
[(1-alpha)*OPT, OPT] in time polynomial in (n, 1/alpha), and alpha = 0 runs
the exact value-axis DP (integer values required). Instances live in a small
text format: a header "n B" followed by n lines "size value".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

__all__ = [
    "KnapsackInstance",
    "parse_knapsack",
    "format_knapsack",
    "load_knapsack",
    "save_knapsack",
    "knapsack_exact",
    "knapsack_fptas",
]


@dataclass
class KnapsackInstance:
    """Items with positive integer sizes and nonnegative real values."""

    capacity: int
    sizes: List[int]
    values: List[float]

    def __post_init__(self):
        if int(self.capacity) != self.capacity or self.capacity < 1:
            raise ValueError(f"capacity must be a positive integer, got {self.capacity!r}")
        self.capacity = int(self.capacity)
        if len(self.sizes) != len(self.values):
            raise ValueError(
                f"sizes ({len(self.sizes)}) and values ({len(self.values)}) differ in length")
        self.sizes = [int(s) for s in self.sizes]
        self.values = [float(v) for v in self.values]
        for s in self.sizes:
            if s < 1:
                raise ValueError(f"sizes must be positive integers, got {s!r}")
        for v in self.values:
            if not (v >= 0.0 and math.isfinite(v)):
                raise ValueError(f"values must be nonnegative finite reals, got {v!r}")

    @property
    def n(self) -> int:
        return len(self.sizes)


def parse_knapsack(text: str) -> KnapsackInstance:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ValueError("empty knapsack file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"header must be 'n B', got {lines[0]!r}")
    n, capacity = int(header[0]), int(header[1])
    if len(lines) - 1 != n:
        raise ValueError(f"header declares {n} items but file has {len(lines) - 1}")
    sizes, values = [], []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"item line must be 'size value', got {line!r}")
        sizes.append(int(parts[0]))
        values.append(float(parts[1]))
    return KnapsackInstance(capacity=capacity, sizes=sizes, values=values)


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


def knapsack_exact(inst: KnapsackInstance) -> float:
    """Exact optimum via DP over the value axis; integer values required."""
    for v in inst.values:
        if not float(v).is_integer():
            raise ValueError(
                f"exact knapsack DP needs integer values, got {v!r}")
    kept = [(s, v) for s, v in zip(inst.sizes, inst.values) if s <= inst.capacity]
    if not kept:
        return 0.0
    sizes = [s for s, _ in kept]
    values = [v for _, v in kept]
    scaled = [int(v) for v in values]
    return _value_axis_dp(sizes, values, scaled, inst.capacity)


def knapsack_fptas(inst: KnapsackInstance, alpha: float) -> float:
    """Deterministic (1 - alpha)-approximate knapsack by profit scaling.

    Drops items that cannot fit, scales values by mu = alpha * v_max / n,
    floors them, and solves the scaled problem exactly; the selected set's
    unscaled value is returned and satisfies (1-alpha)*OPT <= out <= OPT.
    alpha = 0 falls through to the exact DP.
    """
    if not (0.0 <= alpha < 1.0):
        raise ValueError(f"alpha must lie in [0, 1), got {alpha!r}")
    if inst.n == 0:
        return 0.0
    kept = [(s, v) for s, v in zip(inst.sizes, inst.values) if s <= inst.capacity]
    if not kept:
        return 0.0
    sizes = [s for s, _ in kept]
    values = [v for _, v in kept]
    v_max = max(values)
    if alpha == 0.0 or v_max == 0.0:
        return knapsack_exact(KnapsackInstance(inst.capacity, sizes, values))
    mu = alpha * v_max / len(kept)
    scaled = [int(math.floor(v / mu)) for v in values]
    return _value_axis_dp(sizes, values, scaled, inst.capacity)
