"""Seeded input generators for the benchmark.

Every generator draws from the numpy Generator it is handed, so one seed
gives the same files on every machine. The files are written in dpbox's text
formats by the plain writers below; the program under test only ever sees
the finished files. Graph shapes are planted: the multiset of component
sizes is fixed and only labels and edges inside a component vary with the
seed, so the work a workload does barely moves from seed to seed.
"""

from __future__ import annotations

import numpy as np


def _tree_edges(rng, members):
    """Random recursive tree over `members` (each vertex joins an earlier one)."""
    edges = []
    for j in range(1, len(members)):
        a, b = int(members[j]), int(members[int(rng.integers(j))])
        edges.append((min(a, b), max(a, b)))
    return edges


def _extra_edges(rng, members, count, edges):
    """Add up to `count` random chords inside `members`, skipping repeats."""
    have = set(edges)
    size = len(members)
    tries = 0
    while count > 0 and size > 2 and tries < 20 * count + 100:
        tries += 1
        a, b = int(members[int(rng.integers(size))]), int(members[int(rng.integers(size))])
        key = (min(a, b), max(a, b))
        if a == b or key in have:
            continue
        have.add(key)
        edges.append(key)
        count -= 1
    return edges


def planted_components(rng, n, sizes, chord_ratio=0.0):
    """Edges of a graph on n vertices whose components have the given sizes,
    cycled until n vertices are used. Each component is a random tree plus
    chord_ratio * size random chords; vertex labels are a random permutation."""
    perm = rng.permutation(n)
    edges = []
    start = k = 0
    while start < n:
        size = min(sizes[k % len(sizes)], n - start)
        k += 1
        members = perm[start:start + size]
        start += size
        edges.extend(_extra_edges(rng, members, int(chord_ratio * size),
                                  _tree_edges(rng, members)))
    return edges


def hub_graph(rng, n, hubs, leaves, small_sizes):
    """`hubs` stars with `leaves` leaves each, the remaining vertices in planted
    small components. Hubs make sorted-adjacency inserts quadratic in degree.
    Returns (edges, hub vertices, vertices outside the stars)."""
    perm = rng.permutation(n)
    edges = []
    centers = []
    at = 0
    for _ in range(hubs):
        hub = int(perm[at])
        centers.append(hub)
        for leaf in perm[at + 1:at + 1 + leaves]:
            edges.append((min(hub, int(leaf)), max(hub, int(leaf))))
        at += 1 + leaves
    rest = perm[at:]
    start = k = 0
    while start < len(rest):
        size = min(small_sizes[k % len(small_sizes)], len(rest) - start)
        k += 1
        edges.extend(_tree_edges(rng, rest[start:start + size]))
        start += size
    return edges, centers, [int(v) for v in rest]


def connected_weighted(rng, n, extra, max_weight):
    """Random spanning tree plus `extra` chords, integer weights in 1..max_weight.
    Returns a list of (u, v, weight)."""
    edges = _extra_edges(rng, np.arange(n), extra, _tree_edges(rng, rng.permutation(n)))
    weights = rng.integers(1, max_weight + 1, size=len(edges))
    return [(u, v, int(w)) for (u, v), w in zip(edges, weights)]


def zipf_items(rng, universe, m, a):
    ranks = np.arange(1, universe + 1, dtype=np.float64)
    probs = ranks ** -a
    probs /= probs.sum()
    return [int(x) for x in rng.choice(universe, size=m, p=probs)]


def uniform_items(rng, universe, m):
    return [int(x) for x in rng.integers(0, universe, size=m)]


def relabeled_items(rng, universe, m):
    """A fixed uniform sequence (drawn from seed 0) under a random relabeling
    of the universe: every distinct-count statistic of every suffix, and so
    the work of a smooth histogram over it, is the same for all seeds."""
    base = np.random.default_rng(0).integers(0, universe, size=m)
    labels = rng.permutation(universe)
    return [int(labels[x]) for x in base]


def turnstile_updates(rng, universe, m):
    items = rng.integers(0, universe, size=m)
    deltas = rng.choice((-1, 1), size=m)
    return [(int(i), int(d)) for i, d in zip(items, deltas)]


def knapsack_items(rng, n):
    """n items whose sizes and values are random permutations of fixed
    multisets (sizes 1..11, values 5..40), capacity 40% of the total size.
    The FPTAS's table size depends only on the multisets, so its cost does
    not move with the seed; the optimum does."""
    sizes = [int(s) for s in rng.permutation([1 + (10 * i) // (n - 1) for i in range(n)])]
    values = [int(v) for v in rng.permutation([5 + (35 * i) // (n - 1) for i in range(n)])]
    return int(sum(sizes) * 0.4), sizes, values


def write_graph(path, n, edges, max_weight=None):
    """edges are (u, v) pairs, or (u, v, weight) triples when max_weight is set."""
    if max_weight is None:
        lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    else:
        lines = [f"{n} {len(edges)} {max_weight}"] + [f"{u} {v} {w}" for u, v, w in edges]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_stream(path, universe, updates, mode):
    lines = [f"{universe} {len(updates)} {mode}"] + [f"{i} {d}" for i, d in updates]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_knapsack(path, capacity, sizes, values):
    lines = [f"{len(sizes)} {capacity}"] + [f"{s} {v}" for s, v in zip(sizes, values)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
