"""Shared builders for the test suite: random graphs, streams, instances."""

from __future__ import annotations

import itertools

import numpy as np

from dpbox.graph_estimators import QueryGraph
from dpbox.graphs import Graph, connected_components_exact
from dpbox.knapsack import KnapsackInstance
from dpbox.streams import UpdateStream


def random_graph(n: int, m: int, rng, max_weight=None) -> Graph:
    """Random simple graph with exactly m edges (m capped at n choose 2)."""
    all_pairs = list(itertools.combinations(range(n), 2))
    m = min(m, len(all_pairs))
    chosen = rng.choice(len(all_pairs), size=m, replace=False)
    weights = {}
    for idx in chosen:
        weights[all_pairs[int(idx)]] = (1 if max_weight is None
                                        else int(rng.integers(1, max_weight + 1)))
    return Graph(n, weights, weights, max_weight)


def capped_component_sizes(g: Graph, cap: int):
    """min(|C(v)|, cap) for every vertex v, from the exact component labelling."""
    sizes = [0] * g.n
    for comp in connected_components_exact(g):
        for v in comp:
            sizes[v] = min(len(comp), cap)
    return sizes


def replay_memo_bfs(g: Graph, cap: int, draws):
    """Slow replay, probe by probe, of cc_estimate runs at cap that share one
    view: draws holds each run's drawn starts. Returns (queries, sizes), the
    view's meter and a dict of every sized vertex's size.

    Each run takes its distinct starts in increasing order and runs one BFS
    from each that no earlier BFS has sized. The BFS probes degree(u), then
    neighbor(u, 0), neighbor(u, 1), ..., and stops at the cap-th vertex it
    discovers (size cap) or at the first vertex it discovers that is already
    sized (that size); otherwise its size is the number it discovered. Every
    vertex it discovered gets its size."""
    qg = QueryGraph(g)
    sizes = {}
    for starts in draws:
        for start in sorted(set(starts)):
            if start in sizes:
                continue
            seen = [start]
            size = None
            for u in seen:
                for i in range(qg.degree(u)):
                    v = qg.neighbor(u, i)
                    if v in seen:
                        continue
                    if v in sizes:
                        size = sizes[v]
                        break
                    seen.append(v)
                    if len(seen) == cap:
                        size = cap
                        break
                if size is not None:
                    break
            for v in seen:
                sizes[v] = len(seen) if size is None else size
    return qg.queries, sizes


def random_connected_graph(n: int, extra: int, rng, max_weight=None) -> Graph:
    """Random spanning tree plus `extra` additional random edges."""
    weights = {}
    order = rng.permutation(n)
    for i in range(1, n):
        u = int(order[i])
        v = int(order[int(rng.integers(i))])
        w = 1 if max_weight is None else int(rng.integers(1, max_weight + 1))
        weights[(min(u, v), max(u, v))] = w
    added = 0
    attempts = 0
    while added < extra and attempts < 20 * extra + 100:
        attempts += 1
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u == v or (min(u, v), max(u, v)) in weights:
            continue
        w = 1 if max_weight is None else int(rng.integers(1, max_weight + 1))
        weights[(min(u, v), max(u, v))] = w
        added += 1
    return Graph(n, weights, weights, max_weight)


def random_stream(universe: int, m: int, mode: str, rng) -> UpdateStream:
    items = rng.integers(0, universe, size=m)
    if mode == "insert":
        updates = [(int(it), 1) for it in items]
    else:
        deltas = rng.choice((-1, 1), size=m)
        updates = [(int(it), int(d)) for it, d in zip(items, deltas)]
    return UpdateStream(universe_size=universe, updates=updates, mode=mode)


def random_knapsack(n: int, rng, integer_values: bool = True) -> KnapsackInstance:
    sizes = [int(rng.integers(1, 12)) for _ in range(n)]
    capacity = max(1, int(sum(sizes) * 0.4))
    if integer_values:
        values = [float(rng.integers(0, 40)) for _ in range(n)]
    else:
        values = [float(rng.random() * 40.0) for _ in range(n)]
    return KnapsackInstance(capacity=capacity, sizes=sizes, values=values)


def brute_force_knapsack(inst: KnapsackInstance) -> float:
    """Exhaustive optimum over all item subsets; only for small n."""
    best = 0.0
    for mask in range(1 << inst.n):
        size = value = 0.0
        for i in range(inst.n):
            if mask >> i & 1:
                size += inst.sizes[i]
                value += inst.values[i]
        if size <= inst.capacity and value > best:
            best = value
    return best


def all_graphs_up_to(n_max: int):
    """Yield (n, edge_mask, Graph) for every graph on n <= n_max vertices."""
    for n in range(1, n_max + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            yield n, mask, Graph(n, [e for b, e in enumerate(pairs) if mask >> b & 1])


def zipf_stream(universe: int, m: int, rng, a: float = 1.3) -> UpdateStream:
    """Insertion stream with a heavy-tailed item distribution."""
    ranks = np.arange(1, universe + 1, dtype=np.float64)
    probs = ranks ** -a
    probs /= probs.sum()
    items = rng.choice(universe, size=m, p=probs)
    return UpdateStream(universe_size=universe,
                        updates=[(int(it), 1) for it in items], mode="insert")


def mostly(common, rare, odds: int):
    """A hypothesis strategy that draws from common, and from rare about once
    in odds draws."""
    from hypothesis import strategies as st

    return st.integers(1, odds).flatmap(lambda k: rare if k == odds else common)
