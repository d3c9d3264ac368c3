"""Sublinear graph estimators with query accounting, plus their exact oracles.

cc_estimate approximates the number of connected components to additive
kappa*n by bounded-depth BFS from sampled vertices; cc_median takes the
median of several runs, sized by cc_knobs, and is the one median-boosted
count that both the cc_estimate substrate and mst_weight_estimate use.
mst_weight_estimate reduces MST weight on integer-weighted graphs to
component counts of bounded-weight subgraphs. Both record how much of the
graph they touched through a QueryGraph, whose counter is the substance of
the sublinearity claims: the budget depends only on the accuracy knobs,
never on n or m.

cc_exact and mst_weight_exact are the ground-truth counterparts used for
calibration and testing.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from .graphs import Graph, connected_components_exact, kruskal_mst_weight
from .mechanisms import median_replicas

__all__ = [
    "QueryGraph",
    "CcEstimateParams",
    "cc_exact",
    "cc_estimate",
    "cc_knobs",
    "cc_median",
    "mst_weight_exact",
    "mst_weight_estimate",
]


class QueryGraph:
    """Adjacency-query view of a Graph that counts every probe.

    degree(u) and neighbor(u, i) cost one query each; they are the per-probe
    model of the query meter, which the tests use. The truncated BFS of
    cc_estimate reads the graph's cached rows directly and adds to the
    counter, in bulk, what those probes would cost. The counter persists
    across calls so a trial harness can difference it around a run.

    A view also remembers the truncated-BFS size of every (start, cap) pair
    cc_estimate has probed through it, in sizes[cap][start], an int64 array
    over the vertices that holds 0 for a start not yet probed. Graphs are
    immutable and the size is min(|component(start)|, cap), so a view probes
    each pair once, however many cc_estimate runs share it, and the counter
    holds the probes actually made.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self.queries = 0
        self.sizes = {}

    @property
    def n(self) -> int:
        return self.graph.n

    def degree(self, u: int) -> int:
        self.queries += 1
        return self.graph.degree(u)

    def neighbor(self, u: int, i: int) -> int:
        self.queries += 1
        return self.graph.neighbors(u)[i]


def _query_view(g) -> QueryGraph:
    """g itself when it is a QueryGraph, else a fresh view of the Graph g."""
    return g if isinstance(g, QueryGraph) else QueryGraph(g)


@dataclass
class CcEstimateParams:
    """Knobs for cc_estimate: additive error kappa*n, failure <= 1/3.

    kappa is a fraction of n in (0, 1]. sample_count and bfs_cap are derived:
    s = ceil(4/kappa^2) sampled start vertices and a BFS truncation threshold
    of ceil(2/kappa) discovered vertices. A single run fails with probability
    at most 1/3 by Chebyshev; callers that need less take the median of
    several runs with cc_median.
    """

    kappa: float
    sample_count: int = field(init=False)
    bfs_cap: int = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.kappa <= 1.0):
            raise ValueError(f"kappa must lie in (0, 1], got {self.kappa!r}")
        self.sample_count = int(math.ceil(4.0 / self.kappa ** 2))
        self.bfs_cap = int(math.ceil(2.0 / self.kappa))

    @property
    def max_queries(self) -> int:
        """Worst-case query count of one cc_estimate run: s * cap * (cap + 1)."""
        return self.sample_count * self.bfs_cap * (self.bfs_cap + 1)


def cc_exact(g) -> int:
    """Exact number of connected components (full traversal, not counted)."""
    return len(connected_components_exact(_query_view(g).graph))


def mst_weight_exact(g) -> int:
    """Exact MST weight via Kruskal; raises ValueError when disconnected."""
    return kruskal_mst_weight(_query_view(g).graph)


def _truncated_component_size(qg: QueryGraph, start: int, cap: int) -> int:
    """Discovered-vertex count of BFS from start, truncated at cap.

    The scan costs qg what probing each vertex's degree(u) and then
    neighbor(u, 0), neighbor(u, 1), ... would: one query per degree and one
    per neighbour read, added in bulk. It stops dead the moment cap vertices
    are discovered, so a single BFS costs at most cap^2 + cap - 1 queries:
    <= cap degree probes, <= cap - 1 probes that discover a new vertex, and
    <= cap*(cap-1) probes landing on an already-seen vertex (one per ordered
    pair).
    """
    if cap <= 1:
        return 1
    indptr, indices = qg.graph._rows
    seen = {start}
    queue = [start]
    queries = 0
    for u in queue:
        lo = indptr[u]
        hi = indptr[u + 1]
        if hi - lo > cap:
            # At most len(seen) entries of a row are seen vertices, so its
            # first cap entries hold enough new ones to reach the cap: the
            # scan returns inside this cut.
            hi = lo + cap
        for v in indices[lo:hi]:
            if v not in seen:
                seen.add(v)
                if len(seen) >= cap:
                    # One degree probe, and the row read up to and including v.
                    qg.queries += queries + 1 + indices.index(v, lo) - lo + 1
                    return cap
                queue.append(v)
        queries += 1 + hi - lo
    qg.queries += queries
    return len(seen)


# Starts are summed in chunks of this many, to bound the memory of the sum.
_SUM_CHUNK = 1 << 16


def cc_estimate(g, params: CcEstimateParams, rng) -> float:
    """Estimate the component count to additive kappa*n, sublinearly.

    Samples s = params.sample_count start vertices uniformly with
    replacement; for each, a BFS truncated at bfs_cap discovered vertices
    yields c_i = min(|component(u_i)|, bfs_cap). Returns (n/s) * sum(1/c_i),
    which always lies in [n/bfs_cap, n] and satisfies |estimate - C| <= kappa*n
    with probability >= 2/3 (cc_median drives it lower). Total query cost
    is < params.max_queries regardless of the graph.

    A start the view has already probed at this cap reuses its size (see
    QueryGraph), so runs that share a view pay only for the starts new to
    it, and the counter reports the probes actually made. The rng draws the
    starts and nothing else, so the memo changes no output. The 1/c_i are
    added strictly left to right in draw order (np.add.accumulate), so the
    sum is the same float as a running `total += 1.0 / c` loop.
    """
    qg = _query_view(g)
    n = qg.n
    if n == 0:
        return 0.0
    cap = params.bfs_cap
    sizes = qg.sizes.get(cap)
    if sizes is None:
        sizes = qg.sizes[cap] = np.zeros(n, dtype=np.int64)
    starts = rng.integers(0, n, size=params.sample_count)
    drawn = np.flatnonzero(np.bincount(starts))
    new = drawn[sizes[drawn] == 0].tolist()
    sizes[new] = [_truncated_component_size(qg, u, cap) for u in new]
    inv_sum = 0.0
    for lo in range(0, starts.size, _SUM_CHUNK):
        terms = 1.0 / sizes[starts[lo:lo + _SUM_CHUNK]]
        terms[0] += inv_sum
        inv_sum = float(np.add.accumulate(terms)[-1])
    return n * inv_sum / params.sample_count


def cc_knobs(kappa: float, fail_prob: float):
    """(params, replicas) of cc_median for additive error kappa*n (kappa
    capped at 1) with probability at least 1 - fail_prob: the median of
    median_replicas(fail_prob) runs. At most replicas * params.max_queries
    queries."""
    return CcEstimateParams(kappa=min(kappa, 1.0)), median_replicas(fail_prob)


def cc_median(g, knobs, rng) -> float:
    """The median of the cc_estimate runs that knobs = cc_knobs(...) asks for,
    on g. Pass a QueryGraph so the runs share one memo of probed starts."""
    params, replicas = knobs
    return statistics.median([cc_estimate(g, params, rng) for _ in range(replicas)])


def mst_weight_estimate(g, alpha: float, fail_prob: float, rng) -> float:
    """Estimate MST weight on a connected graph with integer weights in [1, w].

    Uses the identity MST = n - w + sum_{i=1}^{w-1} C^(i), where C^(i) counts
    components of the subgraph keeping edges of weight <= i. Each C^(i) is
    cc_median at per-level additive target kappa_i = alpha/(2w) and per-level
    failure fail_prob/w, so the total is a (1 +/- alpha) approximation with
    probability >= 1 - fail_prob. Rejects disconnected inputs and
    out-of-range weights. w = 1 forces weight n - 1 with no queries.

    Each level gets its own QueryGraph, so the replicas of one level share
    one memo of probed starts. The connectivity precheck is a full O(n + m)
    traversal of the graph that the query meter does not count.
    """
    qg = _query_view(g)
    graph = qg.graph
    if graph.max_weight is None:
        raise ValueError("mst_weight_estimate needs a weighted graph with a declared bound")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if not (0.0 < fail_prob < 1.0):
        raise ValueError(f"fail_prob must lie in (0, 1), got {fail_prob!r}")
    if len(connected_components_exact(graph)) != 1:
        raise ValueError("graph is disconnected, MST weight is undefined")
    w = graph.max_weight
    n = graph.n
    if w == 1:
        return float(n - 1)
    knobs = cc_knobs(alpha / (2.0 * w), fail_prob / w)
    total = float(n - w)
    for i in range(1, w):
        sub = QueryGraph(graph.subgraph_weight_at_most(i))
        total += cc_median(sub, knobs, rng)
        qg.queries += sub.queries
    return total
