"""Sublinear graph estimators with query accounting, plus their exact oracles.

cc_estimate approximates the number of connected components to additive
kappa*n by bounded-depth BFS from sampled vertices; cc_median takes the
median of several runs, sized by cc_knobs, and is the one median-boosted
count that both the cc_estimate substrate and mst_weight_estimate use.
mst_weight_estimate reduces MST weight on integer-weighted graphs to
component counts of bounded-weight subgraphs; an unweighted graph is a graph
of weight bound 1 (Graph.weight_bound), with no subgraph to count. Both
record how much of the graph they touched through a QueryGraph, whose
counter is the substance of the sublinearity claims: the budget depends
only on the accuracy knobs, never on n or m.

cc_exact and mst_weight_exact are the ground-truth counterparts used for
calibration and testing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graphs import Graph, connected_components_exact, kruskal_mst_weight
from .mechanisms import _check_accuracy, block_medians, median_replicas
from .streams import _check_bytes

__all__ = [
    "QueryGraph",
    "CcEstimateParams",
    "cc_exact",
    "cc_estimate",
    "cc_knobs",
    "cc_median",
    "mst_level_knobs",
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

    A view also remembers the truncated-BFS sizes cc_estimate finds through
    it: sizes[cap] is an int64 array over the vertices that holds
    min(|component(v)|, cap) at every vertex v that a BFS truncated at cap
    has discovered, and 0 at the rest. It is the one memo of the BFS kernel
    (_size_components), which reads and writes it. The size belongs to the
    component, not to the start, and graphs are immutable, so one BFS sizes
    every vertex it discovers, a sized start costs no query however many
    cc_estimate runs share the view, and the counter holds the probes
    actually made.
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
    """Exact number of connected components (an array labelling of the whole
    graph, not counted)."""
    return len(connected_components_exact(_query_view(g).graph))


def mst_weight_exact(g) -> int:
    """Exact MST weight of the weight-w completion (graphs.kruskal_mst_weight),
    which is the MST weight on a connected graph."""
    return kruskal_mst_weight(_query_view(g).graph)


def _size_components(qg: QueryGraph, starts, cap: int) -> None:
    """Size the component of every start in starts that the view's
    sizes[cap] (see QueryGraph) does not size yet, by BFS truncated at cap,
    and write min(|C(v)|, cap) there for every vertex v each BFS discovers.

    A BFS that stops below cap saw its whole component, so every vertex it
    saw gets len(seen): a start of degree 0 gets 1, for its one degree
    probe. One that reaches cap proves |C| >= cap, so each gets cap. A BFS
    also stops at the first vertex it discovers that sizes[cap] sizes, and
    gives that vertex's size, that of the same component, to every vertex it
    saw. cap is at least 2, as every CcEstimateParams' bfs_cap is. The scan
    costs qg what probing each vertex's degree(u) and then neighbor(u, 0),
    neighbor(u, 1), ... would: one query per degree and one per neighbour
    read, added in bulk. It stops dead at the vertex that ends it, so a
    single BFS costs at most cap^2 + cap - 1 queries: <= cap degree probes,
    <= cap - 1 probes that discover a new vertex, and <= cap*(cap-1) probes
    landing on an already-seen vertex (one per ordered pair).
    """
    memo = memoryview(qg.sizes[cap])
    indptr, indices = qg.graph._rows
    queries = 0
    for start in starts:
        if memo[start]:
            continue
        seen = {start}
        queue = [start]
        size = 0
        for u in queue:
            lo = indptr[u]
            hi = indptr[u + 1]
            if hi - lo > cap:
                # At most len(seen) entries of a row are seen vertices, so its
                # first cap entries hold enough new ones to reach the cap: the
                # scan stops inside this cut.
                hi = lo + cap
            for v in indices[lo:hi]:
                if v not in seen:
                    size = memo[v]
                    if size:
                        break
                    seen.add(v)
                    if len(seen) >= cap:
                        size = cap
                        break
                    queue.append(v)
            if size:
                # One degree probe, and the row read up to and including v.
                queries += 1 + indices.index(v, lo) - lo + 1
                break
            queries += 1 + hi - lo
        size = size or len(seen)
        for v in seen:
            memo[v] = size
    qg.queries += queries


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

    A start the view has already sized at this cap reuses its size (see
    QueryGraph and _size_components), so runs that share a view pay only for
    the components new to it, and the counter reports the probes actually
    made. The view's sizes[cap] is read at the s drawn starts only; the
    unsized ones are listed, once each and in increasing order, only when
    there are any, and each one that no earlier BFS of the call has sized
    runs one BFS. The rng draws the starts and nothing else, and every stored
    size is min(|C|, cap), so the memo changes no output. The 1/c_i are added
    strictly left to right in draw order (np.add.accumulate), so the sum is
    the same float as a running `total += 1.0 / c` loop.
    """
    qg = _query_view(g)
    n = qg.n
    if n == 0:
        return 0.0
    cap = params.bfs_cap
    _check_bytes(8 * params.sample_count,
                 f"cc_estimate with {params.sample_count} sampled starts", "start vertices")
    sizes = qg.sizes.get(cap)
    if sizes is None:
        sizes = qg.sizes[cap] = np.zeros(n, dtype=np.int64)
    starts = rng.integers(0, n, size=params.sample_count)
    fresh = starts[sizes[starts] == 0]
    if fresh.size:
        _size_components(qg, np.flatnonzero(np.bincount(fresh)).tolist(), cap)
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
    on g. Pass a QueryGraph so the runs share one memo of sized vertices."""
    params, replicas = knobs
    runs = np.array([cc_estimate(g, params, rng) for _ in range(replicas)])
    return float(block_medians(runs, replicas)[0])


def mst_level_knobs(alpha: float, fail_prob: float, w: int):
    """cc_knobs of each of the w - 1 levels of mst_weight_estimate: additive
    error alpha/(2w) of the vertices, failure fail_prob/w."""
    return cc_knobs(alpha / (2.0 * w), fail_prob / w)


def mst_weight_estimate(g, alpha: float, fail_prob: float, rng) -> float:
    """Estimate the MST weight of the weight-w completion of a graph with
    integer weights in [1, w], w = Graph.weight_bound (see
    graphs.kruskal_mst_weight): the MST weight on a connected graph.

    Uses the identity MST = n - w + sum_{i=1}^{w-1} C^(i), where C^(i) counts
    components of the subgraph keeping edges of weight <= i (Chazelle,
    Rubinfeld & Trevisan), which holds for the completion of every graph. Each
    C^(i) is cc_median at per-level additive target kappa_i = alpha/(2w) and
    per-level failure fail_prob/w, so the total is a (1 +/- alpha)
    approximation with probability >= 1 - fail_prob. At w = 1, which an
    unweighted graph has, there is no level, and the estimate is n - 1 with
    no query. A graph with no vertices gets 0.

    Each level gets its own QueryGraph, so the replicas of one level share
    one memo of sized vertices.
    """
    qg = _query_view(g)
    graph = qg.graph
    _check_accuracy(alpha, fail_prob)
    w = graph.weight_bound
    n = graph.n
    if n == 0:
        return 0.0
    knobs = mst_level_knobs(alpha, fail_prob, w)
    total = float(n - w)
    for i in range(1, w):
        sub = QueryGraph(graph.subgraph_weight_at_most(i))
        total += cc_median(sub, knobs, rng)
        qg.queries += sub.queries
    return total
