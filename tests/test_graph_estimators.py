import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpbox.graph_estimators import (CcEstimateParams, QueryGraph, cc_estimate,
                                    cc_exact, mst_weight_estimate,
                                    mst_weight_exact)
from dpbox.graph_estimators import _size_components
from dpbox.graphs import Graph, kruskal_mst_weight, load_graph
from dpbox.noise import make_rng
from helpers import (capped_component_sizes, random_connected_graph, random_graph,
                     replay_memo_bfs)


def triangle_plus_isolated() -> Graph:
    return Graph(6, [(0, 1), (1, 2), (0, 2)])


# ---------------------------------------------------------------- queries


def test_query_graph_counts_every_probe():
    qg = QueryGraph(Graph(3, [(0, 1)]))
    assert qg.queries == 0
    assert qg.degree(0) == 1
    assert qg.neighbor(0, 0) == 1
    assert qg.degree(2) == 0
    assert qg.queries == 3
    assert qg.n == 3


def bfs_size(g: Graph, start: int, cap: int):
    """(size, queries) of one truncated BFS from start, on a fresh view."""
    qg = QueryGraph(g)
    qg.sizes[cap] = np.zeros(g.n, dtype=np.int64)
    _size_components(qg, [start], cap)
    return int(qg.sizes[cap][start]), qg.queries


def test_truncated_bfs_respects_cap_and_budget():
    rng = make_rng(31)
    shapes = []
    # Clique, star, path, and random graphs all stress different probe mixes.
    shapes.append(Graph(25, [(u, v) for u in range(25) for v in range(u + 1, 25)]))
    shapes.append(Graph(31, [(0, v) for v in range(1, 31)]))
    shapes.append(Graph(40, [(v, v + 1) for v in range(39)]))
    for _ in range(10):
        shapes.append(random_graph(30, int(rng.integers(0, 90)), rng))

    for g in shapes:
        for cap in (2, 3, 5, 8):
            truth = capped_component_sizes(g, cap)
            for start in range(0, g.n, 7):
                c, queries = bfs_size(g, start, cap)
                assert c == truth[start]
                # Strict per-scan budget: cap^2 + cap - 1 probes.
                assert queries <= cap * cap + cap - 1


# ---------------------------------------------------------------- cc


def test_cc_exact_values():
    assert cc_exact(triangle_plus_isolated()) == 4
    assert cc_exact(Graph(5)) == 5
    assert cc_exact(load_graph("data/demo_cc.graph")) == 3


def test_cc_estimate_exact_on_edgeless_graph():
    # Every truncated BFS sees exactly one vertex, so the estimate telescopes
    # to n with no error at all.
    g = Graph(50)
    params = CcEstimateParams(kappa=0.5)
    est = cc_estimate(g, params, make_rng(0))
    assert est == 50.0


def test_cc_estimate_empty_graph():
    assert cc_estimate(Graph(0), CcEstimateParams(kappa=0.5), make_rng(0)) == 0.0


def test_cc_estimate_range_invariant():
    rng = make_rng(32)
    for _ in range(20):
        n = int(rng.integers(5, 60))
        g = random_graph(n, int(rng.integers(0, 2 * n)), rng)
        for kappa in (0.3, 0.6, 1.0):
            params = CcEstimateParams(kappa=kappa)
            est = cc_estimate(g, params, rng)
            assert n / params.bfs_cap - 1e-9 <= est <= n + 1e-9


def test_cc_estimate_query_budget_every_run():
    rng = make_rng(33)
    for _ in range(15):
        n = int(rng.integers(10, 80))
        g = random_graph(n, int(rng.integers(0, 3 * n)), rng)
        for kappa in (0.4, 0.8):
            params = CcEstimateParams(kappa=kappa)
            qg = QueryGraph(g)
            cc_estimate(qg, params, rng)
            budget = params.sample_count * params.bfs_cap * (params.bfs_cap + 1)
            assert qg.queries <= budget


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 60), m=st.integers(0, 180), kappa=st.floats(0.1, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_cc_estimate_memo_matches_memo_free_loop(n, m, kappa, seed):
    g = random_graph(n, m, make_rng(seed))
    params = CcEstimateParams(kappa=kappa)
    qg = QueryGraph(g)
    value = cc_estimate(qg, params, make_rng(seed, 1))
    # Memo-free reference over the same draws: every start's min(|C|, cap)
    # comes from the exact labelling, and 1/c is summed in draw order.
    starts = make_rng(seed, 1).integers(0, n, size=params.sample_count).tolist()
    truth = capped_component_sizes(g, params.bfs_cap)
    inv_sum = 0.0
    for u in starts:
        inv_sum += 1.0 / truth[u]
    assert value.hex() == (n * inv_sum / params.sample_count).hex()
    # The view paid for the BFS the memo rule runs (one BFS sizes every
    # vertex it discovers).
    probes = replay_memo_bfs(g, params.bfs_cap, [starts])[0]
    assert qg.queries == probes <= params.max_queries
    # A second run from the same seed finds every start in the memo.
    assert cc_estimate(qg, params, make_rng(seed, 1)).hex() == value.hex()
    assert qg.queries == probes


@settings(max_examples=120, deadline=None)
@given(n=st.integers(1, 40), m=st.integers(0, 90), cap=st.sampled_from((2, 3, 5, 8, 20)),
       sample_count=st.integers(1, 40), runs=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_cc_estimate_sizes_every_vertex_its_bfs_discovers(n, m, cap, sample_count, runs, seed):
    g = random_graph(n, m, make_rng(seed))
    params = CcEstimateParams(kappa=1.0)
    params.sample_count, params.bfs_cap = sample_count, cap
    qg = QueryGraph(g)
    truth = capped_component_sizes(g, cap)
    rng, twin = make_rng(seed, 1), make_rng(seed, 1)
    draws = []
    for _ in range(runs):
        value = cc_estimate(qg, params, rng)
        starts = twin.integers(0, n, size=sample_count).tolist()
        draws.append(starts)
        inv_sum = 0.0
        for u in starts:
            inv_sum += 1.0 / truth[u]
        assert value.hex() == (n * inv_sum / sample_count).hex()
    sizes = qg.sizes[cap].tolist()
    assert all(sizes[u] for starts in draws for u in starts)
    assert all(size in (0, truth[v]) for v, size in enumerate(sizes))
    queries, replayed = replay_memo_bfs(g, cap, draws)
    assert {v: size for v, size in enumerate(sizes) if size} == replayed
    assert qg.queries == queries
    # At most one fresh BFS per distinct start, as a start-only memo paid.
    assert qg.queries <= sum(replay_memo_bfs(g, cap, [[u]])[0] for u in set().union(*draws))


def test_cc_estimate_sum_is_the_running_sum_across_chunks():
    # 111,112 starts span two summation chunks; the value must still be the
    # float a running `inv_sum += 1.0 / c` loop in draw order gives.
    g = random_graph(300, 250, make_rng(43))
    params = CcEstimateParams(kappa=0.006)
    assert params.sample_count > 65_536
    value = cc_estimate(g, params, make_rng(44))
    truth = capped_component_sizes(g, params.bfs_cap)
    inv_sum = 0.0
    for u in make_rng(44).integers(0, g.n, size=params.sample_count).tolist():
        inv_sum += 1.0 / truth[u]
    assert value.hex() == (g.n * inv_sum / params.sample_count).hex()


def test_cc_estimate_matches_analytic_expectation():
    # E[estimate] = n * mean_u 1/min(|component(u)|, cap), exactly, because
    # starts are uniform. Triangle plus three isolated vertices, kappa = 1:
    # cap = 2, so the mean is (3*(1/2) + 3*1)/6 and E = 4.5.
    g = triangle_plus_isolated()
    params = CcEstimateParams(kappa=1.0)
    assert params.sample_count == 4 and params.bfs_cap == 2
    expected = 6 * (3 * 0.5 + 3 * 1.0) / 6
    rng = make_rng(34)
    trials = 30_000
    total = 0.0
    for _ in range(trials):
        total += cc_estimate(g, params, rng)
    mean = total / trials
    # Per-trial std is 0.75 (each 1/c_i is a fair coin on {1/2, 1}).
    sigma = 0.75 / math.sqrt(trials)
    assert abs(mean - expected) < 3 * sigma


def test_cc_params_validation():
    with pytest.raises(ValueError):
        CcEstimateParams(kappa=0.0)
    with pytest.raises(ValueError):
        CcEstimateParams(kappa=1.5)
    p = CcEstimateParams(kappa=0.1)
    assert p.sample_count == 400
    assert p.bfs_cap == 20
    assert p.max_queries == 400 * 20 * 21


# ---------------------------------------------------------------- mst


def test_mst_exact_matches_kruskal():
    g = random_connected_graph(30, 20, make_rng(35), max_weight=5)
    assert mst_weight_exact(g) == kruskal_mst_weight(g)


def test_mst_component_identity():
    # MST = n - w + sum of component counts of the bounded-weight subgraphs,
    # verified with exact counts against Kruskal.
    rng = make_rng(36)
    for _ in range(40):
        n = int(rng.integers(3, 40))
        w = int(rng.integers(1, 6))
        g = random_connected_graph(n, int(rng.integers(0, 2 * n)), rng,
                                   max_weight=w)
        total = n - w
        for i in range(1, w):
            total += cc_exact(g.subgraph_weight_at_most(i))
        assert total == kruskal_mst_weight(g)


def test_mst_estimate_weight_one_is_exact_and_free():
    g = random_connected_graph(40, 10, make_rng(37), max_weight=1)
    qg = QueryGraph(g)
    est = mst_weight_estimate(qg, 0.5, 0.2, make_rng(0))
    assert est == 39.0
    assert qg.queries == 0


def test_mst_estimate_unit_weight_clique():
    g = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)], max_weight=1)
    assert mst_weight_estimate(g, 0.2, 0.1, make_rng(0)) == 3.0


def test_mst_estimate_accuracy_seeded():
    g = random_connected_graph(120, 100, make_rng(38), max_weight=2)
    truth = kruskal_mst_weight(g)
    qg = QueryGraph(g)
    alpha = 0.3
    est = mst_weight_estimate(qg, alpha, 0.7, make_rng(39))
    assert abs(est - truth) <= alpha * truth
    assert qg.queries > 0


def test_mst_estimate_rejections():
    rng = make_rng(40)
    # An unweighted graph has weight bound 1: no level, no query, n - 1.
    unweighted = QueryGraph(random_connected_graph(10, 5, rng))
    assert mst_weight_estimate(unweighted, 0.2, 0.1, rng) == 9.0
    assert unweighted.queries == 0
    g = random_connected_graph(10, 5, rng, max_weight=2)
    with pytest.raises(ValueError):
        mst_weight_estimate(g, 0.0, 0.1, rng)
    with pytest.raises(ValueError):
        mst_weight_estimate(g, 0.2, 1.0, rng)


def test_mst_estimate_accumulates_queries_into_caller_qg():
    g = random_connected_graph(50, 30, make_rng(41), max_weight=3)
    qg = QueryGraph(g)
    mst_weight_estimate(qg, 0.5, 0.8, make_rng(42))
    assert qg.queries > 0


def test_demo_mst_exact():
    g = load_graph("data/demo_mst.graph")
    assert mst_weight_exact(g) == 10
