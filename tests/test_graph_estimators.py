import math

import pytest

from dpbox.graph_estimators import (CcEstimateParams, QueryGraph, cc_estimate,
                                    cc_exact, mst_weight_estimate,
                                    mst_weight_exact)
from dpbox.graph_estimators import _truncated_component_size
from dpbox.graphs import Graph, connected_components_exact, kruskal_mst_weight, load_graph
from dpbox.noise import make_rng
from helpers import random_connected_graph, random_graph


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
        for cap in (1, 2, 3, 5, 8):
            for start in range(0, g.n, 7):
                qg = QueryGraph(g)
                c = _truncated_component_size(qg, start, cap)
                true_size = len(next(comp for comp in
                                     connected_components_exact(g)
                                     if start in comp))
                assert c == min(true_size, cap)
                # Strict per-scan budget: cap^2 + cap - 1 probes.
                assert qg.queries <= cap * cap + cap - 1


def test_truncated_bfs_cap_one_is_free():
    qg = QueryGraph(triangle_plus_isolated())
    assert _truncated_component_size(qg, 0, 1) == 1
    assert qg.queries == 0


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
    unweighted = random_connected_graph(10, 5, rng)
    with pytest.raises(ValueError):
        mst_weight_estimate(unweighted, 0.2, 0.1, rng)
    disconnected = Graph(4, [(0, 1)], {(0, 1): 1}, max_weight=2)
    with pytest.raises(ValueError):
        mst_weight_estimate(disconnected, 0.2, 0.1, rng)
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
