import math
import statistics

import pytest

from dpbox.graph_estimators import CcEstimateParams, QueryGraph, cc_estimate
from dpbox.graphs import load_graph, parse_graph
from dpbox.knapsack import knapsack_exact, load_knapsack
from dpbox.mechanisms import ApproxParams, WrapConfig, wrap_cauchy
from dpbox.noise import make_rng
from dpbox.streams import exact_distinct, exact_l2, load_stream
from dpbox.substrates import (
    SUBSTRATE_NAMES,
    dataset_kind,
    default_delta_f,
    exact_value,
    make_substrate,
    query_budget,
)
from helpers import replay_memo_bfs

PARAMS = ApproxParams(alpha=0.3, kappa=0.0, fail_prob=1 / 3)


@pytest.fixture(scope="module")
def demo_cc():
    return load_graph("data/demo_cc.graph")


@pytest.fixture(scope="module")
def demo_mst():
    return load_graph("data/demo_mst.graph")


@pytest.fixture(scope="module")
def demo_knapsack():
    return load_knapsack("data/demo_knapsack.txt")


@pytest.fixture(scope="module")
def demo_insert():
    return load_stream("data/demo_stream_insert.txt")


@pytest.fixture(scope="module")
def demo_turnstile():
    return load_stream("data/demo_stream_turnstile.txt")


def test_substrate_names_are_stable():
    assert SUBSTRATE_NAMES == (
        "cc_estimate",
        "cc_exact",
        "f0_exact",
        "f0_kmv",
        "knapsack",
        "l2_ams",
        "l2_exact",
        "mst_estimate",
        "mst_exact",
        "sw_de",
    )


def test_dataset_kinds():
    assert dataset_kind("cc_exact") == "graph"
    assert dataset_kind("cc_estimate") == "graph"
    assert dataset_kind("mst_exact") == "graph"
    assert dataset_kind("mst_estimate") == "graph"
    assert dataset_kind("knapsack") == "knapsack"
    for name in ("l2_exact", "l2_ams", "f0_exact", "f0_kmv", "sw_de"):
        assert dataset_kind(name) == "stream"
    with pytest.raises(ValueError):
        dataset_kind("nope")
    with pytest.raises(ValueError):
        make_substrate("nope")


def test_cc_exact_substrate(demo_cc):
    sub = make_substrate("cc_exact")
    assert sub.is_deterministic
    assert sub.evaluate(demo_cc, PARAMS, make_rng(0)) == (3.0, {})


def test_cc_estimate_substrate_uses_kappa(demo_cc):
    sub = make_substrate("cc_estimate")
    assert not sub.is_deterministic
    params = ApproxParams(alpha=0.0, kappa=6.0, fail_prob=1 / 3)
    value, cost = sub.evaluate(demo_cc, params, make_rng(3))
    assert 0.0 < value <= demo_cc.n
    assert cost["queries"] > 0
    with pytest.raises(ValueError):
        sub.evaluate(demo_cc, ApproxParams(0.0, 0.0, 1 / 3), make_rng(0))


def test_cc_estimate_boosts_on_small_fail_prob(demo_cc):
    sub = make_substrate("cc_estimate")
    _, relaxed = sub.evaluate(demo_cc, ApproxParams(0.0, 6.0, 1 / 3), make_rng(5))
    value, boosted = sub.evaluate(demo_cc, ApproxParams(0.0, 6.0, 0.05), make_rng(5))
    # 0.05 needs 67 replicas at kappa 6/12, drawn from the same rng. They
    # share one view, whose BFS size every vertex they discover, so the meter
    # reads the probes of the memo rule replayed over the 67 replicas' draws.
    params = CcEstimateParams(kappa=0.5)
    rng = make_rng(5)
    draws = [rng.integers(0, demo_cc.n, size=params.sample_count).tolist() for _ in range(67)]
    probes = replay_memo_bfs(demo_cc, params.bfs_cap, draws)[0]
    assert boosted["queries"] == probes
    assert boosted["queries"] >= relaxed["queries"]
    # The value is the median of 67 runs at kappa 6/12 drawn from the same rng.
    rng = make_rng(5)
    runs = [cc_estimate(QueryGraph(demo_cc), CcEstimateParams(kappa=0.5), rng)
            for _ in range(67)]
    assert value == statistics.median(runs)


def test_mst_substrates(demo_mst):
    exact = make_substrate("mst_exact")
    assert exact.evaluate(demo_mst, PARAMS, make_rng(0)) == (10.0, {})
    est = make_substrate("mst_estimate")
    truth = 10.0
    value, cost = est.evaluate(demo_mst, ApproxParams(0.5, 0.0, 0.7), make_rng(2))
    assert abs(value - truth) <= 0.5 * truth
    assert cost["queries"] > 0
    with pytest.raises(ValueError):
        est.evaluate(demo_mst, ApproxParams(0.0, 0.0, 0.7), make_rng(0))


def test_knapsack_substrate(demo_knapsack):
    sub = make_substrate("knapsack")
    assert sub.is_deterministic
    opt = knapsack_exact(demo_knapsack)
    value, _ = sub.evaluate(demo_knapsack, ApproxParams(0.1, 0.0, 1 / 3),
                            make_rng(0))
    assert (1 - 0.1) * opt <= value <= opt


def test_l2_substrates(demo_turnstile):
    truth = exact_l2(demo_turnstile)
    exact = make_substrate("l2_exact")
    items = {"items": demo_turnstile.length}
    assert exact.evaluate(demo_turnstile, PARAMS, make_rng(0)) == (truth, items)
    sketched = make_substrate("l2_ams")
    value, cost = sketched.evaluate(demo_turnstile,
                                    ApproxParams(0.3, 0.0, 0.05), make_rng(11))
    assert abs(value - truth) <= 0.3 * truth
    assert cost["space_words"] > 0
    # alpha=0 falls back to the exact recount and meters the items seen.
    assert sketched.evaluate(demo_turnstile, ApproxParams(0.0, 0.0, 0.05),
                             make_rng(0)) == (truth, items)


def test_f0_substrates(demo_insert):
    truth = float(exact_distinct(demo_insert))
    exact = make_substrate("f0_exact")
    items = {"items": demo_insert.length}
    assert exact.evaluate(demo_insert, PARAMS, make_rng(0)) == (truth, items)
    sketched = make_substrate("f0_kmv")
    value, cost = sketched.evaluate(demo_insert, ApproxParams(0.3, 0.0, 0.05),
                                    make_rng(4))
    assert abs(value - truth) <= 0.3 * truth
    assert cost["space_words"] > 0
    assert sketched.evaluate(demo_insert, ApproxParams(0.0, 0.0, 0.05),
                             make_rng(0)) == (truth, items)


def test_sw_de_substrate(demo_insert):
    sub = make_substrate("sw_de", {"window": 50})
    truth = float(len(set(demo_insert.items.tolist()[-50:])))
    brute = sub.evaluate(demo_insert, ApproxParams(0.0, 0.0, 0.05),
                         make_rng(0))
    assert brute == (truth, {"items": demo_insert.length})
    approx, _ = sub.evaluate(demo_insert, ApproxParams(0.5, 0.0, 0.05),
                             make_rng(8))
    assert abs(approx - truth) <= 0.5 * truth


def test_sw_de_rejects_turnstile(demo_turnstile):
    sub = make_substrate("sw_de", {"window": 10})
    with pytest.raises(ValueError):
        sub.evaluate(demo_turnstile, PARAMS, make_rng(0))


def test_exact_values_match_demos(demo_cc, demo_mst, demo_knapsack,
                                  demo_insert, demo_turnstile):
    assert exact_value("cc_exact", demo_cc) == 3.0
    assert exact_value("cc_estimate", demo_cc) == 3.0
    assert exact_value("mst_exact", demo_mst) == 10.0
    assert exact_value("knapsack", demo_knapsack) == knapsack_exact(
        demo_knapsack)
    assert exact_value("l2_exact", demo_turnstile) == exact_l2(demo_turnstile)
    assert exact_value("f0_exact", demo_insert) == 30.0
    assert exact_value("sw_de", demo_insert, {"window": 50}) == float(
        len(set(demo_insert.items.tolist()[-50:])))
    # The oracles return ints for counts; exact_value hands out a float, which
    # `dpb coverage` prints as "exact".
    datasets = {"graph": demo_mst, "stream": demo_insert, "knapsack": demo_knapsack}
    for name in SUBSTRATE_NAMES:
        assert type(exact_value(name, datasets[dataset_kind(name)], {"window": 10})) is float


def test_default_delta_f(demo_cc, demo_mst, demo_knapsack, demo_insert):
    assert default_delta_f("cc_estimate", demo_cc) == 2.0
    assert default_delta_f("sw_de", demo_insert) == 2.0
    assert default_delta_f("mst_exact", demo_mst) == 3.0
    assert default_delta_f("mst_exact", demo_cc) is None  # unweighted
    assert default_delta_f("knapsack", demo_knapsack) is None


def test_query_budget_bounds_every_evaluation(demo_cc, demo_mst, demo_insert):
    params = ApproxParams(0.0, 6.0, 0.005)
    budget = query_budget("cc_estimate", demo_cc, params)
    # kappa 6 of 12 vertices: 16 scans capped at 4, 108 replicas.
    assert budget == 108 * 16 * 4 * 5
    sub = make_substrate("cc_estimate")
    for seed in range(3):
        assert sub.evaluate(demo_cc, params, make_rng(seed))[1]["queries"] <= budget
    assert query_budget("cc_estimate", demo_cc, ApproxParams(0.0, 0.0, 0.005)) == math.inf
    params = ApproxParams(0.5, 0.0, 0.7)
    budget = query_budget("mst_estimate", demo_mst, params)
    # w - 1 = 2 levels of kappa 0.5/6: 576 scans capped at 24, 53 replicas for
    # level failure (1/3)/3, the fail probability being capped at 1/3.
    assert budget == 2 * 53 * 576 * 24 * 25
    assert make_substrate("mst_estimate").evaluate(
        demo_mst, params, make_rng(2))[1]["queries"] <= budget
    assert query_budget("f0_kmv", demo_insert, params) == math.inf
    assert query_budget("cc_exact", demo_cc, params) == math.inf


def test_cc_estimate_on_empty_graph():
    # No vertices: the substrate answers 0 without a query, as cc_estimate does,
    # and its budget is 0 rather than a division by n.
    empty = parse_graph("0 0\n")
    params = ApproxParams(0.0, 1.0, 0.005)
    assert make_substrate("cc_estimate").evaluate(empty, params, make_rng(0)) == \
        (0.0, {"queries": 0})
    assert query_budget("cc_estimate", empty, params) == 0


def test_window_must_be_an_integer_of_at_least_1(demo_insert):
    params = ApproxParams(0.0, 0.0, 0.05)
    for config in ({}, {"window": 0}, {"window": -3}, {"window": 2.5}, {"window": "50"},
                   {"window": True}):
        with pytest.raises(ValueError, match="window"):
            make_substrate("sw_de", config).evaluate(demo_insert, params, make_rng(0))
        with pytest.raises(ValueError, match="window"):
            exact_value("sw_de", demo_insert, config)


@pytest.mark.parametrize("name", [n for n in SUBSTRATE_NAMES if n != "sw_de"])
def test_a_window_is_refused_by_every_substrate_that_does_not_read_it(name):
    with pytest.raises(ValueError) as err:
        make_substrate(name, {"window": 3})
    assert str(err.value) == f"substrate {name!r} does not read 'window'"


def test_cauchy_route_rejects_randomized_substrates(demo_cc, demo_turnstile):
    cfg = WrapConfig(epsilon=1.0, delta=0.01, alpha=0.5, kappa=1.0,
                     delta_f=2.0, gamma=3.0)
    out, trace = wrap_cauchy(make_substrate("cc_exact"), demo_cc, cfg,
                             make_rng(0))
    assert trace.substrate_value == 3.0
    with pytest.raises(ValueError):
        wrap_cauchy(make_substrate("cc_estimate"), demo_cc, cfg, make_rng(0))
    with pytest.raises(ValueError):
        wrap_cauchy(make_substrate("l2_ams"), demo_turnstile, cfg,
                    make_rng(0))


def test_mst_estimate_query_budget_without_levels():
    params = ApproxParams(alpha=0.1, kappa=0.0, fail_prob=0.01)
    # No declared weight bound: no query claim.
    assert query_budget("mst_estimate", load_graph("data/demo_cc.graph"), params) == math.inf
    # w = 1: the weight is n - 1, and no level is queried.
    unit = parse_graph("3 2 1\n0 1 1\n1 2 1\n")
    assert query_budget("mst_estimate", unit, params) == 0.0
