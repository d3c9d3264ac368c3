import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpbox.audit import estimate_epsilon
from dpbox.graphs import Graph, toggle_edge
from dpbox.knapsack import KnapsackInstance

from dpbox.mechanisms import (ApproxParams, GridSpec, MechanismTrace,
                              TunableSubstrate, WrapConfig, boost_replicas,
                              lemma_fptas_bounds, median_replicas,
                              pure_dp_fallback_prob, smooth_bound,
                              theorem_main_bounds, to_pure_dp,
                              tune_rho_cauchy, tune_rho_laplace, wrap_cauchy,
                              wrap_laplace)
from dpbox.noise import make_rng
from dpbox.streams import UpdateStream, stream_neighbor
from dpbox.substrates import make_substrate


def const_substrate(value, deterministic=True):
    return TunableSubstrate(lambda d, p, r: value,
                            is_deterministic=deterministic, label="const")


# ---------------------------------------------------------------- tuning


def test_tune_rho_laplace_value():
    # rho = eps * alpha / (12 * ln(4/delta)); hand-checked once and frozen.
    assert tune_rho_laplace(0.5, 1.0, 0.01) == pytest.approx(
        0.006954337514486126, rel=1e-14)
    assert math.log(4.0 / 0.01) == pytest.approx(5.991464547107982, rel=1e-14)


def test_tune_rho_cauchy_value():
    assert tune_rho_cauchy(0.36, 1.0) == pytest.approx(0.01, rel=1e-14)


def test_rho_growth_budget_laplace():
    # 6*rho must stay within eps / (2*ln(4/delta)) whenever alpha < 1.
    rng = make_rng(100)
    for _ in range(300):
        alpha = float(rng.random())
        eps = float(rng.random() * 9.9 + 0.1)
        delta = float(rng.random() * 0.98 + 0.01)
        rho = tune_rho_laplace(alpha, eps, delta)
        assert 6.0 * rho <= eps / (2.0 * math.log(4.0 / delta))


def test_rho_growth_budget_cauchy():
    rng = make_rng(101)
    for _ in range(300):
        alpha = float(rng.random())
        eps = float(rng.random() * 9.9 + 0.1)
        assert 6.0 * tune_rho_cauchy(alpha, eps) <= eps / 6.0


@pytest.mark.parametrize("args", [(-0.1, 1.0, 0.1), (1.0, 1.0, 0.1),
                                  (0.5, 0.0, 0.1), (0.5, 1.0, 0.0),
                                  (0.5, 1.0, 1.0)])
def test_tune_rho_laplace_rejects(args):
    with pytest.raises(ValueError):
        tune_rho_laplace(*args)


# ---------------------------------------------------------------- configs


def test_approx_params_validation():
    ApproxParams(alpha=0.0, kappa=0.0, fail_prob=0.0)
    with pytest.raises(ValueError):
        ApproxParams(alpha=1.0, kappa=0.0, fail_prob=0.1)
    with pytest.raises(ValueError):
        ApproxParams(alpha=0.1, kappa=-1.0, fail_prob=0.1)
    with pytest.raises(ValueError):
        ApproxParams(alpha=0.1, kappa=0.0, fail_prob=1.0)


def test_wrap_config_validation():
    cfg = WrapConfig(epsilon=1.0, delta=0.01, alpha=0.5, kappa=2.0,
                     delta_f=1.0, gamma=3.0)
    assert cfg.tau() == 2.0
    cfg2 = WrapConfig(epsilon=1.0, delta=0.01, alpha=0.5, kappa=2.0,
                      delta_f=1.0, gamma=3.0, tau_override=0.25)
    assert cfg2.tau() == 0.25
    for kwargs in [dict(epsilon=0.0), dict(delta=0.0), dict(delta=1.0),
                   dict(alpha=1.0), dict(kappa=-1.0), dict(delta_f=-1.0),
                   dict(gamma=0.0), dict(tau_override=-0.5)]:
        base = dict(epsilon=1.0, delta=0.01, alpha=0.5, kappa=2.0,
                    delta_f=1.0, gamma=3.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            WrapConfig(**base)


# ---------------------------------------------------------------- smooth bound


def test_smooth_bound_formula():
    assert smooth_bound(3.0, 0.01, 1.0, 2.0) == pytest.approx(
        4 * 0.01 * 3.0 + 4 * 1.0 + 2.0)
    assert smooth_bound(0.0, 0.0, 0.0, 0.0) == 0.0


def test_smooth_bound_rejects_negatives():
    for bad in [(-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)]:
        with pytest.raises(ValueError):
            smooth_bound(*bad)


# ---------------------------------------------------------------- wrappers


def test_wrap_laplace_trace_consistency():
    cfg = WrapConfig(epsilon=1.0, delta=0.01, alpha=0.5, kappa=1.0,
                     delta_f=2.0, gamma=3.0)
    out, trace = wrap_laplace(const_substrate(5.0), None, cfg, make_rng(1))
    rho = tune_rho_laplace(0.5, 1.0, 0.01)
    assert trace.rho == pytest.approx(rho)
    assert trace.tau == 1.0
    assert trace.substrate_value == 5.0
    assert trace.noise_scale == pytest.approx(
        2.0 * (4 * rho * 5.0 + 4 * 1.0 + 2.0) / 1.0)
    assert out == trace.output
    assert trace.output == pytest.approx(trace.substrate_value + trace.noise_draw)
    assert not trace.clamped


def test_wrap_laplace_passes_tuned_params_to_substrate():
    seen = {}

    def fn(dataset, params, rng):
        seen["params"] = params
        return 1.0

    cfg = WrapConfig(epsilon=2.0, delta=0.02, alpha=0.25, kappa=3.0,
                     delta_f=1.0, gamma=2.0)
    wrap_laplace(TunableSubstrate(fn), None, cfg, make_rng(0))
    p = seen["params"]
    assert p.alpha == pytest.approx(tune_rho_laplace(0.25, 2.0, 0.02))
    assert p.kappa == 3.0
    assert p.fail_prob == 0.01


def test_wrap_respects_tau_override():
    cfg = WrapConfig(epsilon=1.0, delta=0.01, alpha=0.0, kappa=5.0,
                     delta_f=2.0, gamma=3.0, tau_override=0.5)
    _, trace = wrap_laplace(const_substrate(1.0), None, cfg, make_rng(2))
    assert trace.tau == 0.5


def test_wrap_cauchy_trace_and_route():
    cfg = WrapConfig(epsilon=2.0, delta=0.5, alpha=0.36, kappa=0.0,
                     delta_f=1.0, gamma=7.0)
    out, trace = wrap_cauchy(const_substrate(10.0), None, cfg, make_rng(3))
    rho = tune_rho_cauchy(0.36, 2.0)
    assert trace.noise_scale == pytest.approx(6.0 * (4 * rho * 10.0 + 1.0) / 2.0)
    assert out == pytest.approx(10.0 + trace.noise_draw)


def test_wrap_cauchy_rejects_randomized_substrate():
    cfg = WrapConfig(epsilon=1.0, delta=0.01, alpha=0.1, kappa=0.0,
                     delta_f=1.0, gamma=7.0)
    randomized = const_substrate(1.0, deterministic=False)
    with pytest.raises(ValueError):
        wrap_cauchy(randomized, None, cfg, make_rng(0))


def test_negative_substrate_output_clamps_instead_of_aborting():
    # An abort would leak the sign of the estimate; the wrapper must clamp to
    # zero and carry on.
    cfg = WrapConfig(epsilon=1.0, delta=0.01, alpha=0.5, kappa=1.0,
                     delta_f=2.0, gamma=3.0)
    out, trace = wrap_laplace(const_substrate(-4.0), None, cfg, make_rng(4))
    assert trace.clamped
    assert trace.substrate_value == 0.0
    assert trace.noise_scale == pytest.approx(2.0 * (4 * 1.0 + 2.0))
    assert out == pytest.approx(trace.noise_draw)


def test_nonfinite_substrate_output_raises():
    cfg = WrapConfig(epsilon=1.0, delta=0.01, alpha=0.5, kappa=1.0,
                     delta_f=2.0, gamma=3.0)
    with pytest.raises(ValueError):
        wrap_laplace(const_substrate(math.nan), None, cfg, make_rng(4))
    with pytest.raises(ValueError):
        wrap_laplace(const_substrate(math.inf), None, cfg, make_rng(4))


def test_substrate_returns_its_call_cost():
    def fn(dataset, params, rng):
        return 2, {"queries": 7, "space_words": 3}

    sub = TunableSubstrate(fn)
    params = ApproxParams(0.1, 0.0, 0.1)
    assert sub.evaluate(None, params, make_rng(0)) == (2.0, {"queries": 7, "space_words": 3})
    # Each call reports its own cost; nothing accumulates on the handle.
    assert sub.evaluate(None, params, make_rng(0))[1] == {"queries": 7, "space_words": 3}
    assert const_substrate(5.0).evaluate(None, params, make_rng(0)) == (5.0, {})
    cfg = WrapConfig(epsilon=1.0, delta=0.01, alpha=0.5, kappa=0.0, delta_f=1.0, gamma=2.0)
    _, trace = wrap_laplace(sub, None, cfg, make_rng(1))
    assert trace.cost == {"queries": 7, "space_words": 3}
    _, trace = wrap_cauchy(const_substrate(5.0), None, cfg, make_rng(1))
    assert trace.cost == {}


# ---------------------------------------------------------------- memo


_MEMO_CFG = WrapConfig(epsilon=1.0, delta=1e-3, alpha=0.5, kappa=1.0, delta_f=2.0,
                       gamma=5.0)


def counting_substrate(deterministic):
    """A substrate returning len(dataset), and the list of datasets it ran on."""
    calls = []

    def fn(dataset, params, rng):
        calls.append(dataset)
        return float(len(dataset)), {"items": len(dataset)}

    return TunableSubstrate(fn, is_deterministic=deterministic, label="count"), calls


def test_deterministic_value_is_computed_once_per_dataset():
    d, d_prime = (0,) * 10, (0,) * 11
    sub, calls = counting_substrate(True)
    shared = estimate_epsilon(lambda ds, rng: wrap_laplace(sub, ds, _MEMO_CFG, rng)[0],
                              d, d_prime, trials=1000, bins=20, delta_slack=0.01, seed=3)
    assert calls == [d, d_prime]

    def fresh_mech(ds, rng):
        return wrap_laplace(counting_substrate(True)[0], ds, _MEMO_CFG, rng)[0]

    assert shared == estimate_epsilon(fresh_mech, d, d_prime, trials=1000, bins=20,
                                      delta_slack=0.01, seed=3)


def test_randomized_substrate_runs_on_every_call():
    sub, calls = counting_substrate(False)
    d = (0,) * 4
    for t in range(5):
        _, trace = wrap_laplace(sub, d, _MEMO_CFG, make_rng(0, t))
        assert trace.cost == {"items": 4}
    assert len(calls) == 5


def test_memo_keeps_the_two_newest_datasets_and_marks_hits():
    sub, calls = counting_substrate(True)
    a, b, c = (0,), (0, 0), (0, 0, 0)
    params = ApproxParams(0.1, 1.0, 0.0)
    assert sub.evaluate(a, params, None) == (1.0, {"items": 1})
    assert sub.evaluate(b, params, None) == (2.0, {"items": 2})
    assert sub.evaluate(a, params, None) == (1.0, {"cached": 1})
    assert sub.evaluate(c, params, None) == (3.0, {"items": 3})  # drops a
    assert sub.evaluate(b, params, None) == (2.0, {"cached": 1})
    assert sub.evaluate(a, params, None) == (1.0, {"items": 1})  # drops b
    # Other params, or an equal but distinct dataset, are other keys.
    assert sub.evaluate(a, ApproxParams(0.2, 1.0, 0.0), None)[1] == {"items": 1}
    assert sub.evaluate(tuple([0]), params, None)[1] == {"items": 1}
    assert calls == [a, b, c, a, a, (0,)]


def test_datasets_are_immutable():
    stream = UpdateStream(universe_size=3, updates=[(0, 1), (2, 1)])
    assert stream.updates == ((0, 1), (2, 1))
    with pytest.raises(dataclasses.FrozenInstanceError):
        stream.updates = ()
    instance = KnapsackInstance(capacity=4, sizes=[2], values=[1.0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        instance.capacity = 5
    g = Graph(3, [(0, 1)])
    assert not hasattr(g, "add_edge") and not hasattr(g, "remove_edge")
    assert not hasattr(g, "copy")


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 7), edge_bits=st.integers(0, 2 ** 21 - 1),
       items=st.lists(st.integers(0, 5), min_size=1, max_size=25),
       seed=st.integers(0, 2 ** 32 - 1))
def test_shared_handle_releases_what_fresh_handles_release(n, edge_bits, items, seed):
    pairs = list(itertools.combinations(range(n), 2))
    g = Graph(n, [e for b, e in enumerate(pairs) if edge_bits >> b & 1])
    s = UpdateStream(universe_size=6, updates=[(i, 1) for i in items])
    cases = (("cc_exact", (g, toggle_edge(g, 0, 1))),
             ("f0_exact", (s, stream_neighbor(s, make_rng(seed)))),
             ("l2_exact", (s, stream_neighbor(s, make_rng(seed)))))
    for name, pair in cases:
        shared = make_substrate(name)
        for t in range(8):
            wrap = wrap_laplace if t < 4 else wrap_cauchy
            dataset = pair[t % 2]
            out, trace = wrap(shared, dataset, _MEMO_CFG, make_rng(seed, t))
            fresh_out, fresh_trace = wrap(make_substrate(name), dataset, _MEMO_CFG,
                                          make_rng(seed, t))
            assert (out, trace.substrate_value) == (fresh_out, fresh_trace.substrate_value)


# ---------------------------------------------------------------- boosting


def test_boost_replicas_values():
    # r = ceil(18 * ln(2/target)); spot values frozen by hand.
    assert boost_replicas(0.01) == 96
    assert boost_replicas(0.05) == 67
    assert boost_replicas(0.25) == 38
    assert boost_replicas(1.0 / 3.0) == 33
    with pytest.raises(ValueError):
        boost_replicas(0.0)
    with pytest.raises(ValueError):
        boost_replicas(1.0)


def test_median_replicas_rule():
    # A single run already fails with probability <= 1/3.
    assert median_replicas(0.9) == 1
    assert median_replicas(1.0 / 3.0) == 1
    assert median_replicas(0.05) == boost_replicas(0.05) == 67
    assert median_replicas(0.005) == 108
    with pytest.raises(ValueError):
        median_replicas(0.0)


# ---------------------------------------------------------------- pure-DP grid


def test_grid_spec_points():
    grid = GridSpec(range_max=12.0, spacing=0.5)
    assert grid.num_points == 25
    assert grid.point(0) == 0.0
    assert grid.point(24) == 12.0
    with pytest.raises(ValueError):
        GridSpec(range_max=12.0, spacing=0.5, num_points=20)
    with pytest.raises(ValueError):
        GridSpec(range_max=0.0, spacing=0.5)
    with pytest.raises(ValueError):
        GridSpec(range_max=1.0, spacing=-0.5)


def test_fallback_prob_value():
    # p = delta*|R| / (e^eps - 1 + delta*|R|) at eps=1, delta=0.01, |R|=101.
    assert pure_dp_fallback_prob(1.0, 0.01, 101) == pytest.approx(
        0.37019635928538064, rel=1e-14)
    assert pure_dp_fallback_prob(1.0, 0.0, 101) == 0.0


def test_to_pure_dp_rounds_up_onto_grid():
    grid = GridSpec(range_max=10.0, spacing=1.0)
    rng = make_rng(0)
    trace = {}
    out = to_pure_dp(3.2, grid, 1.0, 0.0, rng, trace)
    assert out == 4.0
    assert trace == {"clamped": False, "fallback": False}
    assert to_pure_dp(3.0, grid, 1.0, 0.0, rng) == 3.0
    assert to_pure_dp(-2.5, grid, 1.0, 0.0, rng, trace) == 0.0
    assert trace["clamped"]
    assert to_pure_dp(99.0, grid, 1.0, 0.0, rng) == 10.0


def test_to_pure_dp_delta_zero_never_falls_back():
    grid = GridSpec(range_max=10.0, spacing=1.0)
    rng = make_rng(1)
    state = rng.bit_generator.state
    to_pure_dp(5.5, grid, 1.0, 0.0, rng)
    # With p = 0 the rng must not even be consulted.
    assert rng.bit_generator.state == state


def test_to_pure_dp_fallback_frequency_quick():
    grid = GridSpec(range_max=10.0, spacing=1.0)
    p = pure_dp_fallback_prob(1.0, 0.05, grid.num_points)
    rng = make_rng(2)
    trials = 4000
    hits = 0
    for _ in range(trials):
        trace = {}
        out = to_pure_dp(4.4, grid, 1.0, 0.05, rng, trace)
        assert out == grid.point(round(out / grid.spacing))
        if trace["fallback"]:
            hits += 1
        else:
            assert out == 5.0
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(hits / trials - p) < 4 * sigma


# ---------------------------------------------------------------- bounds


def test_theorem_main_bounds_frozen():
    cfg = WrapConfig(epsilon=1.0, delta=0.01, alpha=0.5, kappa=2.0,
                     delta_f=1.0, gamma=3.0)
    a, k, add = theorem_main_bounds(cfg)
    assert a == pytest.approx(0.34076253820982016, rel=1e-13)
    assert k == pytest.approx(50.33380820069534, rel=1e-13)
    assert add == pytest.approx(6.0, rel=1e-13)


def test_lemma_fptas_bounds_frozen():
    mult, add_kappa, add_sens = lemma_fptas_bounds(0.01, 0.5, 2.0, 1.0, 6.5)
    assert mult == pytest.approx(3.13, rel=1e-13)
    assert add_kappa == pytest.approx(78.78, rel=1e-13)
    assert add_sens == pytest.approx(78.0, rel=1e-13)


def test_lemma_fptas_gamma_floor():
    # At gamma = 6.5 the Cauchy tail is 0.0971... < 1/10; below it the 9/10
    # success claim breaks, so smaller gammas are rejected.
    assert 1 - (2 / math.pi) * math.atan(6.5) < 0.1
    lemma_fptas_bounds(0.0, 0.0, 0.0, 1.0, 6.5)
    with pytest.raises(ValueError):
        lemma_fptas_bounds(0.0, 0.0, 0.0, 1.0, 6.4999)


def test_trace_dataclass_shape():
    t = MechanismTrace(substrate_value=1.0, rho=0.1, tau=0.2, noise_scale=3.0,
                       noise_draw=0.5, output=1.5)
    assert not t.clamped
    assert t.output == t.substrate_value + t.noise_draw
