import dataclasses
import itertools
import math
import statistics
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpbox.audit import estimate_epsilon
from dpbox.graphs import Graph, toggle_edge
from dpbox.knapsack import KnapsackInstance
from dpbox import mechanisms
from dpbox.mechanisms import (ApproxParams, GridSpec, MechanismTrace,
                              TunableSubstrate, WrapConfig, accuracy_interval,
                              block_medians, boost_replicas, route_params,
                              lemma_fptas_bounds, median_replicas,
                              pure_dp_fallback_prob, smooth_bound,
                              theorem_main_bounds, to_pure_dp,
                              tune_rho_cauchy, tune_rho_laplace, wrap_cauchy,
                              wrap_laplace, wrap_trials)
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


def test_memo_keeps_the_last_value_and_marks_hits():
    sub, calls = counting_substrate(True)
    a, b = (0,), (0, 0)
    params = ApproxParams(0.1, 1.0, 0.0)
    assert sub.evaluate(a, params, None) == (1.0, {"items": 1})
    assert sub.evaluate(a, params, None) == (1.0, {"cached": 1})
    assert sub.evaluate(b, params, None) == (2.0, {"items": 2})  # drops a
    assert sub.evaluate(b, params, None) == (2.0, {"cached": 1})
    assert sub.evaluate(a, params, None) == (1.0, {"items": 1})  # drops b
    # Other params, or an equal but distinct dataset, are other keys.
    assert sub.evaluate(a, ApproxParams(0.2, 1.0, 0.0), None)[1] == {"items": 1}
    assert sub.evaluate(a, ApproxParams(0.1, 1.0, 0.0), None)[1] == {"items": 1}
    assert sub.evaluate(a, ApproxParams(0.1, 1.0, 0.0), None)[1] == {"cached": 1}
    assert sub.evaluate(tuple([0]), params, None)[1] == {"items": 1}
    assert calls == [a, b, a, a, a, (0,)]


def test_datasets_are_immutable():
    stream = UpdateStream(universe_size=3, updates=[(0, 1), (2, 1)])
    assert stream.items.tolist() == [0, 2] and stream.deltas.tolist() == [1, 1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        stream.items = np.array([1, 1])
    with pytest.raises(ValueError, match="read-only"):
        stream.items[0] = 1
    with pytest.raises(ValueError, match="read-only"):
        stream.deltas[0] = -1
    neighbor = stream_neighbor(stream, make_rng(3))
    assert neighbor.items.tolist() != [0, 2]
    assert stream.items.tolist() == [0, 2] and stream.deltas.tolist() == [1, 1]
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


def _trace_hex(trace):
    """Every field of a trace but its cost, floats by float.hex."""
    return (trace.substrate_value.hex(), trace.rho.hex(), trace.tau.hex(),
            trace.noise_scale.hex(), trace.noise_draw.hex(), trace.output.hex(),
            trace.clamped)


def _params_substrate(deterministic):
    """A handle whose value spells out its request, so a stale request shows."""
    def fn(dataset, params, rng):
        value = 1000.0 * params.alpha + params.kappa + 7.0 * params.fail_prob
        return value if deterministic else value + rng.random()
    return TunableSubstrate(fn, is_deterministic=deterministic, label="params")


def test_handle_recalls_its_request_only_for_the_same_cfg_and_route():
    cfgs = [_MEMO_CFG] + [dataclasses.replace(_MEMO_CFG, **change) for change in (
        {"epsilon": 2.0}, {"delta": 1e-2}, {"alpha": 0.25}, {"kappa": 3.0},
        {"tau_override": 0.5})]
    calls = [(cfg, wrap) for cfg in cfgs for wrap in (wrap_laplace, wrap_cauchy)]
    order = make_rng(5).permutation(len(calls)).tolist()
    shared = {True: _params_substrate(True), False: _params_substrate(False)}
    for t, i in enumerate(order + order[::-1] + [order[0]] * 3):
        cfg, wrap = calls[i]
        for det in ((True, False) if wrap is wrap_laplace else (True,)):
            out, trace = wrap(shared[det], None, cfg, make_rng(t))
            fresh_out, fresh_trace = wrap(_params_substrate(det), None, cfg, make_rng(t))
            assert out.hex() == fresh_out.hex()
            assert _trace_hex(trace) == _trace_hex(fresh_trace)


def test_randomized_handle_is_refused_on_cauchy_on_every_call():
    sub = _params_substrate(False)
    for t in range(3):
        with pytest.raises(ValueError, match="requires a deterministic substrate"):
            wrap_cauchy(sub, None, _MEMO_CFG, make_rng(t))
        wrap_laplace(sub, None, _MEMO_CFG, make_rng(t))


def test_requests_are_frozen():
    cfg = WrapConfig(epsilon=1.0, delta=0.1, alpha=0.5, kappa=1.0, delta_f=1.0, gamma=2.0)
    params = ApproxParams(0.1, 1.0, 0.05)
    for record in (cfg, params):
        for f in dataclasses.fields(record):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, f.name, 0.2)
    assert dataclasses.replace(cfg, epsilon=2.0).epsilon == 2.0 and cfg.epsilon == 1.0


def test_laplace_release_at_u_zero_is_finite():
    class ZeroUniform:
        def random(self, size=None):
            return 0.0

    out, trace = wrap_laplace(const_substrate(3.0), None, _MEMO_CFG, ZeroUniform())
    assert math.isfinite(out)
    # The draw of the next grid point, u = 2^-53: -b * ln(2^52).
    assert trace.noise_draw == pytest.approx(-trace.noise_scale * 52.0 * math.log(2.0),
                                             rel=1e-14)


# ---------------------------------------------------------------- trial runs


def _trial_case(name, seed):
    """(substrate, dataset, route, cfg) of one wrap_trials case."""
    cfg = _MEMO_CFG
    if name in ("cc_exact", "cc_estimate"):
        rng = make_rng(seed)
        pairs = list(itertools.combinations(range(7), 2))
        g = Graph(7, [e for e in pairs if rng.random() < 0.3])
        if name == "cc_estimate":
            cfg = dataclasses.replace(cfg, delta=0.2, kappa=3.0)
        return make_substrate(name), g, "laplace", cfg
    if name == "f0_exact":
        items = make_rng(seed).integers(0, 6, size=12)
        return (make_substrate(name), UpdateStream(6, [(int(i), 1) for i in items]),
                "laplace", cfg)
    if name == "knapsack":
        values = make_rng(seed).integers(1, 20, size=5).tolist()
        return (make_substrate(name), KnapsackInstance(9, [2, 3, 4, 5, 6], values),
                "cauchy", dataclasses.replace(cfg, gamma=7.0))
    if name == "clamped":
        return const_substrate(-2.5, deterministic=seed % 2 == 0), None, "laplace", cfg
    # Value 0, tau 0 and delta_f 0: a zero noise scale.
    zero_cfg = dataclasses.replace(cfg, kappa=0.0, delta_f=0.0)
    return const_substrate(0.0), None, ("laplace", "cauchy")[seed % 2], zero_cfg


def _hexes(values):
    return [float(v).hex() for v in values]


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["cc_exact", "f0_exact", "knapsack", "cc_estimate",
                             "clamped", "zero_scale"]),
       trials=st.integers(0, 9), chunk=st.integers(1, 10), seed=st.integers(0, 2 ** 32 - 1))
def test_wrap_trials_equals_sequential_wrapper_calls(name, trials, chunk, seed):
    substrate, dataset, route, cfg = _trial_case(name, seed)
    with mock.patch.object(mechanisms, "TRIAL_CHUNK", chunk):
        chunks = list(wrap_trials(substrate, dataset, cfg, route, make_rng(seed, 1), trials))
    # The reference: one wrapper call per trial on one rng, with a fresh handle.
    reference, _, _, _ = _trial_case(name, seed)
    wrap = wrap_laplace if route == "laplace" else wrap_cauchy
    rng = make_rng(seed, 1)
    traces = [wrap(reference, dataset, cfg, rng)[1] for _ in range(trials)]

    assert [c.start for c in chunks] == list(range(0, trials, chunk))
    assert all(1 <= len(c.output) <= chunk for c in chunks)
    for field_name in ("output", "substrate_value", "noise_scale", "noise_draw"):
        got = [v for c in chunks for v in getattr(c, field_name).tolist()]
        assert _hexes(got) == _hexes(getattr(t, field_name) for t in traces), field_name
    assert [dict(cost) for c in chunks for cost in c.cost] == [dict(t.cost) for t in traces]
    for c in chunks:
        assert (c.rho, c.tau) == (traces[0].rho, traces[0].tau)
    if name == "clamped" and trials:
        assert all(t.clamped for t in traces)
        assert set(v for c in chunks for v in c.substrate_value.tolist()) == {0.0}
    if name == "zero_scale" and trials:
        assert set(v for c in chunks for v in c.noise_scale.tolist()) == {0.0}


def test_wrap_trials_evaluates_a_deterministic_substrate_once():
    sub, calls = counting_substrate(True)
    d = (0,) * 6
    chunks = list(wrap_trials(sub, d, _MEMO_CFG, "laplace", make_rng(2), 5))
    assert calls == [d]
    assert chunks[0].cost == [{"items": 6}] + [{"cached": 1}] * 4
    randomized, calls = counting_substrate(False)
    list(wrap_trials(randomized, d, _MEMO_CFG, "laplace", make_rng(2), 5))
    assert len(calls) == 5


def test_wrap_trials_rejects_what_the_wrappers_reject():
    randomized = const_substrate(1.0, deterministic=False)
    with pytest.raises(ValueError):
        next(wrap_trials(randomized, None, _MEMO_CFG, "cauchy", make_rng(0), 3))
    with pytest.raises(ValueError):
        next(wrap_trials(const_substrate(1.0), None, _MEMO_CFG, "gauss", make_rng(0), 3))
    with pytest.raises(ValueError):
        next(wrap_trials(const_substrate(math.nan), None, _MEMO_CFG, "laplace",
                         make_rng(0), 3))


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


# Signed zeros compare equal, so two sorts may order them differently; the
# estimates medianed here are never -0.0.
_MEDIAN_VALUES = st.floats(allow_nan=False, allow_infinity=False).map(lambda x: x + 0.0)


@settings(max_examples=300, deadline=None)
@given(block=st.integers(1, 9), blocks=st.integers(1, 3), data=st.data())
def test_block_medians_match_statistics_median(block, blocks, data):
    values = data.draw(st.lists(_MEDIAN_VALUES, min_size=block * blocks,
                                max_size=block * blocks))
    want = [statistics.median(values[i:i + block]) for i in range(0, len(values), block)]
    with np.errstate(over="ignore"):  # two huge middle values sum to inf on both sides
        got = block_medians(np.array(values), block).tolist()
    assert [x.hex() for x in got] == [x.hex() for x in want]


# ---------------------------------------------------------------- pure-DP grid


def test_grid_spec_points():
    grid = GridSpec(range_max=12.0, spacing=0.5)
    assert grid.num_points == 25
    assert grid.point(0) == 0.0
    assert grid.point(24) == 12.0
    # num_points is derived, so an inconsistent grid cannot be built.
    with pytest.raises(TypeError):
        GridSpec(range_max=12.0, spacing=0.5, num_points=20)
    with pytest.raises(ValueError):
        GridSpec(range_max=0.0, spacing=0.5)
    with pytest.raises(ValueError):
        GridSpec(range_max=1.0, spacing=-0.5)
    # More points than an int64 draw can index: an infinite count, and 10^20 + 1.
    for range_max, spacing in ((1e308, 1e-10), (1e20, 1.0)):
        with pytest.raises(ValueError, match=r"more than 2\^63 - 1 points"):
            GridSpec(range_max=range_max, spacing=spacing)


def test_fallback_prob_value():
    # p = delta*|R| / (e^eps - 1 + delta*|R|) at eps=1, delta=0.01, |R|=101.
    assert pure_dp_fallback_prob(1.0, 0.01, 101) == pytest.approx(
        0.37019635928538064, rel=1e-14)
    assert pure_dp_fallback_prob(1.0, 0.0, 101) == 0.0


@pytest.mark.parametrize("epsilon, delta, num_points, message", [
    (0.0, 0.01, 11, "epsilon must be positive, got 0.0"),
    (math.nan, 0.01, 11, "epsilon must be positive, got nan"),
    (1.0, 1.0, 11, "delta must lie in [0, 1), got 1.0"),
    (1.0, -0.1, 11, "delta must lie in [0, 1), got -0.1"),
    (1.0, 0.01, 0, "num_points must be >= 1, got 0"),
])
def test_fallback_prob_refusals(epsilon, delta, num_points, message):
    with pytest.raises(ValueError) as info:
        pure_dp_fallback_prob(epsilon, delta, num_points)
    assert str(info.value) == message


@pytest.mark.parametrize("epsilon, delta, message", [
    (0.0, 0.01, "epsilon must be positive, got 0.0"),
    (1.0, 1.0, "delta must lie in [0, 1), got 1.0"),
])
def test_to_pure_dp_refuses_a_budget_the_fallback_cannot_use(epsilon, delta, message):
    rng = make_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError) as info:
        to_pure_dp(3.2, GridSpec(range_max=10.0, spacing=1.0), epsilon, delta, rng)
    assert str(info.value) == message
    assert rng.bit_generator.state == state


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


# ---------------------------------------------------------------- refusals and clamps


def test_wrap_trials_recalls_the_memo_in_later_chunks():
    sub, calls = counting_substrate(True)
    d = (0,) * 6
    with mock.patch.object(mechanisms, "TRIAL_CHUNK", 2):
        chunks = list(wrap_trials(sub, d, _MEMO_CFG, "laplace", make_rng(2), 5))
    assert calls == [d]
    assert [c.cost for c in chunks] == [[{"items": 6}, {"cached": 1}],
                                        [{"cached": 1}] * 2, [{"cached": 1}]]


@pytest.mark.parametrize("route, cfg, message", [
    ("laplace", WrapConfig(epsilon=100.0, delta=0.5, alpha=0.9, kappa=0.0, delta_f=1.0,
                           gamma=1.0),
     "the tuned rho = epsilon*alpha/(12*ln(4/delta)) at epsilon 100.0, alpha 0.9, "
     "delta 0.5 is 3.606737602222409; it must be below 1"),
    ("cauchy", WrapConfig(epsilon=60.0, delta=0.5, alpha=0.9, kappa=0.0, delta_f=1.0,
                          gamma=7.0),
     "the tuned rho = epsilon*alpha/36 at epsilon 60.0, alpha 0.9 is 1.5; it must be below 1"),
], ids=["laplace", "cauchy"])
def test_route_params_refuses_a_tuned_rho_of_1_or_more(route, cfg, message):
    with pytest.raises(ValueError) as info:
        route_params(const_substrate(1.0), cfg, route)
    assert str(info.value) == message
    # The Cauchy route still refuses a randomized substrate first.
    with pytest.raises(ValueError, match="requires a deterministic substrate"):
        route_params(const_substrate(1.0, deterministic=False), cfg, "cauchy")


@pytest.mark.parametrize("args, message", [
    ((-0.1, 1.0, 1.0, 1.0, 6.5), "rho must be nonnegative, got -0.1"),
    ((0.1, -1.0, 1.0, 1.0, 6.5), "tau must be nonnegative, got -1.0"),
    ((0.1, 1.0, math.nan, 1.0, 6.5), "delta_f must be nonnegative, got nan"),
    ((0.1, 1.0, 1.0, 0.0, 6.5), "epsilon must be positive, got 0.0"),
    ((0.1, 1.0, 1.0, -1.0, 6.5), "epsilon must be positive, got -1.0"),
])
def test_lemma_fptas_bounds_refusals(args, message):
    with pytest.raises(ValueError) as info:
        lemma_fptas_bounds(*args)
    assert str(info.value) == message


def test_lemma_fptas_bounds_refuses_a_nan_gamma():
    with pytest.raises(ValueError, match="gamma must be at least 6.5 .* got nan"):
        lemma_fptas_bounds(0.1, 1.0, 1.0, 1.0, math.nan)


@pytest.mark.parametrize("tune, args", [(tune_rho_laplace, (0.0, math.inf, 0.1)),
                                        (tune_rho_laplace, (0.5, math.inf, 0.1)),
                                        (tune_rho_cauchy, (0.5, math.inf))])
def test_tuning_refuses_an_infinite_epsilon(tune, args):
    with pytest.raises(ValueError, match="^epsilon must be finite, got inf$"):
        tune(*args)


def test_to_pure_dp_clamps_to_the_top_grid_point():
    # The grid is {0, 3, 6, 9}; 10.0 rounds up past it and is clamped to 9.
    grid = GridSpec(10.0, 3.0)
    trace = {}
    assert to_pure_dp(10.0, grid, 1.0, 0.0, make_rng(0), trace) == 9.0
    assert trace == {"clamped": False, "fallback": False}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_to_pure_dp_refuses_a_non_finite_value(value):
    with pytest.raises(ValueError, match="value must be finite"):
        to_pure_dp(value, GridSpec(10.0, 1.0), 1.0, 0.0, make_rng(0))


def test_wrap_trials_refuses_negative_trials():
    with pytest.raises(ValueError, match="trials must be >= 0, got -1"):
        next(wrap_trials(const_substrate(1.0), None, _MEMO_CFG, "laplace", make_rng(0), -1))


def test_accuracy_interval_refuses_an_unknown_route():
    with pytest.raises(ValueError, match="route must be 'laplace' or 'cauchy', got 'gauss'"):
        accuracy_interval(1.0, _MEMO_CFG, "gauss")
