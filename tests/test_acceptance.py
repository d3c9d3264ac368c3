"""Release acceptance checks, one test per shipped guarantee.

Every test here pins one externally stated behavior at its full scale and
tolerance; `pytest -v tests/test_acceptance.py` therefore prints one pass or
fail line per guarantee. Statistical checks run on fixed seeds with the
acceptance threshold set three binomial sigma below the target rate, so a
pass is reproducible and a fail means a real regression, not an unlucky draw.
"""

import itertools
import math
import statistics

import numpy as np

from dpbox.audit import estimate_epsilon
from dpbox.graph_estimators import (
    CcEstimateParams,
    QueryGraph,
    cc_estimate,
    cc_exact,
    mst_weight_estimate,
)
from dpbox.graphs import (
    Graph,
    connected_components_exact,
    kruskal_mst_weight,
    toggle_edge,
)
from dpbox.knapsack import knapsack_exact
from dpbox.mechanisms import (
    GridSpec,
    WrapConfig,
    boost_replicas,
    lemma_fptas_bounds,
    pure_dp_fallback_prob,
    smooth_bound,
    theorem_main_bounds,
    to_pure_dp,
    tune_rho_cauchy,
    tune_rho_laplace,
    wrap_cauchy,
    wrap_laplace,
)
from dpbox.noise import make_rng, sample_cauchy, sample_laplace
from dpbox.sketches import AmsSketch, KmvSketch
from dpbox.streams import (
    UpdateStream,
    exact_distinct,
    exact_f2,
    exact_l2,
    stream_neighbor,
)
from dpbox.substrates import make_substrate
from dpbox.windows import smooth_histogram_distinct, smooth_histogram_f2

from helpers import (
    random_connected_graph,
    random_graph,
    random_knapsack,
    random_stream,
    zipf_stream,
)


def test_criterion_01_sampler_tail_calibration():
    # 10^6 draws per route; two-sided tail mass at 0.5, 1, 2, 3 scales must
    # match the closed forms within 3 binomial sigma. Budgeted under 30 s.
    n = 10 ** 6
    lap = np.abs(sample_laplace(1.0, make_rng(101), size=n))
    cau = np.abs(sample_cauchy(1.0, make_rng(102), size=n))
    for ell in (0.5, 1.0, 2.0, 3.0):
        p_lap = math.exp(-ell)
        frac = float(np.mean(lap > ell))
        sigma = math.sqrt(p_lap * (1.0 - p_lap) / n)
        assert abs(frac - p_lap) <= 3.0 * sigma, (ell, frac, p_lap)

        p_cau = 1.0 - (2.0 / math.pi) * math.atan(ell)
        frac = float(np.mean(cau > ell))
        sigma = math.sqrt(p_cau * (1.0 - p_cau) / n)
        assert abs(frac - p_cau) <= 3.0 * sigma, (ell, frac, p_cau)


def test_criterion_02_tuned_rho_keeps_beta_within_budget():
    # The Laplace-route tuning must satisfy 6*rho <= epsilon / (2 ln(4/delta))
    # on every draw, with no tolerance: this inequality is what makes the
    # noise scale epsilon-private for the smooth bound it multiplies.
    rng = make_rng(2025)
    for _ in range(1000):
        epsilon = float(10.0 ** rng.uniform(-2.0, 1.0))
        delta = float(10.0 ** rng.uniform(-8.0, math.log10(0.2)))
        alpha = float(rng.uniform(0.0, 0.999))
        rho = tune_rho_laplace(alpha, epsilon, delta)
        assert 6.0 * rho <= epsilon / (2.0 * math.log(4.0 / delta))


def test_criterion_03_smooth_bound_properties_exhaustive():
    # Exhaustive over every graph on at most 5 vertices and every single-edge
    # toggle: (1) the bound evaluated at the worst allowed substrate value
    # dominates the exact local sensitivity; (2) between edge-neighbors the
    # bound moves by a factor of at most e^(6 rho), both checked at all
    # clamp-corner value combinations. Budgeted under 60 s.
    delta_f = 2.0
    settings = [(rho, tau) for rho in (0.05, 0.25, 0.45)
                for tau in (0.0, 0.5, 1.0)]

    def corners(count, rho, tau):
        return (max((1.0 - rho) * count - tau, 0.0),
                (1.0 + rho) * count + tau)

    for n in range(1, 6):
        pair_bits = n * (n - 1) // 2
        counts = {}
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << pair_bits):
            g = Graph(n, [e for b, e in enumerate(pairs) if mask >> b & 1])
            counts[mask] = len(connected_components_exact(g))

        for rho, tau in settings:
            beta = 6.0 * rho
            bounds = {c: tuple(smooth_bound(x, rho, tau, delta_f)
                               for x in corners(c, rho, tau))
                      for c in range(n + 1)}
            for mask, c in counts.items():
                local = 0
                for b in range(pair_bits):
                    local = max(local, abs(c - counts[mask ^ (1 << b)]))
                assert min(bounds[c]) >= local, (n, mask, rho, tau)
                for b in range(pair_bits):
                    c2 = counts[mask ^ (1 << b)]
                    for s_d in bounds[c]:
                        for s_dp in bounds[c2]:
                            ratio = abs(math.log(s_d / s_dp))
                            assert ratio <= beta + 1e-12, (n, mask, b, rho, tau)


def test_criterion_04_laplace_route_interval_coverage():
    # n = 200 graph, exact component-count substrate, epsilon 1, delta 1/n,
    # gamma ln n, 10^4 trials: the fraction of outputs inside the published
    # interval must reach 1 - delta - e^(-gamma) minus 3 sigma. Under 2 min.
    n = 200
    g = random_graph(n, 300, make_rng(40))
    exact = cc_exact(g)
    cfg = WrapConfig(epsilon=1.0, delta=1.0 / n, alpha=0.5, kappa=1.0,
                     delta_f=2.0, gamma=math.log(n))
    alpha_p, kappa_p, additive = theorem_main_bounds(cfg)
    lo = (1.0 - alpha_p) * exact - kappa_p - additive
    hi = (1.0 + alpha_p) * exact + kappa_p + additive
    substrate = make_substrate("cc_exact")
    trials = 10_000
    inside = 0
    for t in range(trials):
        output, _ = wrap_laplace(substrate, g, cfg, make_rng(41, t))
        if lo <= output <= hi:
            inside += 1
    target = 1.0 - cfg.delta - math.exp(-cfg.gamma)
    sigma = math.sqrt(target * (1.0 - target) / trials)
    coverage = inside / trials
    print(f"coverage {coverage:.4f} target {target:.4f} "
          f"threshold {target - 3.0 * sigma:.4f}")
    assert coverage >= target - 3.0 * sigma


def test_criterion_05_cauchy_route_fptas_coverage():
    # 20-item knapsack through the deterministic-route wrapper at alpha 0.1
    # and gamma 6.5 (the smallest admissible tail knob): coverage of the
    # published interval over 10^4 trials must reach 0.90 minus 3 sigma.
    inst = random_knapsack(20, make_rng(50))
    exact = knapsack_exact(inst)
    delta_f = max(inst.values)
    cfg = WrapConfig(epsilon=1.0, delta=0.01, alpha=0.1, kappa=0.0,
                     delta_f=delta_f, gamma=6.5)
    rho = tune_rho_cauchy(cfg.alpha, cfg.epsilon)
    mult, add_kappa, add_sens = lemma_fptas_bounds(
        rho, cfg.tau(), cfg.delta_f, cfg.epsilon, cfg.gamma)
    lo = (1.0 - mult) * exact - add_kappa - add_sens
    hi = (1.0 + mult) * exact + add_kappa + add_sens
    substrate = make_substrate("knapsack")
    trials = 10_000
    inside = 0
    for t in range(trials):
        output, _ = wrap_cauchy(substrate, inst, cfg, make_rng(51, t))
        if lo <= output <= hi:
            inside += 1
    sigma = math.sqrt(0.9 * 0.1 / trials)
    coverage = inside / trials
    print(f"coverage {coverage:.4f} threshold {0.9 - 3.0 * sigma:.4f}")
    assert coverage >= 0.9 - 3.0 * sigma


def _two_block_graph():
    """50 vertices in two connected halves; toggling (0, 25) bridges them,
    so the exact component count moves by exactly 1 between neighbors."""
    rng = make_rng(60)
    edges = set()
    for lo in (0, 25):
        for v in range(lo + 1, lo + 25):
            edges.add((v - 1, v))
        added = 0
        while added < 15:
            u, v = lo + int(rng.integers(25)), lo + int(rng.integers(25))
            if u == v or (min(u, v), max(u, v)) in edges:
                continue
            edges.add((min(u, v), max(u, v)))
            added += 1
    g = Graph(50, edges)
    return g, toggle_edge(g, 0, 25)


_AUDIT_CFG = WrapConfig(epsilon=1.0, delta=1e-3, alpha=0.5, kappa=1.0,
                        delta_f=2.0, gamma=math.log(50))


def test_criterion_06a_audit_accepts_honest_wrapper():
    # Empirical loss of the honest wrapped mechanism on edge-neighboring
    # 50-vertex graphs at epsilon 1, delta 1e-3, 10^5 trials: epsilon_hat
    # must stay at or below 1.3. Shares the under-5-min budget with 06b.
    g, g_prime = _two_block_graph()
    substrate = make_substrate("cc_exact")

    def mech(dataset, rng):
        return wrap_laplace(substrate, dataset, _AUDIT_CFG, rng)[0]

    report = estimate_epsilon(mech, g, g_prime, trials=100_000, bins=40,
                              delta_slack=1e-3, seed=61)
    print(f"honest epsilon_hat {report.epsilon_hat:.4f}")
    assert report.epsilon_hat <= 1.3


def test_criterion_06b_audit_flags_halved_noise_scale():
    # Same setup with the Laplace noise at half the scale that epsilon needs
    # on this pair. Halving the wrapper's own scale 2*S/epsilon is no break on
    # an exact substrate: S = 4*rho*x + 4*tau + delta_f >= shift, so the
    # halved loss shift*epsilon/S stays within epsilon (here S is about 6 and
    # the loss about 1/6). The scale epsilon needs is shift/epsilon, with
    # shift the exact component-count difference between g and g'; half of it
    # gives a true log ratio of 2*epsilon = 2.0 in every bin outside the unit
    # gap between the two counts, and Wilson widening only adds to that,
    # so the estimate must clear the 1.5 line.
    g, g_prime = _two_block_graph()
    substrate = make_substrate("cc_exact")
    shift = abs(cc_exact(g) - cc_exact(g_prime))
    broken_scale = 0.5 * shift / _AUDIT_CFG.epsilon

    def broken(dataset, rng):
        _, trace = wrap_laplace(substrate, dataset, _AUDIT_CFG, rng)
        return (trace.substrate_value
                + broken_scale * trace.noise_draw / trace.noise_scale)

    report = estimate_epsilon(broken, g, g_prime, trials=100_000, bins=40,
                              delta_slack=1e-3, seed=62)
    print(f"halved-scale epsilon_hat {report.epsilon_hat:.4f}")
    assert report.epsilon_hat > 1.5


def test_criterion_06_companion_audit_detects_gross_scale_break():
    # Evidence that the auditor does catch real breaks: at alpha = kappa = 0
    # the honest scale is exactly 2*delta_f/epsilon = 4; dividing the draw by
    # 8 leaves scale 0.5 against a shift of 1, a true worst-case log ratio of
    # 2.0, and the audit must flag it above the same 1.5 line.
    g, g_prime = _two_block_graph()
    cfg = WrapConfig(epsilon=1.0, delta=1e-3, alpha=0.0, kappa=0.0,
                     delta_f=2.0, gamma=math.log(50))
    substrate = make_substrate("cc_exact")

    def badly_broken(dataset, rng):
        _, trace = wrap_laplace(substrate, dataset, cfg, rng)
        return trace.substrate_value + trace.noise_draw / 8.0

    report = estimate_epsilon(badly_broken, g, g_prime, trials=100_000,
                              bins=40, delta_slack=1e-3, seed=63)
    print(f"gross-break epsilon_hat {report.epsilon_hat:.4f}")
    assert report.epsilon_hat > 1.5


def test_criterion_07_exact_identities():
    rng = make_rng(70)
    # MST reduction: n - w + sum of per-level component counts equals the
    # Kruskal weight exactly on 100 random connected weighted graphs.
    for _ in range(100):
        w = int(rng.integers(2, 8))
        g = random_connected_graph(24, int(rng.integers(0, 40)), rng,
                                   max_weight=w)
        total = float(g.n - w)
        for level in range(1, w):
            sub = g.subgraph_weight_at_most(level)
            total += len(connected_components_exact(sub))
        assert total == kruskal_mst_weight(g)

    # Distinct-count sketch below its retention threshold is exact.
    for i in range(20):
        distinct = int(rng.integers(3, 60))
        universe_items = rng.choice(500, size=distinct, replace=False)
        repeats = rng.integers(1, 4, size=distinct)
        items = np.repeat(universe_items, repeats)
        rng.shuffle(items)
        sketch = KmvSketch(k=64, reps=7, rng=make_rng(71, i))
        sketch.update_bulk(items)
        assert sketch.estimate() == float(distinct)

    # Turnstile cancellation: inserting then deleting the same items leaves
    # every counter bitwise zero.
    sketch = AmsSketch(rows=21, cols=32, universe_size=1000, rng=make_rng(72))
    items = make_rng(73).integers(0, 1000, size=300)
    for item in items:
        sketch.update(int(item), 1)
    for item in reversed(items):
        sketch.update(int(item), -1)
    assert not sketch.counters.any()
    assert sketch.estimate() == 0.0


def test_criterion_08_estimator_accuracy_at_scale():
    trials = 200
    need = math.ceil(0.95 * trials)

    # Component count on a 10^4-vertex random graph: median-boosted runs at
    # kappa = 0.1 must land within kappa*n of the truth in >= 95% of trials.
    n = 10_000
    rng = make_rng(80)
    edges = set()
    while len(edges) < 2500:
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u == v or (min(u, v), max(u, v)) in edges:
            continue
        edges.add((min(u, v), max(u, v)))
    g = Graph(n, edges)
    truth = cc_exact(g)
    params = CcEstimateParams(kappa=0.1)
    replicas = boost_replicas(0.25)
    hits = 0
    for t in range(trials):
        trial_rng = make_rng(81, t)
        med = statistics.median(
            cc_estimate(g, params, trial_rng) for _ in range(replicas))
        hits += abs(med - truth) <= 0.1 * n
    print(f"cc hits {hits}/{trials}")
    assert hits >= need

    # Second-moment sketch at alpha 0.2 on a heavy-tailed insertion stream.
    # Sign evaluation costs rows * cols per distinct item, so the trial count
    # stays at 200 by keeping the universe small rather than the tolerance
    # loose.
    stream = zipf_stream(200, 10_000, make_rng(82))
    truth = exact_f2(stream)
    hits = 0
    for t in range(trials):
        sketch = AmsSketch.from_accuracy(0.2, 1.0 / 3.0, 200, make_rng(83, t))
        sketch.consume(stream)
        hits += abs(sketch.estimate() - truth) <= 0.2 * truth
    print(f"f2 hits {hits}/{trials}")
    assert hits >= need

    # Distinct-count sketch at alpha 0.2, truth well above the retention
    # threshold so the estimator is genuinely extrapolating.
    stream = random_stream(8000, 10_000, "insert", make_rng(84))
    truth = float(exact_distinct(stream))
    hits = 0
    for t in range(trials):
        sketch = KmvSketch.from_accuracy(0.2, 0.05, make_rng(85, t))
        sketch.consume(stream)
        hits += abs(sketch.estimate() - truth) <= 0.2 * truth
    print(f"f0 hits {hits}/{trials}")
    assert hits >= need

    # Sublinear MST weight at alpha 0.2 on a weighted connected graph.
    g = random_connected_graph(120, 30, make_rng(86), max_weight=2)
    truth = kruskal_mst_weight(g)
    hits = 0
    for t in range(trials):
        est = mst_weight_estimate(g, 0.2, 0.7, make_rng(87, t))
        hits += abs(est - truth) <= 0.2 * truth
    print(f"mst hits {hits}/{trials}")
    assert hits >= need


def test_criterion_09_query_budget_never_exceeded():
    # The component-count estimator's probe counter must respect
    # s * cap * (cap + 1) on every single run, across densities and kappas.
    rng = make_rng(90)
    for kappa in (0.08, 0.15, 0.3, 0.6, 1.0):
        params = CcEstimateParams(kappa=kappa)
        budget = params.sample_count * params.bfs_cap * (params.bfs_cap + 1)
        for rep in range(10):
            n = int(rng.integers(50, 400))
            m = int(rng.integers(0, 3 * n))
            g = random_graph(n, m, rng)
            qg = QueryGraph(g)
            cc_estimate(qg, params, make_rng(91, rep))
            assert qg.queries <= budget, (kappa, n, m, qg.queries, budget)


def test_criterion_10_sliding_window_accuracy():
    # W = 10^3 over 10^5 updates; at every checkpoint the window answer must
    # lie within (1 +/- (rho + alpha + rho*alpha)) of a brute-force recount
    # in >= 95% of checkpoints, and the instance bound must never be
    # violated (the structure also asserts it internally on every update).
    window, m = 1000, 100_000

    # Distinct count, exact per-instance counters (alpha = 0), rho = 0.1.
    stream = random_stream(50, m, "insert", make_rng(100))
    items = stream.items()
    hist = smooth_histogram_distinct(window, 0.1, 0.3, 0.3, make_rng(1),
                                     exact=True)
    hits = checkpoints = 0
    for t, item in enumerate(items, start=1):
        hist.update(item)
        if t >= window and t % 500 == 0:
            truth = float(len(set(items[t - window:t])))
            answer = hist.query()
            checkpoints += 1
            hits += abs(answer - truth) <= 0.1 * truth
            assert hist.instance_count() <= hist.instance_bound(
                hist.family.estimates())
    print(f"distinct window hits {hits}/{checkpoints}")
    assert hits >= math.ceil(0.95 * checkpoints)

    # Second moment, exact per-instance counters, rho = 0.45.
    stream = random_stream(10, m, "insert", make_rng(102))
    items = stream.items()
    hist = smooth_histogram_f2(window, 0.45, 0.3, 0.3, 10, make_rng(2),
                               exact=True)
    hits = checkpoints = 0
    for t, item in enumerate(items, start=1):
        hist.update(item)
        if t >= window and t % 500 == 0:
            counts = np.bincount(items[t - window:t], minlength=10)
            truth = float(np.sum(counts.astype(np.float64) ** 2))
            answer = hist.query()
            checkpoints += 1
            hits += abs(answer - truth) <= 0.45 * truth
            assert hist.instance_count() <= hist.instance_bound(
                hist.family.estimates())
    print(f"f2 window hits {hits}/{checkpoints}")
    assert hits >= math.ceil(0.95 * checkpoints)


def test_criterion_11_pure_dp_grid_mixer():
    # 10^5 rounds on a 101-point grid at epsilon 1, delta 0.01: the fallback
    # frequency must sit within 3 sigma of its closed form, every output must
    # be a grid point, and non-fallback outputs must round up by at most one
    # spacing.
    grid = GridSpec(range_max=10.0, spacing=0.1)
    assert grid.num_points == 101
    p = pure_dp_fallback_prob(1.0, 0.01, grid.num_points)
    trials = 100_000
    rng = make_rng(110)
    value = 3.73
    fallbacks = 0
    for _ in range(trials):
        trace = {}
        out = to_pure_dp(value, grid, 1.0, 0.01, rng, trace=trace)
        assert 0.0 <= out <= grid.range_max
        assert abs(out / grid.spacing - round(out / grid.spacing)) < 1e-9
        if trace["fallback"]:
            fallbacks += 1
        else:
            assert value - 1e-9 <= out <= value + grid.spacing + 1e-9
    sigma = math.sqrt(p * (1.0 - p) / trials)
    freq = fallbacks / trials
    print(f"fallback {freq:.5f} expected {p:.5f}")
    assert abs(freq - p) <= 3.0 * sigma

    # The invariants hold across the whole input range, not just one value.
    sweep_rng = make_rng(111)
    for _ in range(10_000):
        v = float(sweep_rng.uniform(0.0, 10.0))
        trace = {}
        out = to_pure_dp(v, grid, 1.0, 0.01, sweep_rng, trace=trace)
        assert 0.0 <= out <= grid.range_max
        assert abs(out / grid.spacing - round(out / grid.spacing)) < 1e-9
        if not trace["fallback"]:
            assert v - 1e-9 <= out <= v + grid.spacing + 1e-9


def test_criterion_12_global_sensitivity_spot_checks():
    rng = make_rng(120)
    # Component count moves by at most 2 under one edge toggle.
    for _ in range(200):
        g = random_graph(30, int(rng.integers(0, 60)), rng)
        u, v = (int(x) for x in rng.choice(30, size=2, replace=False))
        g2 = toggle_edge(g, u, v)
        assert abs(cc_exact(g) - cc_exact(g2)) <= 2.0

    # MST weight moves by at most w under one edge change that preserves
    # connectivity: additions, deletions, and weight rewrites.
    removals = 0
    for _ in range(100):
        w = int(rng.integers(2, 7))
        g = random_connected_graph(16, 14, rng, max_weight=w)
        base = kruskal_mst_weight(g)
        while True:
            u, v = int(rng.integers(16)), int(rng.integers(16))
            if u != v and not g.has_edge(u, v):
                break
        g_add = toggle_edge(g, u, v, weight=int(rng.integers(1, w + 1)))
        assert abs(kruskal_mst_weight(g_add) - base) <= w

        edges = g.edge_items()
        eu, ev, _ = edges[int(rng.integers(len(edges)))]
        g_rm = toggle_edge(g, eu, ev)
        if len(connected_components_exact(g_rm)) == 1:
            removals += 1
            assert abs(kruskal_mst_weight(g_rm) - base) <= w
        g_rw = toggle_edge(g_rm, eu, ev, weight=int(rng.integers(1, w + 1)))
        assert abs(kruskal_mst_weight(g_rw) - base) <= w
    assert removals >= 30  # the deletion branch must actually be exercised

    # L2 and distinct count move by at most 2 under one changed update.
    for i in range(1000):
        s = random_stream(40, 200, "insert", rng)
        s2 = stream_neighbor(s, make_rng(121, i))
        assert abs(exact_l2(s) - exact_l2(s2)) <= 2.0
        assert abs(exact_distinct(s) - exact_distinct(s2)) <= 2.0

    # Turnstile worst case: flipping one update's sign on the same item
    # moves one frequency by 2, so the L2 shift hits the bound exactly.
    for i in range(500):
        s = random_stream(40, 200, "turnstile", rng)
        flip = int(rng.integers(s.length))
        updates = list(s.updates)
        item, delta = updates[flip]
        updates[flip] = (item, -delta)
        s2 = UpdateStream(universe_size=40, updates=updates, mode="turnstile")
        assert abs(exact_l2(s) - exact_l2(s2)) <= 2.0
