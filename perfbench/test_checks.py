"""Tests of the benchmark's checkers: a deliberately wrong output must be
counted as a failed operation, and the references must be right.

    python3 -m pytest -q perfbench/test_checks.py
"""

import itertools
import json
import math
import types

import pytest

import checks
import run
import workloads

EPS, RHO, TAU, DELTA_F = 1.0, 0.01, 0.5, 2.0


def _csv(rows):
    lines = ["trial,substrate_value,output,noise_scale,rho,tau"]
    for t, (x, scale, draw) in enumerate(rows):
        lines.append(f"{t},{x!r},{x + draw * scale!r},{scale!r},{RHO!r},{TAU!r}")
    return "\n".join(lines) + "\n"


def _scale(x):
    return 2.0 * (4.0 * RHO * x + 4.0 * TAU + DELTA_F) / EPS


SPEC = dict(trials=2, epsilon=EPS, rho=RHO, tau=TAU, delta_f=DELTA_F,
            lo=2.0, hi=4.0)


def _failed(output, check):
    """Run one round of one operation returning `output`; the failure count."""
    runner = run.Runner([workloads.Op("doctored", 1, lambda seed: output, check)], seed=0)
    runner.round()
    assert runner.attempted == 1
    return runner.failed


def test_honest_release_passes():
    text = _csv([(3.0, _scale(3.0), 0.4), (2.5, _scale(2.5), -1.3)])
    assert _failed((0, text), workloads.release_check(SPEC)) == 0


def test_substrate_value_outside_interval_fails():
    text = _csv([(3.0, _scale(3.0), 0.4), (4.5, _scale(4.5), -1.3)])
    assert _failed((0, text), workloads.release_check(SPEC)) == 1


def test_wrong_noise_scale_fails():
    text = _csv([(3.0, _scale(3.0), 0.4), (2.5, 0.5 * _scale(2.5), -1.3)])
    assert _failed((0, text), workloads.release_check(SPEC)) == 1


def test_nonzero_exit_or_missing_rows_fail():
    text = _csv([(3.0, _scale(3.0), 0.4), (2.5, _scale(2.5), -1.3)])
    assert _failed((2, text), workloads.release_check(SPEC)) == 1
    assert _failed((0, text.splitlines()[0]), workloads.release_check(SPEC)) == 1


def test_outlying_draws_fail():
    assert _failed((0, _csv([(3.0, _scale(3.0), 60.0), (3.0, _scale(3.0), 0.0)])),
                   workloads.release_check(SPEC)) == 1
    with pytest.raises(checks.CheckFailed):
        checks.check_laplace_draws([30.0] * 10)


def _bench(queries, budget=1000.0, within=True):
    return json.dumps({"substrate": "cc_estimate", "trials": 1, "query_budget": budget,
                       "within_budget": within,
                       "per_trial": [{"trial": 0, "output": 1.0, "queries": queries}]})


def test_query_count_over_budget_fails():
    def check(res):
        return checks.check_bench(res[1], res[0], trials=1, budget=1000.0)

    assert _failed((0, _bench(999)), check) == 0
    assert _failed((0, _bench(1001)), check) == 1
    assert _failed((0, _bench(10, budget=2000.0)), check) == 1
    assert _failed((0, _bench(10, within=False)), check) == 1


def test_audit_above_line_and_wrong_coverage_fail():
    line = checks.honest_audit_line(1.0, 0.0, 1000, 0.01)

    def audit(res):
        return checks.check_audit(res[1], res[0], trials=1000, bins=20, line=line)

    report = {"epsilon_hat": 0.7, "trials": 1000, "bins": 20, "flagged_bins": []}
    assert _failed((0, json.dumps(report)), audit) == 0
    assert _failed((0, json.dumps(dict(report, epsilon_hat=line + 0.01))), audit) == 1

    def coverage(res):
        return checks.check_coverage(res[1], res[0], trials=100, exact=3.0)

    cov = {"coverage": 1.0, "target": 0.99, "threshold": 0.96, "passed": True,
           "trials": 100, "exact": 3.0, "interval": [-10.0, 16.0]}
    assert _failed((0, json.dumps(cov)), coverage) == 0
    assert _failed((0, json.dumps(dict(cov, exact=4.0))), coverage) == 1
    assert _failed((1, json.dumps(dict(cov, passed=False, coverage=0.9))), coverage) == 1


def test_off_grid_output_and_broken_trace_fail():
    checks.check_on_grid(7.0, 1.0, 13)
    for value in (6.5, 13.0, -1.0):
        with pytest.raises(checks.CheckFailed):
            checks.check_on_grid(value, 1.0, 13)
    trace = types.SimpleNamespace(substrate_value=3.0, noise_draw=0.25, output=3.25)
    checks.check_trace(3.25, trace)
    with pytest.raises(checks.CheckFailed):
        checks.check_trace(3.5, trace)
    with pytest.raises(checks.CheckFailed):
        checks.check_trace(3.5, types.SimpleNamespace(substrate_value=3.0, noise_draw=0.25,
                                                      output=3.5))


def test_mst_estimate_range():
    checks.check_mst_estimate(150.0, 160, n=120, max_weight=2, alpha=0.2, bfs_cap=40)
    with pytest.raises(checks.CheckFailed):
        checks.check_mst_estimate(121.0, 160, n=120, max_weight=2, alpha=0.2, bfs_cap=40)
    with pytest.raises(checks.CheckFailed):
        checks.check_mst_estimate(200.0, 160, n=120, max_weight=2, alpha=0.2, bfs_cap=40)


def test_program_exception_counts_as_failed():
    def boom(seed):
        raise RuntimeError("substrate blew up")

    runner = run.Runner([workloads.Op("raises", 1, boom, lambda res: None)], seed=0)
    runner.round()
    assert (runner.attempted, runner.failed) == (1, 1)


def test_knapsack_reference_matches_brute_force():
    import numpy as np
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        sizes = [int(s) for s in rng.integers(1, 12, size=n)]
        values = [int(v) for v in rng.integers(0, 40, size=n)]
        cap = int(rng.integers(1, 30))
        best = max(sum(v for v, keep in zip(values, mask) if keep)
                   for mask in itertools.product((0, 1), repeat=n)
                   if sum(s for s, keep in zip(sizes, mask) if keep) <= cap)
        assert checks.knapsack_opt(cap, sizes, values) == best


def test_references_on_small_inputs():
    assert checks.component_count(5, [(0, 1), (2, 3)]) == 3
    assert checks.mst_weight(4, [(0, 1, 1), (1, 2, 3), (0, 2, 1), (2, 3, 2)]) == 4
    assert checks.net_l2([(0, 1), (0, 1), (1, -1), (2, 1), (2, -1)]) == math.sqrt(5)
    assert checks.window_distinct([1, 2, 1, 3, 3], 3) == 2
    assert checks.cc_knobs(0.1 * 100, 100) == (400, 20)
    assert checks.replicas(0.5) == 1 and checks.replicas(0.01) == math.ceil(18 * math.log(200))


def test_honest_line_sits_above_the_claim():
    for trials in (1000, 4000):
        line = checks.honest_audit_line(1.0, 3e-3, trials, 0.01)
        assert 1.0 < line < 3.5
    assert (checks.honest_audit_line(1.0, 0.0, 4000, 0.01)
            < checks.honest_audit_line(1.0, 0.0, 1000, 0.01))
