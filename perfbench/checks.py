"""Correctness checks for the benchmark: references computed apart from dpbox,
and properties every output of the method must have.

References: networkx component counts and MST weights, plain-Python recounts
of distinct items, net-frequency L2 and window distinct counts, and a
capacity-axis knapsack DP. Formulas (tuned rho, noise scale, estimator knobs,
replica counts) are recomputed from the statements in dpbox's docstrings,
not by calling dpbox. A failed check raises CheckFailed; the runner counts
the operation as failed.
"""

from __future__ import annotations

import json
import math

import networkx as nx


class CheckFailed(Exception):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def close(a, b, rel=1e-9):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---- independent references -------------------------------------------------

def component_count(n, edges):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from((e[0], e[1]) for e in edges)
    return nx.number_connected_components(g)


def mst_weight(n, weighted_edges):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_weighted_edges_from(weighted_edges)
    return int(nx.minimum_spanning_tree(g).size(weight="weight"))


def distinct_count(items):
    return len(set(items))


def net_l2(updates):
    freq = {}
    for item, delta in updates:
        freq[item] = freq.get(item, 0) + delta
    return math.sqrt(sum(f * f for f in freq.values()))


def window_distinct(items, window):
    return len(set(items[-window:]))


def knapsack_opt(capacity, sizes, values):
    """0/1 knapsack optimum by DP over the capacity axis."""
    best = [0] * (capacity + 1)
    for s, v in zip(sizes, values):
        for c in range(capacity, s - 1, -1):
            if best[c - s] + v > best[c]:
                best[c] = best[c - s] + v
    return best[capacity]


# ---- formulas from the method -----------------------------------------------

def rho_laplace(epsilon, alpha, delta):
    return epsilon * alpha / (12.0 * math.log(4.0 / delta))


def noise_scale(x, rho, tau, delta_f, epsilon):
    """Laplace-route scale 2(4 rho x + 4 tau + delta_f)/epsilon."""
    return 2.0 * (4.0 * rho * x + 4.0 * tau + delta_f) / epsilon


def replicas(fail):
    """Median-trick replica count: 1 at failure >= 1/3, else ceil(18 ln(2/fail))."""
    return 1 if fail >= 1.0 / 3.0 else int(math.ceil(18.0 * math.log(2.0 / fail)))


def cc_knobs(kappa_abs, n):
    """(sample_count, bfs_cap) of cc_estimate for an absolute additive target:
    kappa = min(kappa_abs/n, 1), s = ceil(4/kappa^2), cap = ceil(2/kappa)."""
    kappa = min(kappa_abs / n, 1.0)
    return int(math.ceil(4.0 / kappa ** 2)), int(math.ceil(2.0 / kappa))


def cc_query_budget(tau, n, delta):
    """s * cap * (cap + 1) queries per run, times the replicas at failure delta/2."""
    s, cap = cc_knobs(tau, n)
    return replicas(delta / 2.0) * s * cap * (cap + 1)


def wilson(p, n, z=2.0):
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def honest_audit_line(epsilon, delta, trials, delta_slack, sigmas=6.0):
    """Largest epsilon_hat an honest (epsilon, delta) mechanism can show unless
    some bin count strays more than `sigmas` standard deviations from its mean.

    The auditor keeps a bin only when both observed masses clear
    delta_slack + 3 sigma, and reports the Wilson-widened (z = 2) log ratio.
    For every observed mass p_b the lighter side can have, the heavier side's
    true mass is at most e^epsilon * (p_b + dev) + delta and its observed mass
    at most that plus dev; the line is the worst widened ratio over all p_b.
    With 2 * bins counts per audit, a 6-sigma excursion has probability below
    1e-7, so the line holds for any seed, not for one."""
    def dev(p):
        return sigmas * math.sqrt(max(p * (1.0 - p), 0.0) / trials)

    p_min = delta_slack
    for _ in range(50):
        p_min = delta_slack + 3.0 * math.sqrt(p_min * (1.0 - p_min) / trials)
    worst = 0.0
    for i in range(1001):
        p_b = p_min + (1.0 - p_min) * i / 1000.0
        q_a = min(1.0, math.exp(epsilon) * min(1.0, p_b + dev(p_b)) + delta)
        p_a = min(1.0, q_a + dev(q_a))
        lo_b = wilson(p_b, trials)[0]
        if lo_b > 0.0:
            worst = max(worst, math.log(wilson(p_a, trials)[1] / lo_b))
    return worst


# ---- checks on program outputs ---------------------------------------------

def parse_release_csv(text):
    lines = text.strip().splitlines()
    require(lines and lines[0] == "trial,substrate_value,output,noise_scale,rho,tau",
            f"unexpected debug-trace header {lines[:1]!r}")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        require(len(parts) == 6, f"malformed release row {line!r}")
        t, x, out, scale, rho, tau = parts
        rows.append({"trial": int(t), "substrate_value": float(x), "output": float(out),
                     "noise_scale": float(scale), "rho": float(rho), "tau": float(tau)})
    return rows


def check_release(rows, *, trials, epsilon, rho, tau, delta_f, lo, hi):
    """Checks the rows of one Laplace-route `dpb wrap --debug-trace` run and
    returns the standardized draws (output - substrate_value) / noise_scale."""
    require(len(rows) == trials, f"{len(rows)} release rows, expected {trials}")
    draws = []
    for t, row in enumerate(rows):
        x = row["substrate_value"]
        require(row["trial"] == t, f"row {t} has trial index {row['trial']}")
        require(close(row["rho"], rho), f"rho {row['rho']!r}, expected {rho!r}")
        require(close(row["tau"], tau), f"tau {row['tau']!r}, expected {tau!r}")
        require(math.isfinite(x) and (lo <= x or close(x, lo)) and (x <= hi or close(x, hi)),
                f"substrate value {x!r} outside [{lo!r}, {hi!r}]")
        expected = noise_scale(x, rho, tau, delta_f, epsilon)
        require(close(row["noise_scale"], expected),
                f"noise scale {row['noise_scale']!r}, expected {expected!r}")
        z = (row["output"] - x) / row["noise_scale"]
        require(math.isfinite(z), f"non-finite output {row['output']!r}")
        draws.append(z)
    return draws


def _mean_exp_bound(count, log_tail=21.0):
    """b with Pr[mean of `count` Exp(1) variables >= b] <= e^-log_tail, from the
    Chernoff bound exp(-count * (b - 1 - ln b)); solved by bisection."""
    lo, hi = 1.0, 100.0
    for _ in range(100):
        mid = (lo + hi) / 2.0
        if count * (mid - 1.0 - math.log(mid)) < log_tail:
            lo = mid
        else:
            hi = mid
    return hi


def check_laplace_draws(draws):
    """Standardized Laplace draws: |z| <= 50 each (a miss has probability
    e^-50), and mean |z| below the bound a mean of Exp(1) variables exceeds
    with probability under 1e-9."""
    for z in draws:
        require(abs(z) <= 50.0, f"standardized Laplace draw {z!r} beyond 50")
    if draws:
        mean_abs = sum(abs(z) for z in draws) / len(draws)
        bound = _mean_exp_bound(len(draws))
        require(mean_abs <= bound,
                f"mean |draw|/scale {mean_abs:.3f} over {len(draws)} draws exceeds {bound:.3f}")


def check_bench(text, rc, *, trials, budget):
    require(rc == 0, f"dpb bench exited {rc}")
    rep = json.loads(text)
    require(rep["within_budget"] is True, "bench reports a query budget overrun")
    require(rep["query_budget"] is not None and close(rep["query_budget"], budget),
            f"query budget {rep['query_budget']!r}, expected {budget!r}")
    require(len(rep["per_trial"]) == trials, "bench trial count differs")
    for row in rep["per_trial"]:
        q = row.get("queries", 0)
        require(0 < q <= budget, f"trial {row['trial']} used {q} queries, budget {budget}")
    return rep


def check_audit(text, rc, *, trials, bins, line):
    require(rc == 0, f"dpb audit exited {rc}")
    rep = json.loads(text)
    require(rep["trials"] == trials and rep["bins"] == bins, "audit report trials/bins differ")
    eps_hat = rep["epsilon_hat"]
    require(0.0 <= eps_hat <= line,
            f"honest audit epsilon_hat {eps_hat!r} above the line {line:.4f}")
    return rep


def check_coverage(text, rc, *, trials, exact):
    require(rc == 0, f"dpb coverage exited {rc}")
    rep = json.loads(text)
    require(rep["trials"] == trials, "coverage trial count differs")
    require(close(rep["exact"], exact), f"coverage exact {rep['exact']!r}, expected {exact!r}")
    lo, hi = rep["interval"]
    require(lo <= exact <= hi, f"exact {exact!r} outside the interval [{lo!r}, {hi!r}]")
    require(rep["passed"] is True and rep["coverage"] >= rep["threshold"],
            f"coverage {rep['coverage']!r} below threshold {rep['threshold']!r}")
    return rep


def check_trace(output, trace):
    """A wrapped release equals substrate_value + noise_draw, as its trace says."""
    require(output == trace.output, f"release {output!r} differs from trace output {trace.output!r}")
    require(trace.output == trace.substrate_value + trace.noise_draw,
            f"output {trace.output!r} != substrate {trace.substrate_value!r} "
            f"+ draw {trace.noise_draw!r}")


def check_on_grid(value, spacing, num_points):
    idx = value / spacing
    require(abs(idx - round(idx)) <= 1e-9 and 0 <= round(idx) < num_points,
            f"to_pure_dp output {value!r} not on the grid of {num_points} points spaced {spacing!r}")


def check_mst_estimate(value, truth, *, n, max_weight, alpha, bfs_cap):
    """mst_weight_estimate = n - w + sum of w-1 component estimates, each in
    [n/cap, n]; and within alpha * truth of the Kruskal weight."""
    lo = n - max_weight + (max_weight - 1) * n / bfs_cap
    hi = n - max_weight + (max_weight - 1) * n
    require((lo <= value or close(value, lo)) and (value <= hi or close(value, hi)),
            f"MST estimate {value!r} outside [{lo}, {hi}]")
    require(abs(value - truth) <= alpha * truth,
            f"MST estimate {value!r} not within {alpha} of {truth}")
