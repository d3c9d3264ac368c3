"""The three benchmark workloads.

Each workload generates its input files from the seed (untimed), computes
reference values apart from dpbox (untimed), loads every input through
dpbox's public loaders in setup() (timed as setup_s), and lists the
operations of one round. An operation is one `dpb` command run in-process
through dpbox.cli.main, or one direct library call; each has a check that
raises CheckFailed on a wrong output.

Library functions are looked up on the dpbox modules at call time, so the
traced run's wrappers see the benchmark's direct calls too.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import gen


@dataclass
class Op:
    name: str
    evaluations: int
    run: Callable[[int], object]
    check: Callable[[object], None]


def _write_config(path, config):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    return path


def _cli(dpbox, argv):
    """Run one dpb command in-process; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = dpbox.cli.main(argv)
    return rc, out.getvalue()


def _cli_op(dpbox, name, command, config_path, evaluations, check, extra=()):
    def run(round_seed):
        return _cli(dpbox, [command, "--config", config_path, "--seed", str(round_seed),
                            *extra])

    return Op(name, evaluations, run, check)


def release_check(spec):
    """Check of a `dpb wrap --debug-trace` result against a check_release spec."""
    def check(res):
        rc, text = res
        checks.require(rc == 0, f"dpb wrap exited {rc}")
        checks.check_laplace_draws(checks.check_release(checks.parse_release_csv(text), **spec))
    return check


def read_graph_edges(path):
    """(n, [(u, v), ...]) of an unweighted graph file, parsed here, not by dpbox."""
    with open(path, encoding="utf-8") as fh:
        rows = [ln.split("#", 1)[0].split() for ln in fh]
    rows = [r for r in rows if r]
    return int(rows[0][0]), [(int(r[0]), int(r[1])) for r in rows[1:]]


def _laplace_delta(delta, epsilon):
    """Total delta of a Laplace-route release: delta (1 + e^(eps/2)) + delta/2."""
    return delta * (1.0 + math.exp(epsilon / 2.0)) + delta / 2.0


def _cc_preset(n, kappa_frac):
    """Values the cc preset derives for a graph on n vertices at epsilon 1
    (cli docstring)."""
    log_n = math.log(max(n, 3))
    delta = 1.0 / n
    return {"delta": delta, "tau": kappa_frac * n / log_n,
            "rho": checks.rho_laplace(1.0, 0.5, delta), "delta_f": 2.0}


class Workload:
    name = ""
    demo_graph = os.path.join("data", "demo_cc.graph")
    # Median setup and round times of the frozen baseline (baseline/dpbox) on
    # the reference machine, a 2-vCPU KVM guest on an Intel Xeon (Sapphire
    # Rapids) at 2.0 GHz, over 5 to 10 runs. run.py reports setup_s and
    # wall_s as these times multiplied by the measured ratio of src/ dpbox to
    # the baseline.
    REFERENCE_SETUP_S: float
    REFERENCE_ROUND_S: float

    def __init__(self, dpbox, root, workdir, seed):
        self.dpbox = dpbox
        self.root = root
        self.dir = workdir
        self.seed = seed
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.loaded = {}
        self.generate()

    def path(self, name):
        return os.path.join(self.dir, name)

    def for_program(self, dpbox):
        """This workload on another dpbox package: same inputs and references,
        its own loaded datasets and operations."""
        other = copy.copy(self)
        other.dpbox = dpbox
        other.loaded = {}
        return other

    def generate(self):
        raise NotImplementedError

    def setup(self):
        raise NotImplementedError

    def operations(self):
        raise NotImplementedError


class GraphRelease(Workload):
    """cc preset releases on graphs of several shapes, exact releases on 10^4
    vertices, and direct mst_weight_estimate calls."""

    name = "graph-release"
    REFERENCE_SETUP_S = 0.16
    REFERENCE_ROUND_S = 3.2
    # (file, kappa_frac, command): kappa_frac is raised from the preset's 0.1
    # only as far as keeps one release near a second.
    CC_RUNS = (("demo", 0.15, "wrap"), ("paths", 1.0, "wrap"),
               ("dense", 1.0, "wrap"), ("hubs", 1.0, "bench"))
    EXACT_TRIALS = 5
    MST_CALLS = 5
    MST_ALPHA, MST_FAIL = 0.2, 0.7

    def generate(self):
        rng = self.rng
        self.graphs = {}  # name -> (path, n, edges)
        demo = os.path.join(self.root, self.demo_graph)
        self.graphs["demo"] = (demo, *read_graph_edges(demo))
        shapes = {
            "paths": (2000, gen.planted_components(rng, 2000, list(range(1, 41)))),
            "dense": (1500, gen.planted_components(rng, 1500, [10, 20, 40], 2.0)),
            "hubs": (6000, gen.hub_graph(rng, 6000, 2, 2000, list(range(1, 21)))[0]),
            "large": (10_000, gen.planted_components(
                rng, 10_000, [1, 2, 3, 5, 8, 13, 40], 0.5)),
        }
        for name, (n, edges) in shapes.items():
            path = self.path(f"{name}.graph")
            gen.write_graph(path, n, edges)
            self.graphs[name] = (path, n, edges)
        self.truth = {name: checks.component_count(n, edges)
                      for name, (_, n, edges) in self.graphs.items()}

        self.mst_n = 10_000
        self.mst_edges = gen.connected_weighted(rng, self.mst_n, 10_000, 4)
        gen.write_graph(self.path("mst.graph"), self.mst_n, self.mst_edges, max_weight=4)
        self.mst_truth = checks.mst_weight(self.mst_n, self.mst_edges)
        self.small_n = 120
        self.small_edges = gen.connected_weighted(rng, self.small_n, 30, 2)
        gen.write_graph(self.path("mst-small.graph"), self.small_n, self.small_edges,
                        max_weight=2)
        self.small_truth = checks.mst_weight(self.small_n, self.small_edges)

    def setup(self):
        load = self.dpbox.load_graph
        for name, (path, _, _) in self.graphs.items():
            self.loaded[name] = load(path)
        self.loaded["mst"] = load(self.path("mst.graph"))
        self.loaded["mst-small"] = load(self.path("mst-small.graph"))

    def operations(self):
        ops = []
        for name, frac, command in self.CC_RUNS:
            path, n, _ = self.graphs[name]
            cfg = _write_config(self.path(f"cc-{name}.json"), {
                "preset": "cc", "input": path, "epsilon": 1.0, "kappa_frac": frac,
                "trials": 1})
            if command == "wrap":
                ops.append(_cli_op(self.dpbox, f"wrap cc {name}", "wrap", cfg, 1,
                                   self._cc_release_check(n, frac, self.truth[name]),
                                   ("--debug-trace",)))
            else:
                budget = checks.cc_query_budget(_cc_preset(n, frac)["tau"], n, 1.0 / n)
                ops.append(_cli_op(self.dpbox, f"bench cc {name}", "bench", cfg, 1,
                                   lambda res, b=budget: checks.check_bench(
                                       res[1], res[0], trials=1, budget=b)))
        for substrate, path, truth, kappa, delta_f in (
                ("cc_exact", self.graphs["large"][0], self.truth["large"], 1.0, 2.0),
                ("mst_exact", self.path("mst.graph"), self.mst_truth, 0.0, 4.0)):
            cfg = _write_config(self.path(f"{substrate}.json"), {
                "substrate": substrate, "input": path, "epsilon": 1.0, "delta": 1e-4,
                "alpha": 0.5, "kappa": kappa, "gamma": 5.0, "trials": self.EXACT_TRIALS})
            spec = dict(trials=self.EXACT_TRIALS, epsilon=1.0,
                        rho=checks.rho_laplace(1.0, 0.5, 1e-4), tau=kappa,
                        delta_f=delta_f, lo=truth, hi=truth)
            ops.append(_cli_op(self.dpbox, f"wrap {substrate}", "wrap", cfg,
                               self.EXACT_TRIALS, release_check(spec),
                               ("--debug-trace",)))
        ops.append(Op("mst_weight_estimate", self.MST_CALLS, self._mst_calls,
                      self._mst_check))
        return ops

    def _cc_release_check(self, n, frac, truth):
        p = _cc_preset(n, frac)
        _, cap = checks.cc_knobs(p["tau"], n)
        # cc_estimate lies in [n/cap, n] always, and within tau of the truth.
        return release_check(dict(
            trials=1, epsilon=1.0, rho=p["rho"], tau=p["tau"],
            delta_f=p["delta_f"], lo=max(n / cap, truth - p["tau"]),
            hi=min(float(n), truth + p["tau"])))

    def _mst_calls(self, round_seed):
        d = self.dpbox
        return [d.mst_weight_estimate(self.loaded["mst-small"], self.MST_ALPHA,
                                      self.MST_FAIL, d.make_rng(round_seed, k))
                for k in range(self.MST_CALLS)]

    def _mst_check(self, values):
        # Each level runs cc_estimate at additive alpha/(2w) of n, here w = 2.
        _, cap = checks.cc_knobs(self.MST_ALPHA / 4.0 * self.small_n, self.small_n)
        for v in values:
            checks.check_mst_estimate(v, self.small_truth, n=self.small_n, max_weight=2,
                                      alpha=self.MST_ALPHA, bfs_cap=cap)


class StreamRelease(Workload):
    """f0 preset on a long Zipf stream, sw-de on a short one, l2_ams on a
    small-universe turnstile stream."""

    name = "stream-release"
    REFERENCE_SETUP_S = 0.29
    REFERENCE_ROUND_S = 3.5
    ZIPF = (20_000, 100_000, 1.1)       # universe, updates, exponent
    WINDOW = (5, 150, 60)               # universe, updates, window
    TURNSTILE = (150, 20_000)           # universe, updates
    L2 = {"epsilon": 8.0, "alpha": 0.6, "delta": 0.05, "kappa": 0.0, "gamma": 5.0}

    def generate(self):
        rng = self.rng
        u, m, a = self.ZIPF
        self.zipf = gen.zipf_items(rng, u, m, a)
        gen.write_stream(self.path("zipf.stream"), u, [(i, 1) for i in self.zipf], "insert")
        u, m, self.window = self.WINDOW
        self.win_items = gen.relabeled_items(rng, u, m)
        gen.write_stream(self.path("window.stream"), u, [(i, 1) for i in self.win_items],
                         "insert")
        u, m = self.TURNSTILE
        self.turnstile = gen.turnstile_updates(rng, u, m)
        gen.write_stream(self.path("turnstile.stream"), u, self.turnstile, "turnstile")

    def setup(self):
        d = self.dpbox
        for name in ("zipf", "window", "turnstile"):
            s = d.load_stream(self.path(f"{name}.stream"))
            self.loaded[name] = (s, d.stream_neighbor(s, d.make_rng(self.seed, 2 ** 31)))

    def operations(self):
        rho = checks.rho_laplace(1.0, 0.2, 0.01)
        ops = []
        truth = checks.distinct_count(self.zipf)
        cfg = _write_config(self.path("f0.json"), {
            "preset": "f0", "input": self.path("zipf.stream"), "epsilon": 1.0, "trials": 1})
        # Fewer distinct items than KMV retains, so the sketch answers exactly.
        ops.append(self._wrap("wrap f0", cfg, dict(
            trials=1, epsilon=1.0, rho=rho, tau=0.0, delta_f=2.0,
            lo=truth, hi=truth)))

        truth = checks.window_distinct(self.win_items, self.window)
        slack = (2.0 * rho / 3.0 + rho * rho / 9.0) * truth
        cfg = _write_config(self.path("sw-de.json"), {
            "preset": "sw-de", "input": self.path("window.stream"), "window": self.window,
            "epsilon": 1.0, "trials": 1})
        ops.append(self._wrap("wrap sw-de", cfg, dict(
            trials=1, epsilon=1.0, rho=rho, tau=0.0, delta_f=2.0,
            lo=truth - slack, hi=truth + slack)))

        l2 = checks.net_l2(self.turnstile)
        p = self.L2
        cfg = _write_config(self.path("l2.json"), {
            "substrate": "l2_ams", "input": self.path("turnstile.stream"), "trials": 1, **p})
        # F2 within a factor 1 +/- 1/2: each row mean misses with probability
        # <= 2/(cols/4) by Chebyshev, and the median of >= 100 rows all but never.
        ops.append(self._wrap("wrap l2_ams", cfg, dict(
            trials=1, epsilon=p["epsilon"],
            rho=checks.rho_laplace(p["epsilon"], p["alpha"], p["delta"]), tau=0.0,
            delta_f=2.0, lo=math.sqrt(0.5) * l2, hi=math.sqrt(1.5) * l2)))
        return ops

    def _wrap(self, name, cfg, spec):
        return _cli_op(self.dpbox, name, "wrap", cfg, 1, release_check(spec),
                       ("--debug-trace",))


class AuditTrials(Workload):
    """Audits and coverage runs of deterministic substrates, and one library
    audit of wrap_laplace followed by to_pure_dp."""

    name = "audit-trials"
    REFERENCE_SETUP_S = 0.085
    REFERENCE_ROUND_S = 5.3
    HUB_LEAVES = 3000
    AUDIT = {"trials": 1000, "bins": 20, "delta_slack": 0.01}
    LAPLACE = {"epsilon": 1.0, "delta": 1e-3, "alpha": 0.5, "kappa": 1.0, "gamma": 5.0}
    KNAPSACK = {"route": "cauchy", "epsilon": 1.0, "alpha": 0.5, "kappa": 0.0,
                "delta_f": 5.0, "gamma": 20.0}
    COVERAGE_TRIALS = {"cc_exact": 250, "f0_exact": 1000, "knapsack": 1000}
    PURE_TRIALS = 4000

    def generate(self):
        rng = self.rng
        n = self.HUB_LEAVES + 200
        edges, hubs, rest = gen.hub_graph(rng, n, 1, self.HUB_LEAVES, list(range(1, 11)))
        # Bridging the star to a small component moves the count by exactly 1.
        self.toggle = (hubs[0], rest[0])
        gen.write_graph(self.path("audit.graph"), n, edges)
        self.cc_truth = checks.component_count(n, edges)

        self.stream_items = gen.uniform_items(rng, 300, 600)
        gen.write_stream(self.path("audit.stream"), 300,
                         [(i, 1) for i in self.stream_items], "insert")
        cap, sizes, values = gen.knapsack_items(rng, 12)
        gen.write_knapsack(self.path("knap.txt"), cap, sizes, values)
        prime = list(values)
        prime[int(rng.integers(len(prime)))] += int(self.KNAPSACK["delta_f"])
        gen.write_knapsack(self.path("knap-prime.txt"), cap, sizes, prime)
        self.knap_truth = checks.knapsack_opt(cap, sizes, values)

        self.demo_path = os.path.join(self.root, self.demo_graph)
        self.demo_n, demo_edges = read_graph_edges(self.demo_path)
        # Toggle vertex 0 against a vertex of another component.
        self.demo_toggle = (0, next(
            v for v in range(1, self.demo_n)
            if checks.component_count(self.demo_n, demo_edges + [(0, v)])
            < checks.component_count(self.demo_n, demo_edges)))

    def setup(self):
        d = self.dpbox
        g = d.load_graph(self.path("audit.graph"))
        self.loaded["graph"] = (g, d.toggle_edge(g, *self.toggle))
        s = d.load_stream(self.path("audit.stream"))
        self.loaded["stream"] = (s, d.stream_neighbor(s, d.make_rng(self.seed, 2 ** 31)))
        self.loaded["knapsack"] = (d.load_knapsack(self.path("knap.txt")),
                                   d.load_knapsack(self.path("knap-prime.txt")))
        demo = d.load_graph(self.demo_path)
        self.loaded["demo"] = (demo, d.toggle_edge(demo, *self.demo_toggle))

    def operations(self):
        lap_line = checks.honest_audit_line(
            1.0, _laplace_delta(1e-3, 1.0), self.AUDIT["trials"], self.AUDIT["delta_slack"])
        cauchy_line = checks.honest_audit_line(
            1.0, 0.0, self.AUDIT["trials"], self.AUDIT["delta_slack"])
        runs = (
            ("cc_exact", {"input": self.path("audit.graph"), "toggle": list(self.toggle),
                          **self.LAPLACE}, lap_line, float(self.cc_truth)),
            ("f0_exact", {"input": self.path("audit.stream"), **self.LAPLACE}, lap_line,
             float(checks.distinct_count(self.stream_items))),
            ("knapsack", {"input": self.path("knap.txt"),
                          "input_prime": self.path("knap-prime.txt"), **self.KNAPSACK},
             cauchy_line, float(self.knap_truth)),
        )
        ops = []
        for substrate, config, line, exact in runs:
            audit_cfg = _write_config(self.path(f"audit-{substrate}.json"), {
                "substrate": substrate, **config, **self.AUDIT, "epsilon_limit": line})
            ops.append(_cli_op(
                self.dpbox, f"audit {substrate}", "audit", audit_cfg, self.AUDIT["trials"],
                lambda res, ln=line: checks.check_audit(
                    res[1], res[0], trials=self.AUDIT["trials"], bins=self.AUDIT["bins"],
                    line=ln)))
            trials = self.COVERAGE_TRIALS[substrate]
            cov_cfg = _write_config(self.path(f"coverage-{substrate}.json"), {
                "substrate": substrate, **config, "trials": trials})
            ops.append(_cli_op(
                self.dpbox, f"coverage {substrate}", "coverage", cov_cfg, trials,
                lambda res, t=trials, ex=exact: checks.check_coverage(
                    res[1], res[0], trials=t, exact=ex)))
        ops.append(Op("estimate_epsilon to_pure_dp", self.PURE_TRIALS, self._pure_audit,
                      self._pure_check))
        return ops

    def _pure_audit(self, round_seed):
        d = self.dpbox
        p = self.LAPLACE
        cfg = d.WrapConfig(epsilon=p["epsilon"], delta=p["delta"], alpha=p["alpha"],
                           kappa=p["kappa"], delta_f=2.0, gamma=p["gamma"])
        grid = d.GridSpec(range_max=float(self.demo_n), spacing=1.0)
        substrate = d.make_substrate("cc_exact")
        seen = []

        def mech(dataset, rng):
            out, trace = d.wrap_laplace(substrate, dataset, cfg, rng)
            value = d.to_pure_dp(out, grid, p["epsilon"], p["delta"], rng)
            seen.append((out, trace, value))
            return value

        g, g_prime = self.loaded["demo"]
        report = d.estimate_epsilon(mech, g, g_prime, self.PURE_TRIALS, self.AUDIT["bins"],
                                    delta_slack=self.AUDIT["delta_slack"], seed=round_seed)
        return report, seen, grid

    def _pure_check(self, res):
        report, seen, grid = res
        checks.require(len(seen) == 2 * self.PURE_TRIALS, "mechanism call count differs")
        for out, trace, value in seen:
            checks.check_trace(out, trace)
            checks.check_on_grid(value, grid.spacing, grid.num_points)
        line = checks.honest_audit_line(1.0, _laplace_delta(1e-3, 1.0), self.PURE_TRIALS,
                                        self.AUDIT["delta_slack"])
        checks.require(report.epsilon_hat <= line,
                       f"honest audit epsilon_hat {report.epsilon_hat!r} above {line:.4f}")


WORKLOADS = {w.name: w for w in (GraphRelease, StreamRelease, AuditTrials)}
