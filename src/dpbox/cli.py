"""dpb: experiment runner for the privacy wrappers and their substrates.

    dpb <command> --config <file> [--seed N] [--trials N] [--out path]
                  [--debug-trace]

Commands: wrap (run a wrapped mechanism, emit CSV), audit (empirical epsilon
report, JSON), coverage (Monte-Carlo check of the accuracy interval, JSON),
bench (resource counters and budget assertions, JSON). Configuration is a
JSON object; command-line flags override config keys of the same meaning.
The counts "trials" and "bins" and the "seed" must be JSON integers: trials
>= 1 (>= 1000 for audit), 2 <= bins <= trials, seed >= 0.

Every run is reproducible byte-for-byte from (config, seed). wrap, coverage
and bench draw all their trials, one after another, from the one rng stream
(seed, 0), so the first k trials of a run do not depend on "trials". audit
draws its dataset side from (seed, 0) and its neighbor side from (seed, 1);
a stream neighbor is drawn from (seed, 2^31). (The library's
estimate_epsilon keeps its own per-trial streams.) In bench output a trial
whose deterministic value was recalled, not computed, shows "cached": 1:
every trial of a run after the first.

Presets (config key "preset") bundle a substrate with the parameter choices
the corresponding accuracy statements use; explicit config keys override
preset values. Data-dependent preset values are derived from the loaded
dataset: the cc preset, for instance, turns the fractional additive knob
kappa_frac into kappa = kappa_frac*n, tau_override = kappa_frac*n/ln(n),
delta = 1/n, and gamma = ln(n).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import NamedTuple

import numpy as np

from .audit import audit_samples
from .graphs import load_graph, toggle_edge
from .knapsack import load_knapsack
from .mechanisms import (ApproxParams, WrapConfig, lemma_fptas_bounds, route_params,
                         theorem_main_bounds, wrap_trials)
from .noise import make_rng
from .streams import load_stream, stream_neighbor
from .substrates import (dataset_kind, default_delta_f, exact_value, make_substrate,
                         query_budget)

__all__ = ["main"]

_STATIC_PRESETS = {
    "cc": {"substrate": "cc_estimate", "alpha": 0.5, "kappa_frac": 0.1},
    "mst": {"substrate": "mst_estimate", "alpha": 0.2},
    "l2": {"substrate": "l2_ams", "alpha": 0.2, "delta": 0.01},
    "f0": {"substrate": "f0_kmv", "alpha": 0.2, "delta": 0.01},
    "sw-de": {"substrate": "sw_de", "alpha": 0.2, "delta": 0.01},
}

_LOADERS = {"graph": load_graph, "stream": load_stream, "knapsack": load_knapsack}


class CliError(Exception):
    pass


def _apply_preset(config: dict) -> dict:
    name = config.get("preset")
    if name is None:
        return dict(config)
    if name not in _STATIC_PRESETS:
        raise CliError(f"unknown preset {name!r}; known: {', '.join(sorted(_STATIC_PRESETS))}")
    merged = dict(_STATIC_PRESETS[name])
    merged.update(config)
    return merged


def _derive_preset_values(config: dict, dataset):
    """Fill data-dependent preset defaults for keys the user left unset."""
    name = config.get("preset")
    if name in ("cc", "mst"):
        n = dataset.n
        if n == 0:
            raise CliError(f"preset {name!r} needs a graph with at least one vertex")
        log_n = math.log(max(n, 3))
        config.setdefault("delta", 1.0 / n)
        config.setdefault("gamma", log_n)
        if name == "cc":
            frac = config["kappa_frac"]
            config.setdefault("kappa", frac * n)
            config.setdefault("tau_override", frac * n / log_n)
    elif name in ("l2", "f0", "sw-de"):
        config.setdefault("gamma", math.log(max(dataset.length, 3)))


def _count(config: dict, key: str, default: int, low: int) -> int:
    """The integer config[key] (default when unset), at least low."""
    value = config.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise CliError(f"{key!r} must be an integer >= {low}, got {value!r}")
    return value


class _Run(NamedTuple):
    substrate: object
    dataset: object
    wrap_cfg: WrapConfig
    route: str
    params: ApproxParams


def _build_run(config: dict) -> _Run:
    """Resolve (substrate, dataset, WrapConfig, route, params) from a merged config."""
    if "substrate" not in config:
        raise CliError("config needs a 'substrate' (or a 'preset' that sets one)")
    name = config["substrate"]
    kind = dataset_kind(name)
    if "input" not in config:
        raise CliError("config needs an 'input' dataset path")
    try:
        dataset = _LOADERS[kind](config["input"])
    except OSError as exc:
        raise CliError(f"cannot read {kind} file {config['input']!r}: {exc}") from exc
    _derive_preset_values(config, dataset)
    if "epsilon" not in config:
        raise CliError("config needs 'epsilon'")
    delta_f = config["delta_f"] if "delta_f" in config else default_delta_f(name, dataset)
    if delta_f is None:
        raise CliError(f"substrate {name!r} has no default sensitivity; set 'delta_f'")
    wrap_cfg = WrapConfig(
        epsilon=float(config["epsilon"]),
        delta=float(config.get("delta", 1e-6)),
        alpha=float(config.get("alpha", 0.0)),
        kappa=float(config.get("kappa", 0.0)),
        delta_f=float(delta_f),
        gamma=float(config.get("gamma", 1.0)),
        tau_override=(None if config.get("tau_override") is None
                      else float(config["tau_override"])),
    )
    route = config.get("route", "laplace")
    substrate = make_substrate(name, config)
    return _Run(substrate, dataset, wrap_cfg, route, route_params(substrate, wrap_cfg, route))


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _trials(run: _Run, dataset, trials: int, seed: int, stream: int = 0):
    """The TrialChunks of `trials` releases of run on dataset, drawn from the
    rng stream (seed, stream)."""
    return wrap_trials(run.substrate, dataset, run.wrap_cfg, run.route,
                       make_rng(seed, stream), trials)


def run_wrap(config: dict) -> int:
    trials, seed = _count(config, "trials", 1, 1), _count(config, "seed", 0, 0)
    run = _build_run(config)
    debug = bool(config.get("debug_trace", False))
    rows = ["trial,substrate_value,output,noise_scale,rho,tau" if debug
            else "trial,output"]
    for chunk in _trials(run, run.dataset, trials, seed):
        columns = ([chunk.substrate_value, chunk.output, chunk.noise_scale] if debug
                   else [chunk.output])
        tail = f",{chunk.rho!r},{chunk.tau!r}" if debug else ""
        for t, *values in zip(range(chunk.start, trials), *(c.tolist() for c in columns)):
            rows.append(",".join(map(repr, [t, *values])) + tail)
    _emit("\n".join(rows) + "\n", config.get("out"))
    return 0


def _toggle(config: dict):
    """(u, v, weight) of the edge a graph audit toggles: "toggle", two
    integers (default [0, 1]), and "toggle_weight", an integer >= 1."""
    pair = config.get("toggle", [0, 1])
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2 and all(
            isinstance(x, int) and not isinstance(x, bool) for x in pair)):
        raise CliError(f"'toggle' must be a list of two integers, got {pair!r}")
    return pair[0], pair[1], _count(config, "toggle_weight", 1, 1)


def _neighbor_dataset(config: dict, dataset, kind, seed: int, toggle):
    if "input_prime" in config:
        return _LOADERS[kind](config["input_prime"])
    if kind == "graph":
        return toggle_edge(dataset, *toggle)
    if kind == "stream":
        return stream_neighbor(dataset, make_rng(seed, 2 ** 31))
    raise CliError("audit of a knapsack instance needs an explicit 'input_prime' file")


def run_audit(config: dict) -> int:
    trials, seed = _count(config, "trials", 1000, 1000), _count(config, "seed", 0, 0)
    bins = _count(config, "bins", 40, 2)
    if bins > trials:
        raise CliError(f"'bins' must be at most 'trials' = {trials}, got {bins}")
    delta_slack = float(config.get("delta_slack", 0.0))
    if not (0.0 <= delta_slack < 1.0):
        raise CliError(f"'delta_slack' must lie in [0, 1), got {delta_slack!r}")
    toggle = _toggle(config)
    run = _build_run(config)
    neighbor = _neighbor_dataset(config, run.dataset, dataset_kind(config["substrate"]),
                                 seed, toggle)
    out_a = np.concatenate([c.output for c in _trials(run, run.dataset, trials, seed, 0)])
    out_b = np.concatenate([c.output for c in _trials(run, neighbor, trials, seed, 1)])
    report = audit_samples(out_a, out_b, bins, delta_slack)
    _emit(report.to_json() + "\n", config.get("out"))
    limit = config.get("epsilon_limit")
    if limit is not None and report.epsilon_hat > float(limit):
        print(f"audit: epsilon_hat {report.epsilon_hat:.4f} exceeds limit {limit}",
              file=sys.stderr)
        return 1
    return 0


def run_coverage(config: dict) -> int:
    trials, seed = _count(config, "trials", 1000, 1), _count(config, "seed", 0, 0)
    run = _build_run(config)
    wrap_cfg = run.wrap_cfg
    exact = exact_value(config["substrate"], run.dataset, config)
    if run.route == "laplace":
        alpha_p, kappa_p, additive = theorem_main_bounds(wrap_cfg)
        lo = (1.0 - alpha_p) * exact - kappa_p - additive
        hi = (1.0 + alpha_p) * exact + kappa_p + additive
        target = 1.0 - wrap_cfg.delta - math.exp(-wrap_cfg.gamma)
    else:
        mult, add_kappa, add_sens = lemma_fptas_bounds(
            run.params.alpha, run.params.kappa, wrap_cfg.delta_f, wrap_cfg.epsilon,
            wrap_cfg.gamma)
        lo = (1.0 - mult) * exact - add_kappa - add_sens
        hi = (1.0 + mult) * exact + add_kappa + add_sens
        target = 0.9
    inside = sum(int(np.count_nonzero((lo <= c.output) & (c.output <= hi)))
                 for c in _trials(run, run.dataset, trials, seed))
    coverage = inside / trials
    sigma = math.sqrt(target * (1.0 - target) / trials)
    threshold = target - 3.0 * sigma
    passed = coverage >= threshold
    _emit(json.dumps({
        "coverage": coverage, "target": target, "threshold": threshold,
        "passed": passed, "trials": trials, "exact": exact,
        "interval": [lo, hi],
    }) + "\n", config.get("out"))
    return 0 if passed else 1


def run_bench(config: dict) -> int:
    trials, seed = _count(config, "trials", 1, 1), _count(config, "seed", 0, 0)
    run = _build_run(config)
    budget = query_budget(config["substrate"], run.dataset, run.params)
    per_trial = []
    ok = True
    for chunk in _trials(run, run.dataset, trials, seed):
        for t, output, trial_cost in zip(range(chunk.start, trials), chunk.output.tolist(),
                                         chunk.cost):
            cost = {k: v for k, v in trial_cost.items() if v}
            if cost.get("queries", 0) > budget:
                ok = False
            per_trial.append({"trial": t, "output": output, **cost})
    _emit(json.dumps({
        "substrate": config["substrate"], "trials": trials,
        "query_budget": None if math.isinf(budget) else budget,
        "within_budget": ok, "per_trial": per_trial,
    }) + "\n", config.get("out"))
    return 0 if ok else 1


_COMMANDS = {"wrap": run_wrap, "audit": run_audit,
             "coverage": run_coverage, "bench": run_bench}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dpb", description="Differentially private approximation experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--debug-trace", action="store_true", default=None)
    args = parser.parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"dpb: cannot load config {args.config!r}: {exc}", file=sys.stderr)
        return 2
    if not isinstance(config, dict):
        print("dpb: config must be a JSON object", file=sys.stderr)
        return 2
    try:
        config = _apply_preset(config)
        for key, value in (("seed", args.seed), ("trials", args.trials),
                           ("out", args.out), ("debug_trace", args.debug_trace)):
            if value is not None:
                config[key] = value
        return _COMMANDS[args.command](config)
    except (CliError, ValueError) as exc:
        print(f"dpb: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
