"""dpb: experiment runner for the privacy wrappers and their substrates.

    dpb <command> --config <file> [--seed N] [--trials N] [--out path]
                  [--debug-trace]

Commands: wrap (run a wrapped mechanism, emit CSV), audit (empirical epsilon
report, JSON), coverage (Monte-Carlo check of the route's accuracy_interval,
JSON), bench (resource counters and budget assertions, JSON). Configuration
is a JSON object; command-line flags override config keys of the same
meaning. Unknown keys, keys the run would not read (a "kappa_frac" without
a preset and a graph substrate, an extra key such as "window" that the
substrate's registry entry does not read), non-string names and paths, a
"debug_trace" other than true or false, and bad counts ("trials" >= 1, >=
1000 for audit; 2 <= "bins" <= trials; "seed" >= 0; all JSON integers) exit
2 before any file is read, as does a "trials" whose outputs
would pass the 1 GiB cap while wrap, audit or bench hold them (see
_COMMANDS). Both "input" and "input_prime" are read by
substrates.load_dataset.

Every run is reproducible byte-for-byte from (config, seed). wrap, coverage
and bench draw all their trials, one after another, from the one rng stream
(seed, 0), so the first k trials of a run do not depend on "trials". audit
draws its dataset side from (seed, 0) and its neighbor side from (seed, 1),
the audit.SIDE_STREAMS that the library's estimate_epsilon draws from too,
and a stream neighbor from (seed, 2^31), picked here. In bench output a
trial whose deterministic value was recalled, not computed, shows
"cached": 1: every trial of a run after the first.

Presets (config key "preset") bundle a substrate with the parameter choices
its accuracy statement uses; explicit config keys override them. Values that
depend on the data come from the loaded dataset, by the kind of the
substrate's dataset, whichever preset named it: on a graph of n >= 2
vertices, delta = 1/n and gamma = ln(n), and, when kappa_frac is set (the cc
preset sets it), kappa = kappa_frac*n and tau_override = kappa_frac*n/ln(n);
on a stream of m updates, gamma = ln(m); a knapsack instance gets none. Logs
take n and m at least 3. A graph preset refuses a graph of fewer than two
vertices, whose delta = 1/n would not lie below 1.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from typing import NamedTuple

import numpy as np

from .audit import SIDE_STREAMS, audit_samples
from .mechanisms import (TRIAL_CHUNK, ApproxParams, WrapConfig, accuracy_interval, route_params,
                         wrap_trials)
from .noise import make_rng
from .streams import _check_bytes
from .substrates import (EXTRA_KEYS, audit_neighbor, dataset_kind, default_delta_f,
                         exact_value, load_dataset, make_substrate, query_budget)

__all__ = ["main"]

_STATIC_PRESETS = {
    "cc": {"substrate": "cc_estimate", "alpha": 0.5, "kappa_frac": 0.1},
    "mst": {"substrate": "mst_estimate", "alpha": 0.2},
    "l2": {"substrate": "l2_ams", "alpha": 0.2, "delta": 0.01},
    "f0": {"substrate": "f0_kmv", "alpha": 0.2, "delta": 0.01},
    "sw-de": {"substrate": "sw_de", "alpha": 0.2, "delta": 0.01},
}

# Every key a config may set: the keys read here, and the substrates' extra keys.
_TEXT_KEYS = ("substrate", "preset", "input", "input_prime", "route", "out")
_KEYS = EXTRA_KEYS | frozenset(_TEXT_KEYS + (
    "epsilon", "delta", "alpha", "kappa", "delta_f", "gamma", "tau_override", "kappa_frac",
    "trials", "seed", "bins", "delta_slack", "epsilon_limit", "toggle", "toggle_weight",
    "debug_trace"))


class CliError(Exception):
    pass


def _apply_preset(config) -> dict:
    """config, a JSON object of known keys, merged over its preset's values."""
    if not isinstance(config, dict):
        raise CliError("config must be a JSON object")
    for key, value in config.items():
        if key not in _KEYS:
            raise CliError(f"{key!r} is not a config key; known: {', '.join(sorted(_KEYS))}")
        if key in _TEXT_KEYS and not isinstance(value, str):
            raise CliError(f"{key!r} must be a string, got {value!r}")
        if key == "debug_trace" and not isinstance(value, bool):
            raise CliError(f"{key!r} must be true or false, got {value!r}")
    name = config.get("preset")
    if name is not None and name not in _STATIC_PRESETS:
        raise CliError(f"unknown preset {name!r}; known: {', '.join(sorted(_STATIC_PRESETS))}")
    merged = {**_STATIC_PRESETS.get(name, {}), **config}
    # Only the graph rule of _derive_preset_values reads a kappa_frac, and only
    # a user-written one is refused: the cc preset's own may go unread.
    if "kappa_frac" in config and not (name and dataset_kind(merged["substrate"]) == "graph"):
        raise CliError("'kappa_frac' needs a 'preset' and a graph substrate, got "
                       + (f"substrate {merged['substrate']!r}" if name else "no preset"))
    return merged


def _derive_preset_values(config: dict, dataset):
    """Fill data-dependent preset defaults for keys the user left unset, by
    the kind of the substrate's dataset (see the module docstring); a config
    without a preset gets none."""
    name = config.get("preset")
    kind = dataset_kind(config["substrate"]) if name else None
    if kind == "graph":
        n = dataset.n
        if n < 2:
            raise CliError(f"preset {name!r} needs a graph with more than one vertex, got {n}")
        log_n = math.log(max(n, 3))
        config.setdefault("delta", 1.0 / n)
        config.setdefault("gamma", log_n)
        if "kappa_frac" in config:
            frac = _real(config, "kappa_frac", None)
            config.setdefault("kappa", frac * n)
            config.setdefault("tau_override", frac * n / log_n)
    elif kind == "stream":
        config.setdefault("gamma", math.log(max(dataset.length, 3)))


def _count(config: dict, key: str, default: int, low: int) -> int:
    """The integer config[key] (default when unset), at least low."""
    value = config.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise CliError(f"{key!r} must be an integer >= {low}, got {value!r}")
    return value


def _real(config: dict, key: str, default) -> float:
    """The number config[key] (default when unset) as a float."""
    value = config.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CliError(f"{key!r} must be a number, got {value!r}")
    return float(value)


class _Run(NamedTuple):
    substrate: object
    dataset: object
    wrap_cfg: WrapConfig
    route: str
    params: ApproxParams

    def trials(self, dataset, trials: int, seed: int, stream: int = 0):
        """The TrialChunks of `trials` releases on dataset, drawn from the rng
        stream (seed, stream)."""
        return wrap_trials(self.substrate, dataset, self.wrap_cfg, self.route,
                           make_rng(seed, stream), trials)


def _build_run(config: dict) -> _Run:
    """Resolve (substrate, dataset, WrapConfig, route, params) from a merged config."""
    if "substrate" not in config:
        raise CliError("config needs a 'substrate' (or a 'preset' that sets one)")
    name = config["substrate"]
    substrate = make_substrate(name, config)
    if "input" not in config:
        raise CliError("config needs an 'input' dataset path")
    dataset = load_dataset(name, config["input"])
    _derive_preset_values(config, dataset)
    if "epsilon" not in config:
        raise CliError("config needs 'epsilon'")
    delta_f = (_real(config, "delta_f", None) if "delta_f" in config
               else default_delta_f(name, dataset))
    if delta_f is None:
        raise CliError(f"substrate {name!r} has no default sensitivity; set 'delta_f'")
    wrap_cfg = WrapConfig(
        epsilon=_real(config, "epsilon", None), delta=_real(config, "delta", 1e-6),
        alpha=_real(config, "alpha", 0.0), kappa=_real(config, "kappa", 0.0),
        delta_f=delta_f, gamma=_real(config, "gamma", 1.0),
        tau_override=(None if config.get("tau_override") is None
                      else _real(config, "tau_override", None)))
    route = config.get("route", "laplace")
    return _Run(substrate, dataset, wrap_cfg, route, route_params(substrate, wrap_cfg, route))


def _emit(text: str, out_path):
    if not out_path:
        return sys.stdout.write(text)
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {out_path!r}: {exc}") from exc


def run_wrap(config: dict, trials: int, seed: int) -> int:
    run = _build_run(config)
    debug = config.get("debug_trace", False)
    rows = ["trial,substrate_value,output,noise_scale,rho,tau" if debug
            else "trial,output"]
    for chunk in run.trials(run.dataset, trials, seed):
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
    if not (isinstance(pair, list) and len(pair) == 2 and all(type(x) is int for x in pair)):
        raise CliError(f"'toggle' must be a list of two integers, got {pair!r}")
    return pair[0], pair[1], _count(config, "toggle_weight", 1, 1)


def run_audit(config: dict, trials: int, seed: int) -> int:
    bins = _count(config, "bins", 40, 2)
    if bins > trials:
        raise CliError(f"'bins' must be at most 'trials' = {trials}, got {bins}")
    delta_slack = _real(config, "delta_slack", 0.0)
    if not (0.0 <= delta_slack < 1.0):
        raise CliError(f"'delta_slack' must lie in [0, 1), got {delta_slack!r}")
    limit = (None if config.get("epsilon_limit") is None
             else _real(config, "epsilon_limit", None))
    toggle = _toggle(config)
    run = _build_run(config)
    name = config["substrate"]
    neighbor = (load_dataset(name, config["input_prime"]) if "input_prime" in config
                else audit_neighbor(name, run.dataset, toggle, make_rng(seed, 2 ** 31)))
    out_a, out_b = (np.concatenate([c.output for c in run.trials(dataset, trials, seed, stream)])
                    for dataset, stream in zip((run.dataset, neighbor), SIDE_STREAMS))
    report = audit_samples(out_a, out_b, bins, delta_slack)
    _emit(report.to_json() + "\n", config.get("out"))
    if limit is not None and report.epsilon_hat > limit:
        print(f"audit: epsilon_hat {report.epsilon_hat:.4f} exceeds limit "
              f"{config['epsilon_limit']}", file=sys.stderr)
        return 1
    return 0


def run_coverage(config: dict, trials: int, seed: int) -> int:
    run = _build_run(config)
    # The first chunk comes before the oracle, which draws nothing, so the
    # estimator checks its input first, as under wrap and bench.
    chunks = run.trials(run.dataset, trials, seed)
    first = next(chunks)
    exact = exact_value(config["substrate"], run.dataset, config)
    lo, hi, target = accuracy_interval(exact, run.wrap_cfg, run.route)
    inside = sum(int(np.count_nonzero((lo <= c.output) & (c.output <= hi)))
                 for c in itertools.chain([first], chunks))
    coverage = inside / trials
    threshold = target - 3.0 * math.sqrt(target * (1.0 - target) / trials)
    passed = coverage >= threshold
    _emit(json.dumps({
        "coverage": coverage, "target": target, "threshold": threshold, "passed": passed,
        "trials": trials, "exact": exact, "interval": [lo, hi]}) + "\n", config.get("out"))
    return 0 if passed else 1


def run_bench(config: dict, trials: int, seed: int) -> int:
    run = _build_run(config)
    budget = query_budget(config["substrate"], run.dataset, run.params)
    per_trial = []
    for chunk in run.trials(run.dataset, trials, seed):
        for t, output, trial_cost in zip(range(chunk.start, trials), chunk.output.tolist(),
                                         chunk.cost):
            cost = {k: v for k, v in trial_cost.items() if v}
            per_trial.append({"trial": t, "output": output, **cost})
    ok = all(row.get("queries", 0) <= budget for row in per_trial)
    _emit(json.dumps({
        "substrate": config["substrate"], "trials": trials,
        "query_budget": None if math.isinf(budget) else budget,
        "within_budget": ok, "per_trial": per_trial}) + "\n", config.get("out"))
    return 0 if ok else 1


# command -> (run function, default trials, least trials, bytes each trial
# holds until the output is written, without and with --debug-trace). Each
# of the two is a pair: a trial inside the first TRIAL_CHUNK holds the first
# figure, and a trial past it the second. The first is the tracemalloc slope
# of randomized f0_kmv on the insert demo (epsilon 1, delta 0.05, alpha 0.5)
# within one chunk, from 1,000 to 4,000 and 2,000 to 6,000 trials, where its
# per-trial traces and bench cost keys weigh most. That config now counts in
# the exact regime (sketches.kmv_dims), whose cost has no sketch words, so
# there the first figure is an upper bound; at epsilon 20, delta 0.5, alpha
# 0.9, where the sketch hashes every item, the same slopes read at most 2%
# above the first figures, and audit's below. The second is the largest
# slope measured for f0_kmv and deterministic cc_exact across chunks, from
# 131,072 to 262,144 trials (to 524,288 for audit). All are rounded up.
# coverage counts each chunk as it is drawn and holds none.
_COMMANDS = {"wrap": (run_wrap, 1, 1, ((608, 129), (720, 278))),
             "audit": (run_audit, 1000, 1000, ((520, 44), (520, 44))),
             "coverage": (run_coverage, 1000, 1, ((0, 0), (0, 0))),
             "bench": (run_bench, 1, 1, ((1186, 397), (1186, 397)))}


def _build_parser() -> argparse.ArgumentParser:
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
    return parser


# Built once, at import: building the tree takes over ten times as long as parsing
# a command line with it.
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or encoding
            raise CliError(f"cannot load config {args.config!r}: {exc}") from exc
        config = _apply_preset(config)
        # The flags seed, trials, out and debug_trace override the config.
        config.update((k, v) for k, v in vars(args).items() if k in _KEYS and v is not None)
        run, default_trials, least_trials, held = _COMMANDS[args.command]
        trials = _count(config, "trials", default_trials, least_trials)
        in_chunk, past = held[config.get("debug_trace", False)]
        _check_bytes(min(trials, TRIAL_CHUNK) * in_chunk + max(trials - TRIAL_CHUNK, 0) * past,
                     f"'trials' = {trials}", f"{args.command} outputs")
        return run(config, trials, _count(config, "seed", 0, 0))
    except (CliError, ValueError) as exc:
        print(f"dpb: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
