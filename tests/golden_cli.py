"""A golden matrix of seed-7 `dpb` runs, and the script that records it.

RUNS lists fixed runs of wrap, wrap --debug-trace, bench, coverage and audit
over the ten substrates on the demo files (both routes where the substrate
is deterministic, one refused Cauchy run where it is not), the presets on
their matching demo files and with substrates of another dataset kind, both
MST substrates on an edge-neighbour pair whose second graph is disconnected,
and refusals: bad configs, keys the run would not read, and the small
malformed inputs under tests/golden/. golden_cli.json, beside this file,
keeps each run's exit code and the sha256 of its stdout and stderr;
tests/test_golden_cli.py replays the runs in-process and compares.

    python tests/golden_cli.py          # rewrite golden_cli.json
    python tests/golden_cli.py --diff   # name the runs that moved; write nothing

Left out, for tier-1 time: the mst preset (14-20 s a trial on
data/demo_mst.graph), and the audits of sw_de and mst_estimate (1,000 trials
a side at about 40 ms and 3 ms an evaluation).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")

_FILES = {
    "graph": ("data/demo_cc.graph", "data/demo_mst.graph"),
    "stream": ("data/demo_stream_insert.txt", "data/demo_stream_turnstile.txt"),
    "knapsack": ("data/demo_knapsack.txt",),
}

# substrate -> (dataset kind, deterministic, config keys). The values keep
# each randomized substrate's sketch or start sample small; gamma 8 lets the
# deterministic ones run Cauchy coverage, which needs gamma >= 6.5.
_SUBSTRATES = {
    "cc_exact": ("graph", True, {"epsilon": 1.0, "delta": 0.01, "alpha": 0.5, "kappa": 1.0,
                                 "gamma": 8.0}),
    "cc_estimate": ("graph", False, {"epsilon": 4.0, "delta": 0.9, "alpha": 0.9,
                                     "kappa": 6.0, "gamma": 3.0}),
    "mst_exact": ("graph", True, {"epsilon": 1.0, "delta": 0.01, "alpha": 0.5, "gamma": 8.0}),
    "mst_estimate": ("graph", False, {"epsilon": 20.0, "delta": 0.5, "alpha": 0.9,
                                      "gamma": 1.0}),
    "knapsack": ("knapsack", True, {"epsilon": 1.0, "alpha": 0.1, "delta_f": 50.0,
                                    "gamma": 8.0}),
    "l2_exact": ("stream", True, {"epsilon": 1.0, "delta": 0.05, "alpha": 0.5, "gamma": 8.0}),
    "l2_ams": ("stream", False, {"epsilon": 8.0, "delta": 0.5, "alpha": 0.9, "gamma": 3.0}),
    "f0_exact": ("stream", True, {"epsilon": 1.0, "delta": 0.05, "alpha": 0.5, "gamma": 8.0}),
    "f0_kmv": ("stream", False, {"epsilon": 4.0, "delta": 0.05, "alpha": 0.5, "gamma": 3.0}),
    "sw_de": ("stream", False, {"epsilon": 8.0, "delta": 0.5, "alpha": 0.9, "gamma": 3.0,
                                "window": 10}),
}

# command -> the flags every run of it gets besides --config and --seed 7.
_COMMANDS = {
    "wrap": ["--trials", "3"],
    "wrap-debug": ["--trials", "3", "--debug-trace"],
    "bench": ["--trials", "2"],
    "coverage": ["--trials", "20"],
    "audit": ["--trials", "1000"],
}

# Their 1,000-trial audits would take most of the matrix's time.
_NO_AUDIT = ("mst_estimate", "sw_de")

_KNAPSACK_PRIME = "tests/golden/knapsack_prime.txt"


def _file_runs():
    """(name, command, config) of every substrate on every demo file of its kind."""
    for substrate, (kind, deterministic, keys) in _SUBSTRATES.items():
        for path in _FILES[kind]:
            for route in ("laplace", "cauchy") if deterministic else ("laplace",):
                config = {"substrate": substrate, "input": path, "route": route, **keys}
                if substrate == "knapsack":
                    config["input_prime"] = _KNAPSACK_PRIME
                for command in _COMMANDS:
                    if substrate in _NO_AUDIT and command == "audit":
                        continue
                    name = f"{command}/{substrate}/{os.path.basename(path)}/{route}"
                    yield name, command, config


def _preset_runs():
    presets = {"cc": _FILES["graph"], "l2": _FILES["stream"], "f0": _FILES["stream"],
               "sw-de": _FILES["stream"]}
    for preset, paths in presets.items():
        for path in paths:
            config = {"preset": preset, "input": path, "epsilon": 1.0}
            if preset == "sw-de":
                config["window"] = 10
            for command in ("wrap", "wrap-debug", "bench"):
                yield f"{command}/preset-{preset}/{os.path.basename(path)}", command, config
    # A preset whose substrate is another kind's derives that kind's values.
    for preset, substrate, keys in (("l2", "cc_exact", {}), ("cc", "f0_exact", {}),
                                    ("l2", "knapsack", {"delta_f": 50.0}),
                                    ("cc", "knapsack", {"delta_f": 50.0})):
        path = _FILES[_SUBSTRATES[substrate][0]][0]
        config = {"preset": preset, "substrate": substrate, "input": path, "epsilon": 1.0,
                  **keys}
        for command in ("wrap-debug", "coverage"):
            yield (f"{command}/preset-{preset}-{substrate}/{os.path.basename(path)}", command,
                   config)


def _neighbour_pair_runs():
    """Both MST substrates on a path and on its edge neighbour without the
    middle edge, which releases too (its weight-w completion weighs 4), and an
    audit of the pair."""
    for substrate in ("mst_exact", "mst_estimate"):
        for name in ("mst_path.graph", "mst_path_cut.graph"):
            config = {"substrate": substrate, "input": f"tests/golden/{name}",
                      **_SUBSTRATES[substrate][2]}
            yield f"wrap/{substrate}/{name}/laplace", "wrap", config
    yield "audit/mst_exact/mst_path.graph/toggle-1-2", "audit", {
        "substrate": "mst_exact", "input": "tests/golden/mst_path.graph",
        **_SUBSTRATES["mst_exact"][2], "toggle": [1, 2], "toggle_weight": 2}


def _refusal_runs():
    cc = {"substrate": "cc_exact", **_SUBSTRATES["cc_exact"][2]}
    mst = {"substrate": "mst_exact", **_SUBSTRATES["mst_exact"][2]}
    f0 = {"substrate": "f0_exact", **_SUBSTRATES["f0_exact"][2]}
    knapsack = {"substrate": "knapsack", **_SUBSTRATES["knapsack"][2]}
    inputs = [
        (cc, "selfloop_then_bad_token.graph"),
        (mst, "weight_19_digits_beyond_int64.graph"),
        (mst, "weight_19_digits_within_int64.graph"),
        (f0, "outside_universe_then_fraction.stream"),
        (knapsack, "knapsack_three_tokens.txt"),
        (knapsack, "knapsack_x_value.txt"),
    ]
    for config, name in inputs:
        yield f"wrap/{config['substrate']}/{name}", "wrap", {
            **config, "input": f"tests/golden/{name}"}
    configs = {
        "cauchy-randomized": {"substrate": "cc_estimate", "input": "data/demo_cc.graph",
                              "epsilon": 1.0, "kappa": 1.0, "route": "cauchy"},
        "knapsack-audit-without-prime": {**knapsack, "input": "data/demo_knapsack.txt"},
        "sw_de-without-window": {"substrate": "sw_de", "input": "data/demo_stream_insert.txt",
                                 "epsilon": 1.0},
        "unknown-key": {**cc, "input": "data/demo_cc.graph", "gamma_scale": 2.0},
        "missing-epsilon": {"substrate": "cc_exact", "input": "data/demo_cc.graph"},
        "missing-input": {"substrate": "cc_exact", "input": "tests/golden/absent.graph",
                          "epsilon": 1.0},
        "kappa_frac-without-preset": {**cc, "input": "data/demo_cc.graph", "kappa_frac": 0.5},
        "window-under-f0-preset": {"preset": "f0", "input": "data/demo_stream_insert.txt",
                                   "epsilon": 1.0, "window": 3},
        "kappa_frac-on-a-stream-substrate": {"preset": "cc", "substrate": "f0_exact",
                                             "input": "data/demo_stream_insert.txt",
                                             "epsilon": 1.0, "kappa_frac": 0.3},
    }
    for label, config in configs.items():
        command = "audit" if label.startswith("knapsack-audit") else "wrap"
        yield f"{command}/refusal/{label}", command, config


RUNS = [*_file_runs(), *_preset_runs(), *_neighbour_pair_runs(), *_refusal_runs()]


def replay(command: str, config: dict) -> dict:
    """Run one matrix entry in-process, from the repository root: its exit
    code and the sha256 of its stdout and stderr. An exception that escapes
    main counts as exit 1 with its last traceback line on stderr."""
    from dpbox.cli import main

    flags = _COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([command.split("-")[0], "--config", path, "--seed", "7", *flags])
            except Exception as exc:  # recorded, as a traceback would be
                code = 1
                err.write(traceback.format_exception_only(type(exc), exc)[-1])
    return {"exit": code, "stdout": _sha256(out.getvalue()), "stderr": _sha256(err.getvalue())}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def record() -> dict:
    """Every run's replay, keyed by run name, with the working directory set
    to the repository root for the duration."""
    here = os.getcwd()
    os.chdir(ROOT)
    try:
        return {name: replay(command, config) for name, command, config in RUNS}
    finally:
        os.chdir(here)


def load() -> dict:
    with open(RECORD, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--diff", action="store_true",
                        help="name the runs whose record moved and write nothing")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    now = record()
    if args.diff:
        before = load() if os.path.exists(RECORD) else {}
        moved = sorted(name for name in now.keys() | before.keys()
                       if now.get(name) != before.get(name))
        for name in moved:
            was, is_ = before.get(name), now.get(name)
            if was is None or is_ is None:
                print(f"{name}: {'new run' if was is None else 'run removed'}")
            else:
                fields = [f"exit {was['exit']} -> {is_['exit']}" if key == "exit"
                          else f"{key} moved" for key in ("exit", "stdout", "stderr")
                          if was[key] != is_[key]]
                print(f"{name}: {', '.join(fields)}")
        print(f"{len(moved)} of {len(now)} runs moved")
        return 1 if moved else 0
    with open(RECORD, "w", encoding="utf-8") as fh:
        json.dump(now, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(now)} runs to {os.path.relpath(RECORD, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
