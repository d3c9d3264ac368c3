"""Benchmark of dpbox releases and audits.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. One process, one client, one thread: the
workload's operations run back to back in rounds (closed loop) until S
seconds have passed; the round in progress always completes, so every run
attempts whole rounds. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics. The shared host's speed drifts by
a third within minutes, so seconds measured in runs minutes apart do not
compare. Every operation and every setup therefore runs twice, back to back
in alternating order: on dpbox from src/, and on a frozen copy of dpbox in
perfbench/baseline/ that no later change edits. setup_s and wall_s are the
baseline's reference times (workloads.py) multiplied by the ratio of the
total times of the two, that is seconds at the reference machine's speed;
trials_per_s is mechanism evaluations per wall_s; peak_rss_mb is the peak
resident set after setup and one warm-up round of src/ dpbox, before the
baseline is imported.
--trace 1 runs src/ dpbox alone, alternates untraced and traced rounds,
reports the per-layer metrics per traced round in measured seconds, and
writes them to perfbench/out/trace-<workload>.json.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
BASELINE = os.path.join(HERE, "baseline", "dpbox")
SETUP_REPEATS = 5

LAYER_METRICS = [
    "cli.self_s",
    "graphs.load_s", "graphs.load_calls", "graphs.subgraph_s", "graphs.kruskal_s",
    "graphs.toggle_s", "graphs.components_s", "graphs.components_calls",
    "graph_estimators.cc_estimate_s", "graph_estimators.cc_estimate_calls",
    "graph_estimators.mst_estimate_s", "graph_estimators.queries",
    "knapsack.load_s", "knapsack.fptas_s", "knapsack.fptas_calls", "knapsack.exact_s",
    "streams.load_s", "streams.neighbor_s", "streams.exact_s", "streams.exact_calls",
    "sketches.ams_s", "sketches.ams_space_words", "sketches.kmv_s", "sketches.kmv_updates",
    "windows.update_s", "windows.updates", "windows.instances_max",
    "substrates.evaluate_s", "substrates.evaluate_calls", "substrates.repeat_ratio",
    "mechanisms.wrap_s", "mechanisms.wrap_calls", "mechanisms.to_pure_dp_s",
    "mechanisms.to_pure_dp_calls",
    "noise.make_rng_s", "noise.make_rng_calls", "noise.sample_s", "noise.sample_calls",
    "audit.estimate_s",
    "bench.self_s", "trace.wall_s", "trace.overhead_s",
]


def _import_dpbox():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "dpbox", "__init__.py")):
        raise SystemExit(f"run.py: no dpbox sources under {src}; run from a dpbox checkout")
    sys.path.insert(0, src)
    import dpbox
    import dpbox.cli  # noqa: F401  (the CLI module is not imported by the package)
    if not os.path.abspath(dpbox.__file__).startswith(src + os.sep):
        raise SystemExit(f"run.py: imported dpbox from {dpbox.__file__}, not from {src}")
    return dpbox


def _import_baseline():
    """The frozen copy of dpbox, imported as the package dpbox_baseline (its
    modules import each other relatively, so the copy is byte for byte)."""
    init = os.path.join(BASELINE, "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"run.py: no baseline dpbox under {BASELINE}")
    spec = importlib.util.spec_from_file_location(
        "dpbox_baseline", init, submodule_search_locations=[BASELINE])
    package = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = package
    spec.loader.exec_module(package)
    importlib.import_module("dpbox_baseline.cli")
    return package


def _timed(fn, *args):
    gc.collect()
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


class Runner:
    """Runs rounds of a workload's operations and tallies time and failures.

    Given baseline_ops, the same operations on the baseline package, each
    operation runs back to back with its baseline twin on the same seed, the
    twin first on every other operation and round, and baseline_walls records
    the twins' time of each round, over the operations that did not fail."""

    def __init__(self, ops, seed, baseline_ops=()):
        self.ops = ops
        self.seed = seed
        self.baseline_ops = baseline_ops
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.round_walls = []
        self.baseline_walls = []
        self.round_index = 0

    def _fail(self, op, what):
        self.failed += 1
        print(f"run.py: {op.name} failed: {what}", file=sys.stderr)

    def round(self):
        round_seed = self.seed * 100_003 + self.round_index
        self.round_index += 1
        wall = base = 0.0
        for i, op in enumerate(self.ops):
            twin = self.baseline_ops[i] if self.baseline_ops else None
            twin_first = twin is not None and (self.round_index + i) % 2 == 0
            twin_s = _timed(twin.run, round_seed) if twin_first else 0.0
            run = op.run if self.tracer is None else self.tracer.span("bench", op.run)
            self.attempted += 1
            gc.collect()
            start = time.perf_counter()
            try:
                result = run(round_seed)
            except Exception:  # the program raised: count it, keep measuring
                self._fail(op, traceback.format_exc())
                continue
            wall += time.perf_counter() - start
            if twin is not None and not twin_first:
                twin_s = _timed(twin.run, round_seed)
            base += twin_s
            try:
                op.check(result)
            except Exception as exc:  # checks.CheckFailed, or output that does not parse
                self._fail(op, f"{type(exc).__name__}: {exc}")
        if self.tracer is not None:
            self.tracer.forget()
        self.round_walls.append(wall)
        if self.baseline_ops:
            self.baseline_walls.append(base)

    def run_for(self, seconds, between):
        """Rounds until `seconds` have passed, calling between() after each
        round but the last."""
        deadline = time.perf_counter() + seconds
        while True:
            self.round()
            if time.perf_counter() >= deadline:
                return
            between()


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def _layer_metrics(tracer, traced_walls, untraced_walls):
    rounds = len(traced_walls)
    values = {}
    for name in LAYER_METRICS:
        base, _, kind = name.rpartition("_")
        if name in tracer.counters:
            values[name] = tracer.counters[name] / rounds
        elif name in tracer.maxima:
            values[name] = tracer.maxima[name]
        elif kind == "s" and base in tracer.self_s:
            values[name] = tracer.self_s[base] / rounds
        elif kind == "calls" and base in tracer.calls:
            values[name] = tracer.calls[base] / rounds
        else:
            values[name] = 0
    values["bench.self_s"] = tracer.self_s.get("bench", 0.0) / rounds
    values["trace.wall_s"] = statistics.fmean(traced_walls)
    values["trace.overhead_s"] = values["trace.wall_s"] - statistics.fmean(untraced_walls)
    values["substrates.repeat_ratio"] = (tracer.det_repeats / tracer.det_evals
                                         if tracer.det_evals else 0.0)
    return {name: _metric(values[name], _layer_unit(name)) for name in LAYER_METRICS}


def _end_to_end(workload, ops, args):
    # A warm-up round of src/ dpbox alone fills caches and finishes lazy
    # set-up before anything is timed, and sets the peak resident set of the
    # program's setup and one round before the baseline adds its own.
    Runner(ops, args.seed).round()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    twin = workload.for_program(_import_baseline())
    twin.setup()
    twin_ops = twin.operations()
    gc.collect()
    gc.freeze()

    setups, twin_setups = [], []

    def paired_setup():
        order = [(workload, setups), (twin, twin_setups)]
        if len(setups) % 2:
            order.reverse()
        for w, times in order:
            w.loaded.clear()
            times.append(_timed(w.setup))

    for _ in range(SETUP_REPEATS):
        paired_setup()
    runner = Runner(ops, args.seed, twin_ops)
    # One more setup pair after every round, so that setup_s samples the
    # whole run, as wall_s does.
    runner.run_for(args.seconds, between=paired_setup)
    if not sum(runner.baseline_walls):
        raise SystemExit("run.py: every operation failed; no time to compare")
    # Ratios of totals: every pair counts by its duration, as in a round.
    setup_ratio = sum(setups) / sum(twin_setups)
    ratio = sum(runner.round_walls) / sum(runner.baseline_walls)
    wall = workload.REFERENCE_ROUND_S * ratio
    print(f"run.py: {len(runner.round_walls)} rounds: src/ median "
          f"{statistics.median(runner.round_walls):.4f} s, baseline median "
          f"{statistics.median(runner.baseline_walls):.4f} s, ratio {ratio:.4f}; "
          f"{len(setups)} setups: src/ median {statistics.median(setups):.4f} s, "
          f"baseline median {statistics.median(twin_setups):.4f} s, ratio "
          f"{setup_ratio:.4f}", file=sys.stderr)
    evaluations = sum(op.evaluations for op in ops)
    return runner, {
        "setup_s": _metric(workload.REFERENCE_SETUP_S * setup_ratio, "s"),
        "wall_s": _metric(wall, "s"),
        "trials_per_s": _metric(evaluations / wall, "1/s"),
        "peak_rss_mb": _metric(peak_mb, "MB"),
    }


def _traced(dpbox, ops, args):
    import spans

    gc.collect()
    gc.freeze()
    # Untraced and traced rounds alternate, so that both halves see the
    # same drift in machine speed and their difference is the tracing cost.
    runner = Runner(ops, args.seed)
    tracer = spans.Tracer()
    patches = spans.install(tracer, dpbox)
    traced, untraced = [], []
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        patches.off()
        runner.tracer = None
        runner.round()
        untraced.append(runner.round_walls[-1])
        patches.on()
        runner.tracer = tracer
        runner.round()
        traced.append(runner.round_walls[-1])
    patches.off()
    metrics = _layer_metrics(tracer, traced, untraced)
    with open(os.path.join(OUT, f"trace-{args.workload}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "rounds_untraced": len(untraced), "rounds_traced": len(traced),
                   "metrics": {k: v["value"] for k, v in metrics.items()},
                   "self_s": tracer.self_s, "calls": tracer.calls},
                  fh, indent=1, sort_keys=True)
    return runner, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    dpbox = _import_dpbox()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"run.py: unknown workload {args.workload!r}; "
                         f"known: {', '.join(workloads.WORKLOADS)}")
    workdir = os.path.join(OUT, "inputs", f"{args.workload}-{args.seed}")
    os.makedirs(workdir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](dpbox, ROOT, workdir, args.seed)

    # Every timed span starts from an empty young generation, and the
    # benchmark's own inputs and references are frozen out of the collector,
    # so garbage-collection pauses land alike in every run.
    gc.collect()
    gc.freeze()
    workload.setup()
    ops = workload.operations()
    if args.trace == 0:
        runner, metrics = _end_to_end(workload, ops, args)
    else:
        runner, metrics = _traced(dpbox, ops, args)

    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
