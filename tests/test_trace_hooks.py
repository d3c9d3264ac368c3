"""The benchmark's span tracer (perfbench/spans.py) still finds every graph
hook it patches, sees calls through each, and leaves the query meter as it
is. A renamed or bypassed hook would otherwise show only in a traced run.
The CLI's own dataset loads and audit neighbours count too: a loader table
or neighbour rule the tracer cannot patch would drop them from the spans.
The stream round does the same for the KMV hooks, which the sliding-window
family must reach through KmvSketch.update, and the mechanism round for the
wrappers, the samplers, to_pure_dp and the library audit: a route whose
sampler the tracer cannot patch would drop its draws from the spans."""

import contextlib
import importlib.util
import io
import json
import os

import dpbox
from dpbox import audit, cli, graph_estimators, graphs, mechanisms
from dpbox.noise import make_rng
from dpbox.substrates import make_substrate

_SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_AUDIT = {"epsilon": 1.0, "delta": 0.01, "alpha": 0.5, "gamma": 7.0, "trials": 1000}

# One round's CLI runs: (command, config). Together they load two graphs,
# one stream and two knapsack files, toggle one edge and draw one stream
# neighbour.
_CLI_RUNS = (
    ("bench", {"preset": "cc", "input": "data/demo_cc.graph", "epsilon": 1.0,
               "trials": 2}),
    ("audit", {"substrate": "cc_exact", "input": "data/demo_cc.graph", **_AUDIT}),
    ("audit", {"substrate": "f0_exact", "input": "data/demo_stream_insert.txt", **_AUDIT}),
    ("audit", {"substrate": "knapsack", "input": "data/demo_knapsack.txt",
               "input_prime": "data/demo_knapsack.txt", "route": "cauchy",
               "delta_f": 50.0, **_AUDIT}),
)


def _cli(tmp_path, i, command, payload):
    cfg = tmp_path / f"cfg{i}.json"
    cfg.write_text(json.dumps(payload), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([command, "--config", str(cfg), "--seed", "3"]) == 0
    return out.getvalue()


def _round(tmp_path):
    """The CLI outputs of _CLI_RUNS, the first being the cc preset's bench
    output on the demo graph, and the queries of one mst_weight_estimate on
    the demo MST graph, all looked up at call time."""
    outs = [_cli(tmp_path, i, *run) for i, run in enumerate(_CLI_RUNS)]
    g = graphs.load_graph("data/demo_mst.graph")
    qg = graph_estimators.QueryGraph(g)
    value = graph_estimators.mst_weight_estimate(qg, 0.5, 0.5, make_rng(4))
    assert graph_estimators.mst_weight_exact(g) == 10
    toggled = graphs.toggle_edge(g, 0, 1, 1)
    assert toggled.m == g.m + (-1 if g.has_edge(0, 1) else 1)
    return outs, value.hex(), qg.queries


def test_traced_graph_round_records_spans_and_the_same_queries(tmp_path):
    spans = _load_spans()
    plain = _round(tmp_path)
    tracer = spans.Tracer()
    patches = spans.install(tracer, dpbox)
    try:
        traced = _round(tmp_path)
    finally:
        patches.off()
    assert traced == plain
    bench_queries = sum(row["queries"] for row in json.loads(plain[0][0])["per_trial"])
    assert tracer.counters["graph_estimators.queries"] == bench_queries + plain[2]
    for name in ("graphs.load", "graphs.toggle", "graphs.components", "graphs.kruskal",
                 "graphs.subgraph", "graph_estimators.cc_estimate",
                 "graph_estimators.mst_estimate"):
        assert tracer.calls.get(name, 0) > 0, name
    # Two graph loads and one toggle are the CLI's; one of each is _round's own.
    assert tracer.calls["graphs.load"] == 3
    assert tracer.calls["graphs.toggle"] == 2
    assert tracer.calls["streams.load"] == 1
    assert tracer.calls["streams.neighbor"] == 1
    assert tracer.calls["knapsack.load"] == 2
    # Switched off, the tracer sees nothing more.
    calls = dict(tracer.calls)
    _round(tmp_path)
    assert tracer.calls == calls


# f0_kmv and sw_de at configs that tune k = 31 and 176 minima, fewer than
# the insert demo's 200 updates, so their sketches hash every item.
_STREAM_RUNS = (
    ("wrap", {"substrate": "f0_kmv", "input": "data/demo_stream_insert.txt", "epsilon": 20.0,
              "delta": 0.5, "alpha": 0.9, "debug_trace": True}),
    ("wrap", {"substrate": "sw_de", "input": "data/demo_stream_insert.txt", "window": 10,
              "epsilon": 18.0, "delta": 0.9, "alpha": 0.9, "debug_trace": True}),
)

# The f0 and sw-de presets tune millions of minima: on the demo stream they
# are in the exact regime (sketches.kmv_dims) and hash nothing.
_EXACT_REGIME_RUNS = (
    ("wrap", {"preset": "f0", "input": "data/demo_stream_insert.txt", "epsilon": 1.0,
              "debug_trace": True}),
    ("wrap", {"preset": "sw-de", "input": "data/demo_stream_insert.txt", "window": 10,
              "epsilon": 1.0, "debug_trace": True}),
)


def _traced(tmp_path, runs):
    """The CLI outputs of runs, untraced and traced, and the tracer."""
    spans = _load_spans()
    plain = [_cli(tmp_path, i, *run) for i, run in enumerate(runs)]
    tracer = spans.Tracer()
    patches = spans.install(tracer, dpbox)
    try:
        traced = [_cli(tmp_path, i, *run) for i, run in enumerate(runs)]
    finally:
        patches.off()
    return plain, traced, tracer


def test_traced_stream_round_sees_kmv_updates_and_the_same_outputs(tmp_path):
    plain, traced, tracer = _traced(tmp_path, _STREAM_RUNS)
    assert traced == plain
    assert tracer.calls["sketches.kmv"] > 0
    assert tracer.calls["windows.update"] == 200
    # One bulk insert of the 200-item demo stream for f0, and one update per
    # stream item for sw_de, whatever the number of live instances.
    assert tracer.counters["sketches.kmv_updates"] == 200 + 200


def test_traced_exact_regime_round_hashes_nothing(tmp_path):
    plain, traced, tracer = _traced(tmp_path, _EXACT_REGIME_RUNS)
    assert traced == plain
    assert tracer.calls["windows.update"] == 200
    assert "sketches.kmv_updates" not in tracer.counters


def test_traced_knapsack_coverage_records_the_exact_oracle(tmp_path):
    # coverage's exact value reaches knapsack_exact through the module global
    # of substrates._knapsack_optimum, which is where the tracer patches it.
    spans = _load_spans()
    tracer = spans.Tracer()
    patches = spans.install(tracer, dpbox)
    try:
        _cli(tmp_path, 0, "coverage", {
            "substrate": "knapsack", "input": "data/demo_knapsack.txt", "route": "cauchy",
            "delta_f": 50.0, "epsilon": 1.0, "alpha": 0.5, "gamma": 7.0, "trials": 100})
    finally:
        patches.off()
    assert tracer.calls["knapsack.exact"] == 1


# A Laplace release of a deterministic graph substrate and a Cauchy release
# of knapsack: each run draws its five trials' noise as one vector.
_MECHANISM_RUNS = (
    ("wrap", {"substrate": "cc_exact", "input": "data/demo_cc.graph", "epsilon": 1.0,
              "delta": 0.01, "alpha": 0.5, "kappa": 1.0, "trials": 5}),
    ("wrap", {"substrate": "knapsack", "input": "data/demo_knapsack.txt", "route": "cauchy",
              "delta_f": 50.0, "epsilon": 1.0, "alpha": 0.5, "trials": 5}),
)


def _mechanism_round(tmp_path):
    """The outputs of _MECHANISM_RUNS and the report of a library audit, 1,000
    trials a side, of wrap_laplace on cc_exact rounded by to_pure_dp, with
    every traced entry point looked up at call time."""
    outs = [_cli(tmp_path, i, *run) for i, run in enumerate(_MECHANISM_RUNS)]
    substrate = make_substrate("cc_exact")
    g = graphs.load_graph("data/demo_cc.graph")
    cfg = mechanisms.WrapConfig(epsilon=1.0, delta=0.01, alpha=0.5, kappa=1.0, delta_f=1.0,
                                gamma=3.0)
    grid = mechanisms.GridSpec(40.0, 0.5)

    def mech(dataset, rng):
        value = mechanisms.wrap_laplace(substrate, dataset, cfg, rng)[0]
        return mechanisms.to_pure_dp(value, grid, 1.0, 0.01, rng)

    report = audit.estimate_epsilon(mech, g, graphs.toggle_edge(g, 0, 1, 1), 1000, 20, seed=3)
    return outs, report.to_json()


def test_traced_mechanism_round_counts_every_wrap_draw_and_audit(tmp_path):
    spans = _load_spans()
    plain = _mechanism_round(tmp_path)
    tracer = spans.Tracer()
    patches = spans.install(tracer, dpbox)
    try:
        traced = _mechanism_round(tmp_path)
    finally:
        patches.off()
    assert traced == plain
    # wrap_trials draws each CLI run's noise as one vector and calls no
    # wrapper; the audit wraps, draws and rounds once per trial.
    assert tracer.calls["noise.sample"] == 2 + 2000
    assert tracer.calls["mechanisms.wrap"] == 2000
    assert tracer.calls["mechanisms.to_pure_dp"] == 2000
    assert tracer.calls["audit.estimate"] == 1
