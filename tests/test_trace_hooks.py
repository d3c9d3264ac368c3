"""The benchmark's span tracer (perfbench/spans.py) still finds every graph
hook it patches, sees calls through each, and leaves the query meter as it
is. A renamed or bypassed hook would otherwise show only in a traced run.
The CLI's own dataset loads and audit neighbours count too: a loader table
or neighbour rule the tracer cannot patch would drop them from the spans."""

import contextlib
import importlib.util
import io
import json
import os

import dpbox
from dpbox import cli, graph_estimators, graphs
from dpbox.noise import make_rng

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
