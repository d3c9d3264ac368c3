"""The benchmark's span tracer (perfbench/spans.py) still finds every graph
hook it patches, sees calls through each, and leaves the query meter as it
is. A renamed or bypassed hook would otherwise show only in a traced run."""

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


def _round(tmp_path):
    """The cc preset's bench output on the demo graph, and the queries of one
    mst_weight_estimate on the demo MST graph, all looked up at call time."""
    cfg = tmp_path / "cc.json"
    cfg.write_text(json.dumps({"preset": "cc", "input": "data/demo_cc.graph",
                               "epsilon": 1.0, "trials": 2}), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["bench", "--config", str(cfg), "--seed", "3"]) == 0
    g = graphs.load_graph("data/demo_mst.graph")
    qg = graph_estimators.QueryGraph(g)
    value = graph_estimators.mst_weight_estimate(qg, 0.5, 0.5, make_rng(4))
    assert graph_estimators.mst_weight_exact(g) == 10
    toggled = graphs.toggle_edge(g, 0, 1, 1)
    assert toggled.m == g.m + (-1 if g.has_edge(0, 1) else 1)
    return out.getvalue(), value.hex(), qg.queries


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
    bench_queries = sum(row["queries"] for row in json.loads(plain[0])["per_trial"])
    assert tracer.counters["graph_estimators.queries"] == bench_queries + plain[2]
    for name in ("graphs.load", "graphs.toggle", "graphs.components", "graphs.kruskal",
                 "graphs.subgraph", "graph_estimators.cc_estimate",
                 "graph_estimators.mst_estimate"):
        assert tracer.calls.get(name, 0) > 0, name
    # Switched off, the tracer sees nothing more.
    calls = dict(tracer.calls)
    _round(tmp_path)
    assert tracer.calls == calls
