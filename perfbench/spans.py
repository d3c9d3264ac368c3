"""In-memory span tracer for the traced run.

install() wraps the public functions of each dpbox layer in a span, at every
place the function object is reachable: its defining module, every dpbox
module that imported it by name, module-level dicts that hold it (the CLI's
loader table), and the package namespace. Methods are wrapped on their class.
Spans are aggregated as they close: per metric name, self time (span minus
its child spans) and calls (spans not nested in a span of the same name).
Nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import time


class Tracer:
    def __init__(self):
        self.self_s = {}
        self.calls = {}
        self.counters = {}
        self.maxima = {}
        self._stack = []
        self._seen_det = set()
        self._det_refs = []
        self.det_evals = 0
        self.det_repeats = 0

    def span(self, name, fn):
        stack, self_s, calls = self._stack, self.self_s, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - frame[1]
                stack.pop()
                self_s[name] = self_s.get(name, 0.0) + dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if not stack or stack[-1][0] != name:
                    calls[name] = calls.get(name, 0) + 1

        return wrapper

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def note_max(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def note_deterministic(self, substrate, dataset, params):
        """Record a deterministic evaluation; counts it as a repeat when the
        same (substrate, dataset object, params) was evaluated before. The
        dataset is kept alive until forget() so its id cannot be reused."""
        key = (substrate.label, id(dataset), params.alpha, params.kappa, params.fail_prob)
        self.det_evals += 1
        if key in self._seen_det:
            self.det_repeats += 1
        else:
            self._seen_det.add(key)
            self._det_refs.append(dataset)

    def forget(self):
        self._seen_det.clear()
        self._det_refs.clear()


class Patches:
    """The replacements install() made; on() applies them, off() restores the
    original objects, so traced and untraced rounds can alternate."""

    def __init__(self):
        self._items = []  # (setter, original, wrapped)

    def add(self, setter, original, wrapped):
        self._items.append((setter, original, wrapped))

    def on(self):
        for setter, _, wrapped in self._items:
            setter(wrapped)

    def off(self):
        for setter, original, _ in reversed(self._items):
            setter(original)


def _setattr(obj, attr):
    return lambda value: setattr(obj, attr, value)


def _setitem(mapping, key):
    return lambda value: mapping.__setitem__(key, value)


def install(tracer, dpbox):
    """Wrap every traced dpbox entry point; returns the Patches, switched on."""
    from dpbox import (audit, cli, graph_estimators, graphs, knapsack, mechanisms,
                       noise, sketches, streams, substrates, windows)
    modules = [dpbox, audit, cli, graph_estimators, graphs, knapsack, mechanisms,
               noise, sketches, streams, substrates, windows]
    patches = Patches()

    def wrap_function(mod, attr, name, fn=None):
        original = getattr(mod, attr)
        wrapped = tracer.span(name, fn or original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    patches.add(_setattr(m, key), original, wrapped)
                elif isinstance(value, dict):
                    for k, item in list(value.items()):
                        if item is original:
                            patches.add(_setitem(value, k), original, wrapped)

    def wrap_method(cls, attr, name, fn=None):
        original = getattr(cls, attr)
        patches.add(_setattr(cls, attr), original, tracer.span(name, fn or original))

    wrap_function(cli, "main", "cli.self")

    wrap_function(graphs, "load_graph", "graphs.load")
    wrap_function(graphs, "toggle_edge", "graphs.toggle")
    wrap_function(graphs, "connected_components_exact", "graphs.components")
    wrap_function(graphs, "kruskal_mst_weight", "graphs.kruskal")
    wrap_method(graphs.Graph, "subgraph_weight_at_most", "graphs.subgraph")

    cc_estimate = graph_estimators.cc_estimate

    def counted_cc_estimate(g, params, rng):
        qg = g if isinstance(g, graph_estimators.QueryGraph) else graph_estimators.QueryGraph(g)
        before = qg.queries
        try:
            return cc_estimate(qg, params, rng)
        finally:
            tracer.count("graph_estimators.queries", qg.queries - before)

    wrap_function(graph_estimators, "cc_estimate", "graph_estimators.cc_estimate",
                  counted_cc_estimate)
    wrap_function(graph_estimators, "mst_weight_estimate", "graph_estimators.mst_estimate")

    wrap_function(knapsack, "load_knapsack", "knapsack.load")
    wrap_function(knapsack, "knapsack_fptas", "knapsack.fptas")
    wrap_function(knapsack, "knapsack_exact", "knapsack.exact")

    wrap_function(streams, "load_stream", "streams.load")
    wrap_function(streams, "stream_neighbor", "streams.neighbor")
    for attr in ("exact_frequencies", "exact_distinct", "exact_f2", "exact_l2"):
        wrap_function(streams, attr, "streams.exact")

    ams_init = sketches.AmsSketch.__init__

    def counted_ams_init(self, *args, **kwargs):
        ams_init(self, *args, **kwargs)
        tracer.count("sketches.ams_space_words", self.space_words)

    wrap_method(sketches.AmsSketch, "__init__", "sketches.ams", counted_ams_init)
    for attr in ("update", "update_bulk", "consume", "estimate"):
        wrap_method(sketches.AmsSketch, attr, "sketches.ams")

    kmv_update, kmv_bulk = sketches.KmvSketch.update, sketches.KmvSketch.update_bulk

    def counted_kmv_update(self, item):
        tracer.count("sketches.kmv_updates", 1)
        return kmv_update(self, item)

    def counted_kmv_bulk(self, items):
        tracer.count("sketches.kmv_updates", len(items))
        return kmv_bulk(self, items)

    wrap_method(sketches.KmvSketch, "update", "sketches.kmv", counted_kmv_update)
    wrap_method(sketches.KmvSketch, "update_bulk", "sketches.kmv", counted_kmv_bulk)
    for attr in ("__init__", "consume", "estimate"):
        wrap_method(sketches.KmvSketch, attr, "sketches.kmv")

    sh_update = windows.SmoothHistogram.update

    def counted_sh_update(self, item):
        sh_update(self, item)
        tracer.count("windows.updates", 1)
        tracer.note_max("windows.instances_max", self.instance_count())

    wrap_method(windows.SmoothHistogram, "update", "windows.update", counted_sh_update)

    evaluate = mechanisms.TunableSubstrate.evaluate

    def noted_evaluate(self, dataset, params, rng):
        if self.is_deterministic:
            tracer.note_deterministic(self, dataset, params)
        return evaluate(self, dataset, params, rng)

    wrap_method(mechanisms.TunableSubstrate, "evaluate", "substrates.evaluate", noted_evaluate)

    wrap_function(mechanisms, "wrap_laplace", "mechanisms.wrap")
    wrap_function(mechanisms, "wrap_cauchy", "mechanisms.wrap")
    wrap_function(mechanisms, "to_pure_dp", "mechanisms.to_pure_dp")
    wrap_function(noise, "make_rng", "noise.make_rng")
    wrap_function(noise, "sample_laplace", "noise.sample")
    wrap_function(noise, "sample_cauchy", "noise.sample")
    wrap_function(audit, "estimate_epsilon", "audit.estimate")
    patches.on()
    return patches
