"""Named substrates: tunable estimators packaged for the privacy wrappers.

Each substrate is described once, by its entry in the registry at the
bottom: the dataset kind its loader reads, the exact oracle of the quantity
it estimates, its default global sensitivity delta_f, its evaluate function
(an exact substrate evaluates its oracle) and whether it is deterministic,
and, for the sublinear graph estimators, the worst-case query count of one
evaluation. evaluate(dataset, params, rng) translates the wrapper's
ApproxParams into the estimator's own knobs and returns (estimate, cost),
cost counting what that one call used. An entry names its oracle itself
(cc_exact, mst_weight_exact, exact_l2, exact_distinct), and exact_value
returns the oracle's value as a float. Only the knapsack entry names a
wrapper, _knapsack_optimum: the benchmark's span tracer (perfbench/spans.py)
patches knapsack_exact only where it is a module global, while the other
oracles call patched globals of their own modules.
Additive targets (ApproxParams.kappa) are in absolute output units
throughout; the component-count substrate divides by n internally to reach
the estimator's fractional knob. Exact oracles back the coverage harness,
the tests and the sketches' alpha = 0 answers.

The dataset kinds are owned here too: load_dataset reads a substrate's
dataset with its kind's loader, and audit_neighbor gives the neighbour an
audit compares it with (an edge toggle for a graph, a drawn neighbour for a
stream, none for a knapsack instance).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

from .graph_estimators import (QueryGraph, cc_exact, cc_knobs, cc_median, mst_level_knobs,
                               mst_weight_estimate, mst_weight_exact)
from .graphs import load_graph, toggle_edge
from .knapsack import knapsack_exact, knapsack_fptas, load_knapsack
from .mechanisms import ApproxParams, TunableSubstrate
from .sketches import AmsSketch, KmvSketch
from .streams import _sorted_distinct, exact_distinct, exact_l2, load_stream, stream_neighbor
from .windows import smooth_histogram_distinct

__all__ = [
    "SUBSTRATE_NAMES",
    "make_substrate",
    "dataset_kind",
    "load_dataset",
    "audit_neighbor",
    "exact_value",
    "default_delta_f",
    "query_budget",
    "EXTRA_KEYS",
]


def _knapsack_optimum(instance) -> float:
    """knapsack_exact, called through this module's global, where the span
    tracer patches it (see the module docstring)."""
    return knapsack_exact(instance)


def _window(config) -> dict:
    """sw_de's extras: the sliding-window length config["window"], an integer >= 1."""
    window = config.get("window")
    if isinstance(window, bool) or not isinstance(window, int) or window < 1:
        raise ValueError(f"sw_de needs an integer 'window' >= 1, got {window!r}")
    return {"window": window}


def _distinct_in_window(stream, window) -> int:
    return _sorted_distinct(stream.items[-window:]).size


def _recount(stream, oracle, **extras):
    """An exact stream answer, metering the updates read."""
    return oracle(stream, **extras), {"items": stream.length}


def _clamped_fail(params: ApproxParams, ceiling: float = 1.0 - 1e-12) -> float:
    return min(max(params.fail_prob, 1e-12), ceiling)


# Evaluate functions: (dataset, params, rng, **extras) -> estimate or (estimate, cost).

def _cc_estimate(graph, params, rng):
    """cc_median at the absolute additive target params.kappa, a fraction
    params.kappa/n of the vertices. Its replicas share one QueryGraph, hence
    one memo of sized vertices: cost["queries"] counts the probes actually
    made, and a start an earlier BFS has sized costs none."""
    if params.kappa <= 0.0:
        raise ValueError("cc_estimate needs a positive additive budget kappa")
    if graph.n == 0:
        return 0.0, {"queries": 0}
    qg = QueryGraph(graph)
    value = cc_median(qg, cc_knobs(params.kappa / qg.n, params.fail_prob), rng)
    return value, {"queries": qg.queries}


def _cc_estimate_queries(graph, params) -> float:
    if params.kappa <= 0.0:
        return math.inf
    if graph.n == 0:
        return 0.0
    cc_params, replicas = cc_knobs(params.kappa / graph.n, params.fail_prob)
    return replicas * cc_params.max_queries


def _mst_estimate(graph, params, rng):
    """Multiplicative only, so params.kappa is slack."""
    if params.alpha <= 0.0:
        raise ValueError("mst_weight_estimate needs a positive alpha")
    qg = QueryGraph(graph)
    value = mst_weight_estimate(qg, params.alpha, _clamped_fail(params, 1.0 / 3.0), rng)
    return value, {"queries": qg.queries}


def _mst_estimate_queries(graph, params) -> float:
    w = graph.max_weight
    if params.alpha <= 0.0 or w is None:
        return math.inf
    level_params, replicas = mst_level_knobs(params.alpha, _clamped_fail(params, 1.0 / 3.0), w)
    return (w - 1) * replicas * level_params.max_queries


def _knapsack(instance, params, rng):
    """Profit-scaling FPTAS; deterministic, hence Cauchy-route eligible."""
    return knapsack_fptas(instance, params.alpha)


def _l2_ams(stream, params, rng):
    """L2 norm via an AMS second-moment sketch.

    A (1 +/- alpha') factor on F2 becomes (1 +/- alpha) on its square root
    when alpha' = 2*alpha - alpha^2, with equality on the low side, so the
    sketch is sized at that widened target.
    """
    if params.alpha == 0.0:
        return _recount(stream, exact_l2)
    alpha_f2 = 2.0 * params.alpha - params.alpha ** 2
    sk = AmsSketch.from_accuracy(alpha_f2, _clamped_fail(params), stream.universe_size, rng)
    sk.consume(stream)
    return math.sqrt(max(sk.estimate(), 0.0)), \
        {"space_words": sk.space_words, "items": stream.length}


def _f0_kmv(stream, params, rng):
    """Distinct count via KMV; insertion-only streams."""
    if params.alpha == 0.0:
        return _recount(stream, exact_distinct)
    sk = KmvSketch.from_accuracy(params.alpha, _clamped_fail(params), rng)
    sk.consume(stream)
    return sk.estimate(), {"space_words": sk.space_words, "items": stream.length}


def _sw_de(stream, params, rng, window):
    """Distinct count over the last window updates via a smooth histogram.

    The end-to-end relative target params.alpha is split three ways:
    histogram rho = sketch alpha = alpha/3, leaving
    rho + alpha + rho*alpha <= 7*alpha/9 of slack used.
    """
    if stream.mode != "insert":
        raise ValueError("sliding-window distinct count needs an insertion-only stream")
    if params.alpha == 0.0:
        return _recount(stream, _distinct_in_window, window=window)
    third = params.alpha / 3.0
    hist = smooth_histogram_distinct(window, third, third, _clamped_fail(params), rng)
    for item in stream.items.tolist():
        hist.update(item)
    return hist.query(), {"space_words": hist.family.space_words, "items": stream.length}


def _two(dataset) -> float:
    return 2.0


def _max_weight(graph) -> Optional[float]:
    return None if graph.max_weight is None else float(graph.max_weight)


@dataclass(frozen=True)
class _Entry:
    kind: str                   # which loader reads the dataset: graph, stream, knapsack
    exact: Callable             # (dataset, **extras) -> the true value, a number
    delta_f: Optional[Callable]  # dataset -> default global sensitivity or None
    # (dataset, params, rng, **extras) -> estimate[, cost]; None for an exact
    # substrate, which evaluates its oracle.
    evaluate: Optional[Callable] = None
    is_deterministic: bool = True
    max_queries: Optional[Callable] = None  # (dataset, params) -> worst-case queries
    # config -> the extras that make_substrate and exact_value bind; raises
    # ValueError on a bad extra key, so the CLI refuses it before reading a file.
    extras: Callable = lambda config: {}
    extra_keys: tuple = ()      # the config keys that extras reads


_REGISTRY = {
    "cc_exact": _Entry("graph", cc_exact, _two),
    "cc_estimate": _Entry("graph", cc_exact, _two, _cc_estimate, False, _cc_estimate_queries),
    "mst_exact": _Entry("graph", mst_weight_exact, _max_weight),
    "mst_estimate": _Entry("graph", mst_weight_exact, _max_weight, _mst_estimate, False,
                           _mst_estimate_queries),
    "knapsack": _Entry("knapsack", _knapsack_optimum, None, _knapsack),
    "l2_exact": _Entry("stream", exact_l2, _two),
    "l2_ams": _Entry("stream", exact_l2, _two, _l2_ams, False),
    "f0_exact": _Entry("stream", exact_distinct, _two),
    "f0_kmv": _Entry("stream", exact_distinct, _two, _f0_kmv, False),
    "sw_de": _Entry("stream", _distinct_in_window, _two, _sw_de, False,
                    extras=_window, extra_keys=("window",)),
}

SUBSTRATE_NAMES = tuple(sorted(_REGISTRY))
# Every config key that some entry's extras read.
EXTRA_KEYS = frozenset(key for entry in _REGISTRY.values() for key in entry.extra_keys)


def _entry(name: str) -> _Entry:
    if name not in _REGISTRY:
        raise ValueError(f"unknown substrate {name!r}; known: {', '.join(SUBSTRATE_NAMES)}")
    return _REGISTRY[name]


def _oracle_evaluate(dataset, params, rng, oracle, kind, **extras):
    """An exact substrate's evaluation: its oracle's value, metering the
    updates a stream recount reads."""
    if kind == "stream":
        return _recount(dataset, oracle, **extras)
    return oracle(dataset, **extras)


def make_substrate(name: str, config: dict = None) -> TunableSubstrate:
    """Build a registered substrate; config supplies extras (e.g. window),
    which are checked and bound here. An extra key of another entry, which
    this one would not read, raises ValueError."""
    entry = _entry(name)
    unread = sorted((config or {}).keys() & (EXTRA_KEYS - set(entry.extra_keys)))
    if unread:
        raise ValueError(f"substrate {name!r} does not read {unread[0]!r}")
    evaluate = entry.evaluate
    if evaluate is None:
        evaluate = functools.partial(_oracle_evaluate, oracle=entry.exact, kind=entry.kind)
    fn = functools.partial(evaluate, **entry.extras(config or {}))
    return TunableSubstrate(fn, is_deterministic=entry.is_deterministic, label=name)


def dataset_kind(name: str) -> str:
    """Which loader the substrate's dataset needs: graph, stream, or knapsack."""
    return _entry(name).kind


# The kind table: the loader of each dataset kind, and audit_neighbor's rule
# for it. The benchmark's span tracer (perfbench/spans.py) patches module
# attributes and flat dicts only, so loaders stay values of this dict and
# audit_neighbor calls module-global names: then it sees every load and
# neighbour.
_LOADERS = {"graph": load_graph, "stream": load_stream, "knapsack": load_knapsack}


def load_dataset(name: str, path: str):
    """The dataset at path, read by the loader of the substrate's kind. A file
    that cannot be opened raises ValueError: cannot read <kind> file ..."""
    kind = dataset_kind(name)
    try:
        return _LOADERS[kind](path)
    except OSError as exc:
        raise ValueError(f"cannot read {kind} file {path!r}: {exc}") from exc


def audit_neighbor(name: str, dataset, toggle, rng):
    """The neighbour an audit compares dataset with when no second file is
    given: the graph with the edge toggle = (u, v, weight) toggled, or a
    stream neighbour drawn from rng. A knapsack instance has no canonical
    neighbour."""
    kind = dataset_kind(name)
    if kind == "graph":
        return toggle_edge(dataset, *toggle)
    if kind == "stream":
        return stream_neighbor(dataset, rng)
    raise ValueError("audit of a knapsack instance needs an explicit 'input_prime' file")


def exact_value(name: str, dataset, config: dict = None) -> float:
    """Ground-truth value of the quantity the named substrate estimates."""
    entry = _entry(name)
    return float(entry.exact(dataset, **entry.extras(config or {})))


def default_delta_f(name: str, dataset) -> Optional[float]:
    """The substrate's default global sensitivity on dataset; None when it has none."""
    delta_f = _entry(name).delta_f
    return None if delta_f is None else delta_f(dataset)


def query_budget(name: str, dataset, params: ApproxParams) -> float:
    """Worst-case query count of one evaluation at params, computed by the
    same knob translation the evaluation uses; math.inf for substrates
    without a query-count claim."""
    max_queries = _entry(name).max_queries
    return math.inf if max_queries is None else max_queries(dataset, params)
