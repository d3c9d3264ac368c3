"""Named substrates: tunable estimators packaged for the privacy wrappers.

Each substrate is described once, by its entry in the registry at the
bottom: the dataset kind its loader reads, the exact oracle of the quantity
it estimates, its default global sensitivity delta_f, its estimator, if it
has one, whether it is deterministic and which ApproxParams knob holds its
error, and, for the sublinear graph estimators, the worst-case query count
of one evaluation. An entry names its oracle itself (cc_exact,
mst_weight_exact, exact_l2, exact_distinct), and exact_value returns the
oracle's value as a float. Only the knapsack entry names a wrapper,
_knapsack_optimum: the benchmark's span tracer (perfbench/spans.py) patches
knapsack_exact only where it is a module global, while the other oracles
call patched globals of their own modules.

make_substrate binds one evaluation, evaluate(dataset, params, rng), which
returns (estimate, cost), cost counting what that one call used. An exact
answer meets every (alpha, kappa, fail_prob) contract, so one rule,
_oracle_answers, says when the entry's oracle answers, for _evaluate and
query_budget alike: when the entry has no estimator, when its error knob
(_Entry.error: alpha, or kappa for the additive-only cc_estimate) is 0, and
when a randomized estimator is asked for fail_prob 0. Only an exact answer
meets the last two. A stream answer then costs {"items": m}, the m updates
the recount reads, any other answer costs nothing, and the query budget is
inf. Every other call runs the estimator, which translates the wrapper's
ApproxParams into its own knobs, at the fail_prob asked for. Additive
targets (ApproxParams.kappa) are in absolute output units throughout; the
component-count substrate divides by n internally to reach the estimator's
fractional knob. Both MST entries read the graph's weight bound w
(Graph.weight_bound, 1 on an unweighted graph) as their default delta_f.

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
from .sketches import AmsSketch, KmvSketch, kmv_dims
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


def _insertion_only(stream):
    """stream, refused unless it is insertion-only: sw_de's rule, which its
    oracle and its estimator both read before anything else."""
    if stream.mode != "insert":
        raise ValueError("sliding-window distinct count needs an insertion-only stream")
    return stream


def _distinct_in_window(stream, window) -> int:
    return _sorted_distinct(_insertion_only(stream).items[-window:]).size


# Estimators: (dataset, params, rng, **extras) -> estimate or (estimate, cost).

def _cc_estimate(graph, params, rng):
    """cc_median at the absolute additive target params.kappa, a fraction
    params.kappa/n of the vertices. Its replicas share one QueryGraph, hence
    one memo of sized vertices: cost["queries"] counts the probes actually
    made, and a start an earlier BFS has sized costs none."""
    if graph.n == 0:
        return 0.0, {"queries": 0}
    qg = QueryGraph(graph)
    value = cc_median(qg, cc_knobs(params.kappa / qg.n, params.fail_prob), rng)
    return value, {"queries": qg.queries}


def _cc_estimate_queries(graph, params) -> float:
    if graph.n == 0:
        return 0.0
    cc_params, replicas = cc_knobs(params.kappa / graph.n, params.fail_prob)
    return replicas * cc_params.max_queries


def _mst_estimate(graph, params, rng):
    """Multiplicative only, so params.kappa is slack."""
    qg = QueryGraph(graph)
    value = mst_weight_estimate(qg, params.alpha, min(params.fail_prob, 1.0 / 3.0), rng)
    return value, {"queries": qg.queries}


def _mst_estimate_queries(graph, params) -> float:
    w = graph.weight_bound
    level_params, replicas = mst_level_knobs(params.alpha, min(params.fail_prob, 1.0 / 3.0), w)
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
    alpha_f2 = 2.0 * params.alpha - params.alpha ** 2
    sk = AmsSketch.from_accuracy(alpha_f2, params.fail_prob, stream.universe_size, rng)
    sk.consume(stream)
    return math.sqrt(max(sk.estimate(), 0.0)), \
        {"space_words": sk.space_words, "items": stream.length}


def _f0_kmv(stream, params, rng):
    """Distinct count via KMV; insertion-only streams. The sketch is built in
    either regime, so its salts are drawn from rng; a stream shorter than k
    (the exact regime, see kmv_dims) is then counted exactly, at the cost of
    an oracle answer. The count sorts the items, as the sketch would, and
    keeps no universe-sized vector."""
    sk = KmvSketch.from_accuracy(params.alpha, params.fail_prob, rng)
    if stream.length < sk.k:
        return float(_sorted_distinct(sk.insertion_only(stream).items).size), \
            {"items": stream.length}
    sk.consume(stream)
    return sk.estimate(), {"space_words": sk.space_words, "items": stream.length}


def _sw_de(stream, params, rng, window):
    """Distinct count over the last window updates via a smooth histogram.

    The end-to-end relative target params.alpha is split three ways:
    histogram rho = sketch alpha = alpha/3, leaving
    rho + alpha + rho*alpha <= 7*alpha/9 of slack used.

    A stream shorter than the sketches' k (the exact regime, see kmv_dims)
    runs the histogram over exact per-instance counts, which equal the
    sketches' estimates, so the prune, the starts and the query are the
    same. It spawns no child rng; spawning never advances rng's bit stream.
    """
    items = _insertion_only(stream).items
    third, fail = params.alpha / 3.0, params.fail_prob
    exact = stream.length < kmv_dims(third, fail)[0]
    hist = smooth_histogram_distinct(window, third, third, fail, rng, exact=exact)
    for item in items.tolist():
        hist.update(item)
    if exact:
        return hist.query(), {"items": stream.length}
    return hist.query(), {"space_words": hist.family.space_words, "items": stream.length}


def _two(dataset) -> float:
    return 2.0


def _weight_bound(graph) -> float:
    return float(graph.weight_bound)


@dataclass(frozen=True)
class _Entry:
    kind: str                   # which loader reads the dataset: graph, stream, knapsack
    exact: Callable             # (dataset, **extras) -> the true value, a number
    delta_f: Optional[Callable]  # dataset -> default global sensitivity or None
    # The estimator, (dataset, params, rng, **extras) -> estimate[, cost]; None
    # for an exact substrate (see _oracle_answers).
    evaluate: Optional[Callable] = None
    is_deterministic: bool = True
    max_queries: Optional[Callable] = None  # (dataset, params) -> worst-case queries
    error: str = "alpha"        # the ApproxParams knob that holds the estimator's error
    # config -> the extras that _bind reads for make_substrate and exact_value;
    # raises ValueError on a bad extra key, so the CLI refuses it before
    # reading a file.
    extras: Callable = lambda config: {}
    extra_keys: tuple = ()      # the config keys that extras reads


_REGISTRY = {
    "cc_exact": _Entry("graph", cc_exact, _two),
    "cc_estimate": _Entry("graph", cc_exact, _two, _cc_estimate, False, _cc_estimate_queries,
                          error="kappa"),
    "mst_exact": _Entry("graph", mst_weight_exact, _weight_bound),
    "mst_estimate": _Entry("graph", mst_weight_exact, _weight_bound, _mst_estimate, False,
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


def _bind(name: str, config) -> tuple:
    """(entry, extras): the named entry and the extras it reads from config
    (e.g. sw_de's window), for make_substrate and exact_value alike. An
    extra key of another entry, which this one would not read, raises
    ValueError."""
    entry = _entry(name)
    unread = sorted((config or {}).keys() & (EXTRA_KEYS - set(entry.extra_keys)))
    if unread:
        raise ValueError(f"substrate {name!r} does not read {unread[0]!r}")
    return entry, entry.extras(config or {})


def _oracle_answers(entry: _Entry, params: ApproxParams) -> bool:
    """Whether entry answers params with its exact oracle (see the module
    docstring): it has no estimator, its error knob is 0, or its estimator
    is randomized and params.fail_prob is 0."""
    return (entry.evaluate is None or getattr(params, entry.error) == 0.0
            or (params.fail_prob == 0.0 and not entry.is_deterministic))


def _evaluate(entry: _Entry, extras: dict, dataset, params, rng):
    """One evaluation of entry: its oracle when _oracle_answers, else its
    estimator."""
    if _oracle_answers(entry, params):
        value = entry.exact(dataset, **extras)
        return (value, {"items": dataset.length}) if entry.kind == "stream" else value
    return entry.evaluate(dataset, params, rng, **extras)


def make_substrate(name: str, config: dict = None) -> TunableSubstrate:
    """Build a registered substrate; config supplies extras (e.g. window),
    which _bind checks and binds here."""
    entry, extras = _bind(name, config)
    fn = functools.partial(_evaluate, entry, extras)
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
    """Ground-truth value of the quantity the named substrate estimates;
    config is read as make_substrate reads it."""
    entry, extras = _bind(name, config)
    return float(entry.exact(dataset, **extras))


def default_delta_f(name: str, dataset) -> Optional[float]:
    """The substrate's default global sensitivity on dataset; None when it has none."""
    delta_f = _entry(name).delta_f
    return None if delta_f is None else delta_f(dataset)


def query_budget(name: str, dataset, params: ApproxParams) -> float:
    """Worst-case query count of one evaluation at params, computed by the
    same knob translation the evaluation uses; math.inf for substrates
    without a query-count claim and for requests the oracle answers."""
    entry = _entry(name)
    if entry.max_queries is None or _oracle_answers(entry, params):
        return math.inf
    return entry.max_queries(dataset, params)
