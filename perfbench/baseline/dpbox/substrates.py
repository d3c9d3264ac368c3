"""Named substrates: tunable estimators packaged for the privacy wrappers.

Each maker returns a TunableSubstrate whose fn translates the wrapper's
ApproxParams into the estimator's own knobs and reports resource costs into
the meter. Additive targets (ApproxParams.kappa) are in absolute output
units throughout; the component-count substrate divides by n internally to
reach the estimator's fractional knob.

The registry at the bottom maps substrate names to (dataset kind, maker,
exact oracle); exact oracles back the coverage harness and tests.
"""

from __future__ import annotations

import math
import statistics

from .graph_estimators import (CcEstimateParams, QueryGraph, cc_estimate,
                               cc_exact, mst_weight_estimate, mst_weight_exact)
from .knapsack import knapsack_exact, knapsack_fptas
from .mechanisms import ApproxParams, TunableSubstrate, boost_replicas
from .sketches import AmsSketch, KmvSketch
from .streams import exact_distinct, exact_f2, exact_l2
from .windows import smooth_histogram_distinct

__all__ = [
    "SUBSTRATE_NAMES",
    "make_substrate",
    "dataset_kind",
    "exact_value",
]


def _as_query_graph(dataset) -> QueryGraph:
    return dataset if isinstance(dataset, QueryGraph) else QueryGraph(dataset)


def substrate_cc_exact() -> TunableSubstrate:
    """Exact component count as a zero-error deterministic substrate."""

    def fn(dataset, params: ApproxParams, rng):
        return float(cc_exact(dataset))

    return TunableSubstrate(fn, is_deterministic=True, label="cc_exact")


def substrate_cc_estimate() -> TunableSubstrate:
    """Sublinear component count honoring an absolute additive budget.

    params.kappa is the absolute additive target; it is converted to the
    estimator's fraction-of-n knob (capped at 1), and a median over
    boost_replicas(params.fail_prob) runs drives the failure probability
    down from the single-run 1/3. Queries are metered.
    """

    def fn(dataset, params: ApproxParams, rng):
        qg = _as_query_graph(dataset)
        if params.kappa <= 0.0:
            raise ValueError("cc_estimate needs a positive additive budget kappa")
        frac = min(params.kappa / qg.n, 1.0)
        cc_params = CcEstimateParams(kappa=frac)
        replicas = 1 if params.fail_prob >= 1.0 / 3.0 else boost_replicas(params.fail_prob)
        before = qg.queries
        vals = [cc_estimate(qg, cc_params, rng) for _ in range(replicas)]
        return statistics.median(vals), {"queries": qg.queries - before}

    return TunableSubstrate(fn, base_fail_prob=1.0 / 3.0, label="cc_estimate")


def substrate_mst_exact() -> TunableSubstrate:
    def fn(dataset, params: ApproxParams, rng):
        return float(mst_weight_exact(dataset))

    return TunableSubstrate(fn, is_deterministic=True, label="mst_exact")


def substrate_mst_estimate() -> TunableSubstrate:
    """Sublinear MST weight; multiplicative only, so params.kappa is slack."""

    def fn(dataset, params: ApproxParams, rng):
        qg = _as_query_graph(dataset)
        if params.alpha <= 0.0:
            raise ValueError("mst_weight_estimate needs a positive alpha")
        fail = min(max(params.fail_prob, 1e-12), 1.0 / 3.0)
        before = qg.queries
        value = mst_weight_estimate(qg, params.alpha, fail, rng)
        return value, {"queries": qg.queries - before}

    return TunableSubstrate(fn, base_fail_prob=1.0 / 3.0, label="mst_estimate")


def substrate_knapsack() -> TunableSubstrate:
    """Profit-scaling FPTAS; deterministic, hence Cauchy-route eligible."""

    def fn(dataset, params: ApproxParams, rng):
        return knapsack_fptas(dataset, params.alpha)

    return TunableSubstrate(fn, is_deterministic=True, label="knapsack_fptas")


def substrate_l2_exact() -> TunableSubstrate:
    def fn(dataset, params: ApproxParams, rng):
        return exact_l2(dataset), {"items": dataset.length}

    return TunableSubstrate(fn, is_deterministic=True, label="l2_exact")


def substrate_l2_ams() -> TunableSubstrate:
    """L2 norm via an AMS second-moment sketch.

    A (1 +/- alpha') factor on F2 becomes (1 +/- alpha) on its square root
    when alpha' = 2*alpha - alpha^2, with equality on the low side, so the
    sketch is sized at that widened target. alpha = 0 falls back to the exact
    recount.
    """

    def fn(dataset, params: ApproxParams, rng):
        if params.alpha == 0.0:
            return exact_l2(dataset), {"items": dataset.length}
        alpha_f2 = 2.0 * params.alpha - params.alpha ** 2
        fail = min(max(params.fail_prob, 1e-12), 1.0 - 1e-12)
        sk = AmsSketch.from_accuracy(alpha_f2, fail, dataset.universe_size, rng)
        sk.consume(dataset)
        return math.sqrt(max(sk.estimate(), 0.0)), \
            {"space_words": sk.space_words, "items": dataset.length}

    return TunableSubstrate(fn, base_fail_prob=1.0 / 3.0, label="l2_ams")


def substrate_f0_exact() -> TunableSubstrate:
    def fn(dataset, params: ApproxParams, rng):
        return float(exact_distinct(dataset)), {"items": dataset.length}

    return TunableSubstrate(fn, is_deterministic=True, label="f0_exact")


def substrate_f0_kmv() -> TunableSubstrate:
    """Distinct count via KMV; insertion-only streams."""

    def fn(dataset, params: ApproxParams, rng):
        if params.alpha == 0.0:
            return float(exact_distinct(dataset)), {"items": dataset.length}
        fail = min(max(params.fail_prob, 1e-12), 1.0 - 1e-12)
        sk = KmvSketch.from_accuracy(params.alpha, fail, rng)
        sk.consume(dataset)
        return sk.estimate(), {"space_words": sk.space_words, "items": dataset.length}

    return TunableSubstrate(fn, base_fail_prob=1.0 / 3.0, label="f0_kmv")


def substrate_sw_de(window: int) -> TunableSubstrate:
    """Distinct count over the last `window` updates via a smooth histogram.

    The end-to-end relative target params.alpha is split three ways:
    histogram rho = sketch alpha = alpha/3, leaving
    rho + alpha + rho*alpha <= 7*alpha/9 of slack used. alpha = 0 answers by
    brute-force recount of the window.
    """

    def fn(dataset, params: ApproxParams, rng):
        if dataset.mode != "insert":
            raise ValueError("sliding-window distinct count needs an insertion-only stream")
        items = dataset.items()
        if params.alpha == 0.0:
            return float(len(set(items[-window:]))), {"items": dataset.length}
        third = params.alpha / 3.0
        fail = min(max(params.fail_prob, 1e-12), 1.0 - 1e-12)
        hist = smooth_histogram_distinct(window, third, third, fail, rng)
        for item in items:
            hist.update(item)
        space = sum(hist.family.sketch_at(i).space_words
                    for i in range(hist.instance_count()))
        return hist.query(), {"space_words": space, "items": dataset.length}

    return TunableSubstrate(fn, base_fail_prob=1.0 / 3.0, label="sw_de")


def _window_distinct_exact(stream, window: int) -> float:
    return float(len(set(stream.items()[-window:])))


# name -> (dataset kind, maker(config) -> substrate, exact(dataset, config) -> value)
_REGISTRY = {
    "cc_exact": ("graph", lambda cfg: substrate_cc_exact(),
                 lambda d, cfg: float(cc_exact(d))),
    "cc_estimate": ("graph", lambda cfg: substrate_cc_estimate(),
                    lambda d, cfg: float(cc_exact(d))),
    "mst_exact": ("graph", lambda cfg: substrate_mst_exact(),
                  lambda d, cfg: float(mst_weight_exact(d))),
    "mst_estimate": ("graph", lambda cfg: substrate_mst_estimate(),
                     lambda d, cfg: float(mst_weight_exact(d))),
    "knapsack": ("knapsack", lambda cfg: substrate_knapsack(),
                 lambda d, cfg: knapsack_exact(d)),
    "l2_exact": ("stream", lambda cfg: substrate_l2_exact(),
                 lambda d, cfg: exact_l2(d)),
    "l2_ams": ("stream", lambda cfg: substrate_l2_ams(),
               lambda d, cfg: exact_l2(d)),
    "f0_exact": ("stream", lambda cfg: substrate_f0_exact(),
                 lambda d, cfg: float(exact_distinct(d))),
    "f0_kmv": ("stream", lambda cfg: substrate_f0_kmv(),
               lambda d, cfg: float(exact_distinct(d))),
    "sw_de": ("stream", lambda cfg: substrate_sw_de(int(cfg["window"])),
              lambda d, cfg: _window_distinct_exact(d, int(cfg["window"]))),
}

SUBSTRATE_NAMES = tuple(sorted(_REGISTRY))


def make_substrate(name: str, config: dict = None) -> TunableSubstrate:
    """Build a registered substrate; config supplies extras (e.g. window)."""
    if name not in _REGISTRY:
        raise ValueError(f"unknown substrate {name!r}; known: {', '.join(SUBSTRATE_NAMES)}")
    return _REGISTRY[name][1](config or {})


def dataset_kind(name: str) -> str:
    """Which loader the substrate's dataset needs: graph, stream, or knapsack."""
    if name not in _REGISTRY:
        raise ValueError(f"unknown substrate {name!r}; known: {', '.join(SUBSTRATE_NAMES)}")
    return _REGISTRY[name][0]


def exact_value(name: str, dataset, config: dict = None) -> float:
    """Ground-truth value of the quantity the named substrate estimates."""
    if name not in _REGISTRY:
        raise ValueError(f"unknown substrate {name!r}; known: {', '.join(SUBSTRATE_NAMES)}")
    return _REGISTRY[name][2](dataset, config or {})
