"""Contract checks over the registry's graph entries, on every tiny graph.

Each graph entry is evaluated once on each of the 729 graphs on 4 vertices
with weight bound w = 2 (each of the 6 pairs absent, or an edge of weight 1
or 2), and then every edge toggle is checked:
- refusal closure: a graph raises exactly when its neighbour raises, with the
  same message, since a refusal on one side and a release on the other tells
  the two apart at any epsilon;
- sensitivity, for the exact entries: the values of neighbours differ by at
  most default_delta_f of the first graph.
"""

import itertools

import pytest

from dpbox.graphs import Graph, toggle_edge
from dpbox.mechanisms import ApproxParams
from dpbox.noise import make_rng
from dpbox.substrates import default_delta_f, make_substrate

_N, _W = 4, 2
_PAIRS = list(itertools.combinations(range(_N), 2))
# kappa 2 on 4 vertices is cc_estimate's 0.5-fraction regime; fail_prob 1/2
# keeps each estimator's replicas few.
_PARAMS = ApproxParams(alpha=0.9, kappa=2.0, fail_prob=0.5)


def _key(g: Graph):
    """The weight of each pair of g, 0 for a pair that is not an edge."""
    weights = {(u, v): w for u, v, w in g.edge_items()}
    return tuple(weights.get(pair, 0) for pair in _PAIRS)


def _graph(key) -> Graph:
    weights = {pair: w for pair, w in zip(_PAIRS, key) if w}
    return Graph(_N, weights, weights, max_weight=_W)


_GRAPHS = [_graph(key) for key in itertools.product(range(_W + 1), repeat=len(_PAIRS))]


def _toggles(g: Graph):
    """Every edge neighbour of g: each edge removed, each non-edge added at
    each weight in 1..w."""
    for u, v in _PAIRS:
        for weight in ((1,) if g.has_edge(u, v) else range(1, _W + 1)):
            yield toggle_edge(g, u, v, weight)


def _outcome(substrate, g: Graph):
    """("value", the evaluation) or ("raises", the exception's type and message)."""
    try:
        return "value", substrate.evaluate(g, _PARAMS, make_rng(5))[0]
    except ValueError as exc:
        return "raises", f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("name, exact", [("cc_exact", True), ("cc_estimate", False),
                                         ("mst_exact", True), ("mst_estimate", False)])
def test_graph_entries_refuse_neighbours_alike_and_keep_their_sensitivity(name, exact):
    substrate = make_substrate(name)
    outcomes = {_key(g): _outcome(substrate, g) for g in _GRAPHS}
    assert len(outcomes) == 3 ** len(_PAIRS)
    for g in _GRAPHS:
        kind, value = outcomes[_key(g)]
        for toggled in _toggles(g):
            kind_prime, value_prime = outcomes[_key(toggled)]
            if kind == "raises" or kind_prime == "raises":
                assert (kind, value) == (kind_prime, value_prime), (g.edge_items(),
                                                                    toggled.edge_items())
            elif exact:
                assert abs(value - value_prime) <= default_delta_f(name, g), (
                    g.edge_items(), toggled.edge_items())
