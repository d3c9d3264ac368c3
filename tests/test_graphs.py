import networkx as nx
import pytest

from dpbox.graphs import (Graph, connected_components_exact, format_graph,
                          kruskal_mst_weight, parse_graph, toggle_edge)
from dpbox.noise import make_rng
from helpers import random_connected_graph, random_graph


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    for u, v, w in g.edge_items():
        h.add_edge(u, v, weight=w)
    return h


def test_basic_construction_and_queries():
    g = Graph(4, [(0, 1), (2, 1)])
    assert g.m == 2
    assert g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.neighbors(1) == [0, 2]
    assert g.degree(1) == 2
    assert g.degree(3) == 0
    assert g.edges() == [(0, 1), (1, 2)]


def test_add_edge_validation():
    weights = {(0, 1): 4, (0, 2): 4, (1, 1): 1, (0, 3): 1}
    assert Graph(3, [(0, 1)], weights, max_weight=4).weight(1, 0) == 4
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)], weights, max_weight=4)  # duplicate
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 1)], weights, max_weight=4)  # self loop
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (0, 3)], weights, max_weight=4)  # out of range
    with pytest.raises(ValueError):
        Graph(3, [(0, 2)], {(0, 2): 0}, max_weight=4)  # nonpositive weight
    with pytest.raises(ValueError):
        Graph(3, [(0, 2)], {(0, 2): 5}, max_weight=4)  # above declared bound
    with pytest.raises(ValueError):
        Graph(-1)


def test_remove_edge():
    g = Graph(3, [(0, 1)])
    removed = toggle_edge(g, 1, 0)
    assert removed.m == 0
    assert removed.neighbors(0) == [] and removed.neighbors(1) == []
    assert not removed.has_edge(0, 1)
    assert g.m == 1 and g.neighbors(0) == [1]


def test_parse_format_round_trip_unweighted():
    text = "4 3\n0 1\n0 2\n2 3\n"
    g = parse_graph(text)
    assert g.n == 4 and g.m == 3 and g.max_weight is None
    assert format_graph(g) == text
    # Round trip is canonical regardless of input edge order or comments.
    scrambled = "# a comment\n4 3\n2 3 # trailing\n0 2\n\n0 1\n"
    assert format_graph(parse_graph(scrambled)) == text


def test_parse_format_round_trip_weighted():
    text = "5 3 7\n0 1 7\n1 2 1\n3 4 2\n"
    g = parse_graph(text)
    assert g.max_weight == 7
    assert g.weight(2, 1) == 1
    assert format_graph(g) == text


@pytest.mark.parametrize("bad", [
    "",
    "3\n",
    "3 1 2 9\n0 1 1\n",
    "3 2\n0 1\n",                # declared 2 edges, file has 1
    "3 1\n0 1 5\n",              # weight on an unweighted edge line
    "3 1 5\n0 1\n",              # missing weight on a weighted line
])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_graph(bad)


def test_components_hand_checked():
    g = Graph(6, [(0, 1), (1, 2), (4, 5)])
    comps = connected_components_exact(g)
    assert comps == [[0, 1, 2], [3], [4, 5]]


def test_components_match_networkx():
    rng = make_rng(21)
    for _ in range(40):
        n = int(rng.integers(2, 40))
        m = int(rng.integers(0, 3 * n))
        g = random_graph(n, m, rng)
        ours = {frozenset(c) for c in connected_components_exact(g)}
        theirs = {frozenset(c) for c in nx.connected_components(to_networkx(g))}
        assert ours == theirs


def test_kruskal_matches_networkx():
    rng = make_rng(22)
    for _ in range(40):
        n = int(rng.integers(2, 30))
        g = random_connected_graph(n, int(rng.integers(0, 2 * n)), rng,
                                   max_weight=6)
        ours = kruskal_mst_weight(g)
        theirs = sum(d["weight"] for _, _, d in
                     nx.minimum_spanning_edges(to_networkx(g), data=True))
        assert ours == theirs


def test_kruskal_rejects_disconnected():
    g = Graph(4, [(0, 1)], {(0, 1): 1}, max_weight=2)
    with pytest.raises(ValueError):
        kruskal_mst_weight(g)


def test_subgraph_weight_at_most():
    weights = {(0, 1): 1, (1, 2): 2, (2, 3): 3}
    g = Graph(4, weights, weights, max_weight=3)
    sub = g.subgraph_weight_at_most(2)
    assert sub.edges() == [(0, 1), (1, 2)]
    assert sub.n == 4
    assert g.m == 3  # original untouched


def test_toggle_edge_copies():
    g = Graph(3, [(0, 1)])
    added = toggle_edge(g, 1, 2)
    removed = toggle_edge(g, 0, 1)
    assert added.has_edge(1, 2) and not g.has_edge(1, 2)
    assert not removed.has_edge(0, 1) and g.has_edge(0, 1)
