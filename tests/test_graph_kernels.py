"""The array kernels behind the exact graph oracles: components and MST weight
against networkx and against the per-vertex DFS they replaced, on small
random graphs, and in under a second on five 10^5-vertex trees whose labels
are laid out to give hooking and pointer jumping many rounds or deep chains."""

import time

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpbox.graphs import Graph, _canonical, connected_components_exact, kruskal_mst_weight


def reference_components(g: Graph):
    """The per-vertex DFS that connected_components_exact replaced."""
    indptr, indices = g.indptr.tolist(), g.indices.tolist()
    seen = [False] * g.n
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        stack = [start]
        while stack:
            u = stack.pop()
            for v in indices[indptr[u]:indptr[u + 1]]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    stack.append(v)
        comps.append(sorted(comp))
    return comps


@st.composite
def graphs(draw, max_weight=st.sampled_from([None, 1, 2, 3, 10 ** 9])):
    """Graphs on 0-60 vertices, often with isolated vertices and several
    components, and weights drawn from a few values so that ties are common."""
    n = draw(st.integers(0, 60))
    w = draw(max_weight)
    pair = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    weights = {}
    for u, v in draw(st.lists(pair, max_size=2 * n)):
        if u != v:
            choices = [1] if w is None else [1, w, (w + 1) // 2, draw(st.integers(1, w))]
            weights[(min(u, v), max(u, v))] = draw(st.sampled_from(choices))
    return Graph(n, weights, None if w is None else weights, w)


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_weighted_edges_from(g.edge_items())
    return h


@settings(max_examples=300, deadline=None)
@given(g=graphs())
def test_components_match_networkx_and_the_dfs(g):
    comps = connected_components_exact(g)
    assert comps == reference_components(g)
    expected = sorted(sorted(c) for c in nx.connected_components(to_networkx(g)))
    assert comps == expected


@settings(max_examples=300, deadline=None)
@given(g=graphs(max_weight=st.sampled_from([1, 2, 3, 10 ** 9])))
def test_mst_weight_matches_networkx_forest_plus_w_per_extra_tree(g):
    # The MST of the weight-w completion: networkx's spanning forest joined by
    # one edge of weight w per extra tree, and 0 on the empty graph.
    h = to_networkx(g)
    w = g.max_weight or 1
    if g.n:
        forest = nx.minimum_spanning_tree(h).size(weight="weight")
        expected = forest + w * (nx.number_connected_components(h) - 1)
    else:
        expected = 0
    assert kruskal_mst_weight(g) == expected


def test_mst_weight_is_an_exact_integer_beyond_int64():
    # Three edges of weight 2^62 sum past int64; the total is a Python int.
    w = 2 ** 62
    g = Graph(4, [(0, 1), (1, 2), (2, 3)], {(0, 1): w, (1, 2): w, (2, 3): w}, w)
    assert kruskal_mst_weight(g) == 3 * w


def _shape(name: str, n: int, rng):
    """Edges (u, v) of a spanning tree on n vertices."""
    if name == "random path":
        order = rng.permutation(n)
    elif name == "zigzag path":
        order = np.empty(n, dtype=np.int64)
        order[0::2] = np.arange((n + 1) // 2)
        order[1::2] = n - 1 - np.arange(n // 2)
    else:
        child = np.arange(1, n)
        if name == "star, hub last":
            return child - 1, np.full(n - 1, n - 1)
        if name == "reversed binary tree":
            return n - 1 - child, n - 1 - (child - 1) // 2
        # A random recursive tree: vertex i joins a uniform earlier vertex.
        return child, (rng.random(n - 1) * child).astype(np.int64)
    return order[:-1], order[1:]


@pytest.mark.parametrize("name", ["random path", "zigzag path", "star, hub last",
                                  "reversed binary tree", "random recursive tree"])
def test_kernels_finish_fast_on_large_trees(name):
    n = 10 ** 5
    rng = np.random.default_rng(21)
    u, v = _shape(name, n, rng)
    weights = rng.integers(1, 10 ** 9, size=n - 1)
    rows = np.column_stack((u, v, weights))
    g = Graph._from_canonical(n, 10 ** 9, *_canonical(n, 10 ** 9, rows))
    # The same tree without the edges at vertex n - 1: a disconnected input.
    rows = rows[(u != n - 1) & (v != n - 1)]
    cut = Graph._from_canonical(n, 10 ** 9, *_canonical(n, 10 ** 9, rows))
    start = time.perf_counter()
    comps = connected_components_exact(g)
    total = kruskal_mst_weight(g)
    pieces = connected_components_exact(cut)
    completed = kruskal_mst_weight(cut)
    elapsed = time.perf_counter() - start
    assert comps == [list(range(n))]
    assert total == int(weights.sum())
    assert pieces == reference_components(cut)
    # The cut tree is its own spanning forest; weight-w edges join its pieces.
    assert completed == int(rows[:, 2].sum()) + 10 ** 9 * (len(pieces) - 1)
    assert elapsed < 1.0
