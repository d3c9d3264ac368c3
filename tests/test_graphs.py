import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 9), data=st.data())
def test_format_parse_round_trip_any_graph(n, data):
    pairs = list(itertools.combinations(range(n), 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    edges = [e if data.draw(st.booleans()) else e[::-1] for e in edges]
    max_weight = data.draw(st.one_of(st.none(), st.integers(1, 5)))
    weights = None if max_weight is None else {
        (min(u, v), max(u, v)): data.draw(st.integers(1, max_weight)) for u, v in edges}
    g = Graph(n, edges, weights, max_weight)
    text = format_graph(g)
    h = parse_graph(text)
    assert (h.n, h.m, h.max_weight) == (g.n, g.m, g.max_weight)
    assert h.edge_items() == g.edge_items()
    assert all(h.neighbors(u) == g.neighbors(u) for u in range(n))
    assert format_graph(h) == text


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


# ------------------------------------------------------- CSR against a model


class _Model:
    """Dict-of-lists reference for a graph: the weight of each normalized
    pair, and each vertex's neighbours as a sorted list."""

    def __init__(self, n, weights, max_weight):
        self.n, self.weights, self.max_weight = n, dict(weights), max_weight
        self.adj = {u: [] for u in range(n)}
        for a, b in weights:
            self.adj[a].append(b)
            self.adj[b].append(a)
        for nbrs in self.adj.values():
            nbrs.sort()

    def toggled(self, u, v, weight):
        weights = dict(self.weights)
        if weights.pop((min(u, v), max(u, v)), None) is None:
            weights[(min(u, v), max(u, v))] = weight
        return _Model(self.n, weights, self.max_weight)

    def at_most(self, threshold):
        return _Model(self.n, {e: w for e, w in self.weights.items() if w <= threshold},
                      self.max_weight)

    def text(self):
        items = sorted(self.weights.items())
        if self.max_weight is None:
            lines = [f"{self.n} {len(items)}"] + [f"{a} {b}" for (a, b), _ in items]
        else:
            lines = ([f"{self.n} {len(items)} {self.max_weight}"]
                     + [f"{a} {b} {w}" for (a, b), w in items])
        return "\n".join(lines) + "\n"


def _assert_matches(g: Graph, model: _Model):
    n = model.n
    assert (g.n, g.m, g.max_weight) == (n, len(model.weights), model.max_weight)
    assert g.edges() == sorted(model.weights)
    assert g.edge_items() == [(a, b, w) for (a, b), w in sorted(model.weights.items())]
    for u in range(n):
        nbrs = g.neighbors(u)
        assert type(nbrs) is list and nbrs == model.adj[u]
        assert g.degree(u) == len(model.adj[u])
    for u in range(-1, n + 1):
        for v in range(-1, n + 1):
            key = (min(u, v), max(u, v))
            assert g.has_edge(u, v) == (key in model.weights)
            if key in model.weights:
                assert g.weight(u, v) == model.weights[key]
            else:
                with pytest.raises(KeyError):
                    g.weight(u, v)
    assert format_graph(g) == model.text()
    # The CSR rows are the sorted neighbour lists.
    assert g.indptr[0] == 0 and g.indptr[-1] == 2 * g.m
    for u in range(n):
        lo, hi = g.indptr[u], g.indptr[u + 1]
        assert g.indices[lo:hi].tolist() == model.adj[u]
    for column in (g.indptr, g.indices, g.eu, g.ev, g.ew):
        assert column.dtype == np.int64 and not column.flags.writeable


@settings(max_examples=150, deadline=None)
@given(n=st.integers(0, 9), data=st.data())
def test_csr_graph_matches_dict_of_lists_model(n, data):
    pairs = list(itertools.combinations(range(n), 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    edges = [e if data.draw(st.booleans()) else e[::-1] for e in edges]
    max_weight = data.draw(st.one_of(st.none(), st.integers(1, 5)))
    weights = {(min(e), max(e)): 1 if max_weight is None
               else data.draw(st.integers(1, max_weight)) for e in edges}
    g = Graph(n, edges, None if max_weight is None else weights, max_weight)
    model = _Model(n, weights, max_weight)
    _assert_matches(g, model)
    assert format_graph(parse_graph(model.text())) == model.text()
    for threshold in range(0, (max_weight or 1) + 2):
        _assert_matches(g.subgraph_weight_at_most(threshold), model.at_most(threshold))
    if n >= 2:
        u, v = data.draw(st.sampled_from(pairs))
        u, v = (u, v) if data.draw(st.booleans()) else (v, u)
        weight = data.draw(st.integers(1, max_weight or 4))
        _assert_matches(toggle_edge(g, u, v, weight), model.toggled(u, v, weight))
        _assert_matches(g, model)


@pytest.mark.parametrize("u,v,weight,message", [
    (0, 5, 1, "edge (0,5) out of range for n=3"),
    (5, 0, 1, "edge (0,5) out of range for n=3"),
    (-1, 2, 1, "edge (-1,2) out of range for n=3"),
    (2, 2, 1, "self-loop at vertex 2 not allowed"),
    (1, 2, 0, "edge weight must be a positive integer, got 0"),
    (1, 2, 5, "edge weight 5 exceeds declared bound 4"),
    (2, 1, -3, "edge weight must be a positive integer, got -3"),
])
def test_toggle_edge_checks_the_added_edge(u, v, weight, message):
    g = Graph(3, [(0, 1)], {(0, 1): 2}, 4)
    with pytest.raises(ValueError) as err:
        toggle_edge(g, u, v, weight)
    assert str(err.value) == message
    # Removing an edge ignores the weight.
    assert toggle_edge(g, 1, 0, 99).m == 0


# ---------------------------------------------------- parse errors and parity


def reference_parse(text):
    """The line-by-line reader the array parser replaced: (n, max_weight,
    sorted edge items), or the first ValueError it meets."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ValueError("empty graph file")
    header = lines[0].split()
    if len(header) not in (2, 3):
        raise ValueError(f"header must be 'n m' or 'n m w', got {lines[0]!r}")
    n, m = int(header[0]), int(header[1])
    max_weight = int(header[2]) if len(header) == 3 else None
    if len(lines) - 1 != m:
        raise ValueError(f"header declares {m} edges but file has {len(lines) - 1}")
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n!r}")
    if max_weight is not None and max_weight < 1:
        raise ValueError(f"max_weight must be >= 1, got {max_weight!r}")
    weights = {}
    for line in lines[1:]:
        parts = line.split()
        if max_weight is None:
            if len(parts) != 2:
                raise ValueError(f"unweighted edge line must be 'u v', got {line!r}")
            u, v, w = int(parts[0]), int(parts[1]), 1
        else:
            if len(parts) != 3:
                raise ValueError(f"weighted edge line must be 'u v weight', got {line!r}")
            u, v, w = int(parts[0]), int(parts[1]), int(parts[2])
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u} not allowed")
        key = (min(u, v), max(u, v))
        if key in weights:
            raise ValueError(f"duplicate edge {key}")
        if w < 1:
            raise ValueError(f"edge weight must be a positive integer, got {w!r}")
        if max_weight is not None and w > max_weight:
            raise ValueError(f"edge weight {w} exceeds declared bound {max_weight}")
        weights[key] = w
    return n, max_weight, sorted((u, v, w) for (u, v), w in weights.items())


def _outcome(parse, text):
    try:
        result = parse(text)
    except ValueError as exc:
        return "error", str(exc)
    if isinstance(result, Graph):
        result = (result.n, result.max_weight, result.edge_items())
    return "ok", result


_ODD_TOKENS = st.sampled_from([
    "x", "1.5", "1e2", "0x1", "+2", "1_0", "١", "99999999999999999999",
    "-99999999999999999999", "9223372036854775808", "\x00"])


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_parse_errors_match_the_line_by_line_reader(data):
    n = data.draw(st.sampled_from([-1, 0, 1] + list(range(2, 8)) * 2))
    max_weight = data.draw(st.sampled_from([None] * 4 + [0, 1, 2, 3, 5, 5]))
    width = 2 if max_weight is None else 3
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    anything = st.one_of(st.integers(-2, n + 1), _ODD_TOKENS)
    weight = st.one_of(*[st.integers(1, max_weight or 1)] * 8, st.integers(-1, 7), _ODD_TOKENS)
    body = []
    for _ in range(data.draw(st.integers(0, 8))):
        # Mostly valid edges, so that errors can sit deep in the file.
        if data.draw(st.integers(0, 9)) == 0 or not pairs:
            tokens = [data.draw(anything), data.draw(anything), data.draw(anything)]
        else:
            tokens = [*data.draw(st.sampled_from(pairs)), data.draw(weight)]
        if width == 2:
            tokens[2] = data.draw(anything)
        arity = data.draw(st.sampled_from([width] * 19 + [width - 1, width + 1]))
        tokens = tokens[:arity]
        gap = data.draw(st.sampled_from([" ", "\t", "  ", " \t "]))
        line = gap.join(map(str, tokens))
        body.append(line + data.draw(st.sampled_from(["", " ", " # note", "#x 1 2"])))
        if data.draw(st.integers(0, 5)) == 0:
            body.append(data.draw(st.sampled_from(["", "   ", "# comment", "\t"])))
    m = sum(1 for line in body if line.split("#", 1)[0].strip())
    m += data.draw(st.sampled_from([0] * 19 + [-1, 1]))
    header = f"{n} {m}" + ("" if max_weight is None else f" {max_weight}")
    text = "\n".join([data.draw(st.sampled_from(["", "# head"])), header] + body) + "\n"
    assert _outcome(parse_graph, text) == _outcome(reference_parse, text)


@pytest.mark.parametrize("text,message", [
    ("3 2\n0 1\n1 0\n", "duplicate edge (0, 1)"),
    ("4 3\n0 1\n2 2\n0 x\n", "self-loop at vertex 2 not allowed"),
    ("4 3\n0 x\n2 2\n0 1\n", "invalid literal for int() with base 10: 'x'"),
    ("3 3\n0 1\n0 1 7\n0 5\n", "unweighted edge line must be 'u v', got '0 1 7'"),
    ("3 2\n0 99999999999999999999\n0 1\n", "edge (0,99999999999999999999) out of range for n=3"),
    ("3 2 4\n0 1 99999999999999999999\n0 2 1\n",
     "edge weight 99999999999999999999 exceeds declared bound 4"),
    ("-2 1\n0 x\n", "vertex count must be nonnegative, got -2"),
    ("3 1 0\n0 x 1\n", "max_weight must be >= 1, got 0"),
    ("3 1\n\x001\n", "unweighted edge line must be 'u v', got '\\x001'"),
    ("3 1 99999999999999999999\n0 1 9999999999999999999\n",
     "edge weight 9999999999999999999 does not fit in a 64-bit integer"),
])
def test_parse_reports_the_first_error_in_file_order(text, message):
    with pytest.raises(ValueError) as err:
        parse_graph(text)
    assert str(err.value) == message
