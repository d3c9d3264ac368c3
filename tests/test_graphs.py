import itertools
import operator

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpbox.graphs import (Graph, connected_components_exact, format_graph,
                          kruskal_mst_weight, load_graph, parse_graph, save_graph,
                          toggle_edge)
from dpbox.noise import make_rng
from helpers import mostly, random_connected_graph, random_graph


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


def test_repr_names_size_and_weight_bound():
    assert repr(Graph(4, [(0, 1), (2, 1)])) == "Graph(n=4, m=2)"
    assert repr(Graph(3, [(0, 1)], {(0, 1): 2}, 5)) == "Graph(n=3, m=1, w<=5)"


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
    with pytest.raises(ValueError, match="edges of an unweighted graph weigh 1, got 7"):
        Graph(3, [(0, 1)], {(0, 1): 7})  # weighted edge, unweighted graph
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


def test_kruskal_completes_a_disconnected_graph_with_weight_w_edges():
    # The forest {(0, 1)} weighs 1; two edges of weight w = 2 join its 3 trees.
    g = Graph(4, [(0, 1)], {(0, 1): 1}, max_weight=2)
    assert kruskal_mst_weight(g) == 5


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
        weight = data.draw(st.integers(1, max_weight or 1))
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


def test_toggle_edge_keeps_unweighted_edges_at_weight_1():
    g = parse_graph("4 3\n0 1\n1 2\n2 3\n")
    with pytest.raises(ValueError, match="edges of an unweighted graph weigh 1, got 5"):
        toggle_edge(g, 0, 3, 5)
    added = toggle_edge(g, 0, 3)
    assert parse_graph(format_graph(added)).edge_items() == added.edge_items()


@pytest.mark.parametrize("u,v", [(2.5, 4), (0.0, 1.0), (0, 1.0)])
def test_toggle_edge_refuses_non_integer_vertices(u, v):
    # The constructor reads vertices with operator.index; so does toggle_edge,
    # whether the pair would be added (2.5, 4) or removed (0.0, 1.0).
    g = Graph(5, [(0, 1)])
    with pytest.raises(TypeError):
        Graph(5, [(u, v)])
    with pytest.raises(TypeError):
        toggle_edge(g, u, v)
    assert toggle_edge(g, np.int64(2), np.int64(4)).edges() == [(0, 1), (2, 4)]


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


@pytest.mark.parametrize("path", ["data/demo_cc.graph", "data/demo_mst.graph"])
def test_save_graph_round_trips_the_demo_files(tmp_path, path):
    g = load_graph(path)
    save_graph(g, tmp_path / "g.graph")
    assert (tmp_path / "g.graph").read_text(encoding="utf-8") == format_graph(g)
    assert format_graph(load_graph(tmp_path / "g.graph")) == format_graph(g)


# A vertex id of 18 digits passes the tokenizer and reaches the sort key of
# the vectorised check; it must neither overflow the key nor collide with the
# duplicate, whichever of the two comes first.
@pytest.mark.parametrize("text,message", [
    ("3 3\n0 1\n1 0\n123456789012345678 1\n", "duplicate edge (0, 1)"),
    ("3 3\n0 1\n123456789012345678 1\n1 0\n", "edge (123456789012345678,1) out of range for n=3"),
    ("3 3 2\n2 1 1\n1 2 2\n999999999999999999 999999999999999998 1\n", "duplicate edge (1, 2)"),
    ("3 3 2\n999999999999999999 999999999999999998 1\n2 1 1\n1 2 2\n",
     "edge (999999999999999999,999999999999999998) out of range for n=3"),
    ("3 4\n-123456789012345678 2\n-123456789012345678 2\n0 1\n1 0\n",
     "edge (-123456789012345678,2) out of range for n=3"),
    ("3 3\n0 2\n2 0\n-123456789012345678 -123456789012345678\n", "duplicate edge (0, 2)"),
])
def test_a_duplicate_and_an_18_digit_vertex_report_the_first_error(text, message):
    assert _outcome(parse_graph, text) == ("error", message)
    assert _outcome(reference_parse, text) == ("error", message)


# ------------------------------------ the constructor against its old walk

def _reference_constructor(n, edges, weights, max_weight):
    """Reference copy of the constructor whose Python walk checked each edge
    as it was read, before the vectorised check ran again: the canonical
    (eu, ev, ew) columns, or the first error it meets."""
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n!r}")
    if max_weight is not None and max_weight < 1:
        raise ValueError(f"max_weight must be >= 1, got {max_weight!r}")
    seen, kept = set(), []
    for u, v in edges:
        row = (u, v, 1 if weights is None else weights[(u, v) if u < v else (v, u)])
        u, v, w = map(operator.index, row)
        key = (u, v) if u < v else (v, u)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u} not allowed")
        if key in seen:
            raise ValueError(f"duplicate edge {key}")
        if w < 1:
            raise ValueError(f"edge weight must be a positive integer, got {w!r}")
        if max_weight is None and w != 1:
            raise ValueError(f"edges of an unweighted graph weigh 1, got {w!r}")
        if max_weight is not None and w > max_weight:
            raise ValueError(f"edge weight {w} exceeds declared bound {max_weight}")
        if w > 2 ** 63 - 1:
            raise ValueError(f"edge weight {w} does not fit in a 64-bit integer")
        seen.add(key)
        kept.append((*key, w))
    return sorted(kept)


def _constructor_outcome(build, *args):
    try:
        result = build(*args)
    except Exception as exc:  # the type and text are compared
        return type(exc).__name__, str(exc)
    if isinstance(result, Graph):
        assert result.eu.dtype == result.ev.dtype == result.ew.dtype == np.int64
        result = result.edge_items()
    return "ok", result


_ODD_VALUES = st.sampled_from([True, False, 1.5, 2.0, "1", None, 2 ** 63, -2 ** 63,
                               -2 ** 63 - 1, 2 ** 63 - 1, 10 ** 20])


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_constructor_matches_the_old_edge_walk(data):
    # Exception type and text, or the canonical edges, on a mix of ints,
    # bools, floats, strings, None, values beyond int64, missing weights,
    # ragged rows and duplicates in both orientations.
    n = data.draw(st.sampled_from([-1, 0] + [1, 2, 3, 4, 5] * 3))
    max_weight = data.draw(st.sampled_from([None] * 4 + [0, 1, 3, 3, 2 ** 70, 2 ** 70]))
    vertex = mostly(st.integers(0, max(n - 1, 0)), st.one_of(st.integers(-1, n + 1), _ODD_VALUES),
                    12)
    edges = []
    for _ in range(data.draw(st.integers(0, 7))):
        kind = data.draw(st.integers(0, 19))
        if kind == 0:
            edges.append(tuple(data.draw(st.lists(vertex, min_size=1, max_size=3))))
        elif kind < 3 and edges and len(edges[-1]) == 2:
            edges.append(edges[-1][::-1])
        else:
            edges.append((data.draw(vertex), data.draw(vertex)))
    weights = None
    if data.draw(st.booleans()):
        weight = mostly(st.integers(1, 3), st.one_of(st.integers(-1, 5), _ODD_VALUES), 12)
        weights = {}
        for edge in edges:
            if len(edge) == 2 and data.draw(st.integers(0, 19)) > 0:
                try:
                    key = edge if edge[0] < edge[1] else edge[::-1]
                except TypeError:
                    continue
                weights[key] = data.draw(weight)
    assert (_constructor_outcome(Graph, n, edges, weights, max_weight)
            == _constructor_outcome(_reference_constructor, n, edges, weights, max_weight))
