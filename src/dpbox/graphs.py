"""Graph container, edge-list file format, and exact reference algorithms.

The file format is line oriented: a header "n m" (or "n m w" for weighted
graphs) followed by m edge lines "u v" or "u v weight". Vertices are
0-indexed, weights are positive integers, '#' starts a comment, and blank
lines are skipped. Serialization is canonical: edges sorted lexicographically
with each endpoint pair normalized to u < v, so load(save(g)) round-trips
byte-identically.

A Graph is a set of read-only int64 arrays: the canonical edge list eu < ev
with weights ew, sorted by (eu, ev), and the same edges in compressed sparse
row form, indptr/indices, with each row sorted. One vectorised check,
_canonical, validates every edge, and nothing else checks edge rules but
toggle_edge's one added edge. The rows are read first and then checked, as
the streams module docstring describes: parse_graph reads the edge lines
with the byte-level tokenizer of the streams module, and only a file the
tokenizer refuses is walked line by line, up to the first line the walker
cannot read; the constructor reads each (u, v, weight) row with
operator.index. The check runs on the rows read, and only then is the read
error raised, so the first error reported and its message are those of a
line-by-line reader that checks each edge as it reads it.

Graphs are immutable: they are built once, by the constructor or the parser,
and neighboring datasets come from toggle_edge, which returns a new graph.

The exact oracles are array kernels. _component_roots labels every vertex
with the smallest vertex of its component by hooking and pointer jumping
(Shiloach & Vishkin, J. Algorithms 1982) in O(log n) rounds of whole-array
passes; connected_components_exact lists the components from those labels, and
kruskal_mst_weight runs Boruvka rounds on the same kernel, which give the
forest weight Kruskal gives. It answers every graph, connected or not, with
the minimum spanning tree weight of the weight-w completion: the graph with
every missing pair joined by an edge of the declared bound w.
"""

from __future__ import annotations

import operator
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .streams import (_INT64_MAX, _body_lines, _check_bytes, _frozen, _int_rows, _read_table,
                      _split_header, _walk_lines)

__all__ = [
    "Graph",
    "parse_graph",
    "format_graph",
    "load_graph",
    "save_graph",
    "connected_components_exact",
    "kruskal_mst_weight",
    "toggle_edge",
]

def _check_size(n, max_weight):
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n!r}")
    if max_weight is not None and max_weight < 1:
        raise ValueError(f"max_weight must be >= 1, got {max_weight!r}")
    _check_bytes(8 * (2 * n + 1), f"graph on n={n} vertices", "row offsets and degree counts")


def _edge_error(n, max_weight, u: int, v: int, w: int, duplicate: bool) -> Optional[str]:
    """Why the integer edge (u, v) of weight w breaks the graph rules, or None;
    the rules are checked in this order."""
    if not (0 <= u < n and 0 <= v < n):
        return f"edge ({u},{v}) out of range for n={n}"
    if u == v:
        return f"self-loop at vertex {u} not allowed"
    if duplicate:
        return f"duplicate edge {(min(u, v), max(u, v))}"
    if w < 1:
        return f"edge weight must be a positive integer, got {w!r}"
    if max_weight is None and w != 1:
        return f"edges of an unweighted graph weigh 1, got {w!r}"
    if max_weight is not None and w > max_weight:
        return f"edge weight {w} exceeds declared bound {max_weight}"
    if w > _INT64_MAX:
        return f"edge weight {w} does not fit in a 64-bit integer"
    return None


def _int_edge(row) -> Tuple[int, int, int]:
    """The constructor's reader of one (u, v, weight) row: three ints, or the
    TypeError of a value that is not an integer (1.5, None, "1")."""
    u, v, w = row
    return operator.index(u), operator.index(v), operator.index(w)


def _canonical(n, max_weight, rows: np.ndarray):
    """Validate (m, 3) rows (u, v, weight) in input order, int64 or (from
    _read_table) an object array of Python ints, and return the canonical
    int64 columns (eu, ev, ew), sorted by (eu, ev) with eu < ev. Raises the
    error of the first edge that breaks a rule; an edge is a duplicate when
    an earlier edge joins the same pair, in either orientation. An object
    table never passes: it holds a value beyond int64, which no rule admits."""
    u, v, w = rows[:, 0], rows[:, 1], rows[:, 2]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    # One int64 key per pair, from its ends clipped to [-1, n]: in-range pairs
    # sort as (lo, hi) and share a key only with the same pair. An
    # out-of-range pair may share one with another, but its range error is
    # reported before its duplicate flag is read.
    key = (np.clip(lo, -1, n) + 1) * (n + 2) + np.clip(hi, -1, n) + 1
    order = np.argsort(key, kind="stable")
    eu, ev, key = lo[order], hi[order], key[order]
    # The sort is stable, so within a run of equal pairs the first is the
    # earliest edge and the rest are its duplicates.
    duplicate = np.zeros(u.size, dtype=bool)
    duplicate[order[1:][key[1:] == key[:-1]]] = True
    bad = duplicate | (lo < 0) | (hi >= n) | (lo == hi) | (w < 1)
    # A weight beyond int64 breaks the bound even under a larger declared one.
    bad |= w > (1 if max_weight is None else min(max_weight, _INT64_MAX))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(_edge_error(n, max_weight, int(u[i]), int(v[i]), int(w[i]),
                                     bool(duplicate[i])))
    return eu, ev, w[order]


class Graph:
    """Immutable undirected graph on vertices 0..n-1 with optional integer
    edge weights.

    Graph(n, edges, weights, max_weight) takes the edges as (u, v) integer
    pairs and, for a weighted graph, their weights keyed by the normalized
    pair (min(u, v), max(u, v)). It keeps them as read-only int64 arrays:
    eu, ev, ew, the canonical edges (eu < ev) sorted by (eu, ev), and
    indptr, indices, the compressed sparse rows, where row u is
    indices[indptr[u]:indptr[u + 1]], sorted. A Graph has no mutators:
    toggle_edge and subgraph_weight_at_most return new graphs, so a graph
    object stands for one fixed dataset and may key a memo by identity.
    neighbors() returns a new list. max_weight is the declared weight bound w; unweighted graphs
    have max_weight None and all edges carry weight 1, so any other weight is refused.

    The edges are read first, up to the first row that cannot be read (a
    ragged pair, a float vertex, a missing weight); _canonical checks the
    rows read, and that read error (TypeError, KeyError, ValueError) is
    raised only when they pass. A lazy edges iterable is read to its first
    unreadable row, or to its end, before any rule is checked.
    """

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]] = (),
                 weights: Optional[Dict[Tuple[int, int], int]] = None,
                 max_weight: Optional[int] = None):
        _check_size(n, max_weight)
        rows, error = _read_table(
            ((u, v, 1 if weights is None else weights[(u, v) if u < v else (v, u)])
             for u, v in edges), _int_edge, 3)
        columns = _canonical(n, max_weight, rows)
        if error is not None:
            raise error
        self._assemble(n, max_weight, *columns)

    @classmethod
    def _from_canonical(cls, n, max_weight, eu, ev, ew) -> "Graph":
        """A graph on already validated canonical columns."""
        g = cls.__new__(cls)
        g._assemble(n, max_weight, eu, ev, ew)
        return g

    def _assemble(self, n, max_weight, eu, ev, ew):
        """Keep the canonical columns and build the sorted rows from them.
        Listing each edge as (ev, eu) before all edges as (eu, ev) and sorting
        stably by the first vertex puts every row in increasing order: the
        first part holds a row's smaller neighbours in increasing order, the
        second its larger ones."""
        self.n = int(n)
        self.max_weight = None if max_weight is None else int(max_weight)
        src, dst = np.concatenate((ev, eu)), np.concatenate((eu, ev))
        order = np.argsort(src, kind="stable")
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=self.n), out=indptr[1:])
        self.eu, self.ev, self.ew = _frozen(eu), _frozen(ev), _frozen(ew)
        self.indptr = _frozen(indptr)
        self.indices = _frozen(dst[order])

    @cached_property
    def _rows(self) -> Tuple[List[int], List[int]]:
        """indptr and indices as lists, for traversals in Python."""
        return self.indptr.tolist(), self.indices.tolist()

    def _locate(self, u: int, v: int) -> Tuple[int, bool]:
        """(k, found) for the pair (min(u, v), max(u, v)): k is its place in
        the canonical columns, where it is or would be inserted, and found
        says whether it is an edge."""
        a, b = (u, v) if u < v else (v, u)
        lo, hi = np.searchsorted(self.eu, a, "left"), np.searchsorted(self.eu, a, "right")
        k = int(lo + np.searchsorted(self.ev[lo:hi], b))
        return k, bool(k < hi and self.ev[k] == b)

    def has_edge(self, u: int, v: int) -> bool:
        return self._locate(u, v)[1]

    def weight(self, u: int, v: int) -> int:
        k, found = self._locate(u, v)
        if not found:
            raise KeyError((min(u, v), max(u, v)))
        return int(self.ew[k])

    def neighbors(self, u: int) -> List[int]:
        indptr, indices = self._rows
        return indices[indptr[u]:indptr[u + 1]]

    def degree(self, u: int) -> int:
        indptr = self._rows[0]
        return indptr[u + 1] - indptr[u]

    @property
    def m(self) -> int:
        return int(self.eu.size)

    def edges(self) -> List[Tuple[int, int]]:
        return list(zip(self.eu.tolist(), self.ev.tolist()))

    def edge_items(self) -> List[Tuple[int, int, int]]:
        return list(zip(self.eu.tolist(), self.ev.tolist(), self.ew.tolist()))

    def subgraph_weight_at_most(self, threshold: int) -> "Graph":
        """New graph keeping exactly the edges of weight <= threshold."""
        keep = self.ew <= threshold
        return Graph._from_canonical(self.n, self.max_weight,
                                     self.eu[keep], self.ev[keep], self.ew[keep])

    def __repr__(self):
        wpart = "" if self.max_weight is None else f", w<={self.max_weight}"
        return f"Graph(n={self.n}, m={self.m}{wpart})"


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format described in the module docstring."""
    header, body = _split_header(text, "empty graph file")
    fields = header.split()
    if len(fields) not in (2, 3):
        raise ValueError(f"header must be 'n m' or 'n m w', got {header.strip()!r}")
    n, m = int(fields[0]), int(fields[1])
    max_weight = int(fields[2]) if len(fields) == 3 else None
    width = 2 if max_weight is None else 3
    rows, error = _int_rows(body, width, m), None
    lines = None if rows is not None else _body_lines(body, m, "edges")
    _check_size(n, max_weight)
    if rows is None:
        # Some line or token was refused: the walker reads the lines up to the
        # first one it cannot read, and the check runs on those rows before
        # that line's error is raised, as a line-by-line reader would report.
        arity = ("unweighted edge line must be 'u v'" if max_weight is None
                 else "weighted edge line must be 'u v weight'")
        rows, error = _read_table(_walk_lines(lines, width, arity), tuple, width)
    if max_weight is None:
        rows = np.column_stack((rows, np.ones(len(rows), dtype=rows.dtype)))
    columns = _canonical(n, max_weight, rows)
    if error is not None:
        raise error
    return Graph._from_canonical(n, max_weight, *columns)


def format_graph(g: Graph) -> str:
    """Serialize canonically: sorted edges, normalized endpoints, newline end.
    A weighted graph's header and edge lines carry one more column."""
    width = 2 if g.max_weight is None else 3
    header = (g.n, g.m, g.max_weight)[:width]
    rows = zip(*(column.tolist() for column in (g.eu, g.ev, g.ew)[:width]))
    return "\n".join(" ".join(map(str, row)) for row in [header, *rows]) + "\n"


def load_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def save_graph(g: Graph, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(g))


def _component_roots(n: int, eu: np.ndarray, ev: np.ndarray) -> np.ndarray:
    """Label every vertex of the graph on 0..n-1 with edges (eu[i], ev[i]) by
    the smallest vertex of its component (Shiloach & Vishkin's hooking and
    pointer jumping, with every hook towards the smaller label).

    Each round hooks every root onto the smallest root it shares an edge with
    (np.minimum.at), then jumps pointers, parent = parent[parent], until every
    vertex points at a root; edges inside one tree are dropped for good. Hooks
    only lower labels, so no cycle forms and the smallest vertex of a
    component stays its root. A root that neither hooks nor is hooked onto in
    a round has only smaller roots beside it after that round, so it hooks in
    the next: the roots of every unfinished component at least halve every two
    rounds, at most about 2 log2 n rounds in all."""
    parent = np.arange(n, dtype=np.int64)
    ru, rv = eu, ev
    while ru.size:
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
        ru, rv = parent[eu], parent[ev]
        cross = ru != rv
        eu, ev, ru, rv = eu[cross], ev[cross], ru[cross], rv[cross]
    return parent


def connected_components_exact(g: Graph) -> List[List[int]]:
    """All connected components as sorted vertex lists, by smallest member.
    A stable argsort of the component labels lists each component's vertices
    in increasing order and the components in the order of their labels."""
    n = g.n
    labels = _component_roots(n, g.eu, g.ev)
    vertices = np.arange(n, dtype=np.int64)
    # Sorting label * n + vertex is that argsort, in a fifth of the time.
    members = (np.sort(labels * n + vertices) % max(n, 1)).tolist()
    ends = np.cumsum(np.bincount(labels, minlength=n)[labels == vertices]).tolist()
    return [members[lo:hi] for lo, hi in zip([0] + ends, ends)]


def kruskal_mst_weight(g: Graph) -> int:
    """Minimum spanning tree weight of the weight-w completion of g: g with
    an edge of weight w = g.max_weight (1 when g is unweighted) added between
    every pair that is not an edge. That is the minimum spanning forest's
    weight plus w * (C - 1) for the forest's C trees, since Kruskal on the
    completion takes the forest's edges and then C - 1 edges of the heaviest
    weight w to join the trees. On a connected graph it is the minimum
    spanning tree weight, and on a graph with no vertices it is 0. One edge
    toggle moves it by at most w - 1.

    Boruvka rounds on _component_roots: every component takes its lightest
    outgoing edge, ties broken by canonical index, and the chosen edges merge
    the components. Under that strict (weight, index) order the minimum
    spanning forest is unique, so the sum, and the number of edges used, are
    those of Kruskal visiting the edges in (weight, eu, ev) order. The
    weights are summed as Python integers, which do not overflow."""
    n = g.n
    order = np.argsort(g.ew, kind="stable")
    eu, ev, ew = g.eu[order], g.ev[order], g.ew[order]
    labels = np.arange(n, dtype=np.int64)
    total = 0
    used = 0
    while True:
        ru, rv = labels[eu], labels[ev]
        cross = ru != rv
        if not cross.any():
            break
        eu, ev, ew, ru, rv = eu[cross], ev[cross], ew[cross], ru[cross], rv[cross]
        # An edge's place in the filtered columns ranks it by (weight, index).
        place = np.arange(eu.size, dtype=np.int64)
        lightest = np.full(n, eu.size, dtype=np.int64)
        np.minimum.at(lightest, ru, place)
        np.minimum.at(lightest, rv, place)
        chosen = np.zeros(eu.size, dtype=bool)
        chosen[lightest[lightest < eu.size]] = True
        total += sum(ew[chosen].tolist())
        used += int(np.count_nonzero(chosen))
        labels = _component_roots(n, ru[chosen], rv[chosen])[labels]
    w = 1 if g.max_weight is None else g.max_weight
    return total + w * max(n - 1 - used, 0)


def toggle_edge(g: Graph, u: int, v: int, weight: int = 1) -> Graph:
    """New graph: g with edge (u,v) removed if present, else added with
    weight, which is checked like any edge. u, v and weight are read with
    operator.index, as the constructor reads them, so a value that is not an
    integer (2.5, 1.0) raises TypeError. g is left as it is."""
    u, v = operator.index(u), operator.index(v)
    a, b = (u, v) if u < v else (v, u)
    k, found = g._locate(a, b)
    if found:
        return Graph._from_canonical(g.n, g.max_weight, np.delete(g.eu, k),
                                     np.delete(g.ev, k), np.delete(g.ew, k))
    weight = operator.index(weight)
    error = _edge_error(g.n, g.max_weight, a, b, weight, False)
    if error:
        raise ValueError(error)
    return Graph._from_canonical(g.n, g.max_weight, np.insert(g.eu, k, a),
                                 np.insert(g.ev, k, b), np.insert(g.ew, k, weight))
