"""Graph container, edge-list file format, and exact reference algorithms.

The file format is line oriented: a header "n m" (or "n m w" for weighted
graphs) followed by m edge lines "u v" or "u v weight". Vertices are
0-indexed, weights are positive integers, '#' starts a comment, and blank
lines are skipped. Serialization is canonical: edges sorted lexicographically
with each endpoint pair normalized to u < v, so load(save(g)) round-trips
byte-identically.

A Graph is a set of read-only int64 arrays: the canonical edge list eu < ev
with weights ew, sorted by (eu, ev), and the same edges in compressed sparse
row form, indptr/indices, with each row sorted. One vectorised check
validates every edge. parse_graph converts every edge token in one numpy
call; only a file that call rejects is walked line by line, so that the
first error reported and its message are those of a line-by-line reader.

Graphs are immutable: they are built once, by the constructor or the parser,
and neighboring datasets come from toggle_edge, which returns a new graph.
"""

from __future__ import annotations

import operator
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .streams import _INT64_MAX, _check_bytes, _content_lines, _frozen, _int_rows, _walk_lines

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
    if max_weight is not None and w > max_weight:
        return f"edge weight {w} exceeds declared bound {max_weight}"
    if w > _INT64_MAX:
        return f"edge weight {w} does not fit in a 64-bit integer"
    return None


def _walk_edges(n, max_weight, rows: Iterable[Tuple[int, int, int]]) -> List[Tuple[int, int, int]]:
    """The edge-by-edge check, for the constructor and for files the
    vectorised parse rejected: raise the first edge's error, else return the
    edges as ints."""
    seen = set()
    edges = []
    for row in rows:
        u, v, w = map(operator.index, row)
        key = (u, v) if u < v else (v, u)
        error = _edge_error(n, max_weight, u, v, w, key in seen)
        if error:
            raise ValueError(error)
        seen.add(key)
        edges.append((u, v, w))
    return edges


def _canonical(n, max_weight, rows: np.ndarray):
    """Validate (m, 3) int64 rows (u, v, weight) in input order and return the
    canonical columns (eu, ev, ew), sorted by (eu, ev) with eu < ev. Raises
    the error of the first edge that breaks a rule; an edge is a duplicate
    when an earlier edge joins the same pair, in either orientation."""
    u, v, w = rows[:, 0], rows[:, 1], rows[:, 2]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    order = np.lexsort((hi, lo))
    eu, ev = lo[order], hi[order]
    # The sort is stable, so within a run of equal pairs the first is the
    # earliest edge and the rest are its duplicates.
    duplicate = np.zeros(u.size, dtype=bool)
    duplicate[order[1:][(eu[1:] == eu[:-1]) & (ev[1:] == ev[:-1])]] = True
    bad = duplicate | (lo < 0) | (hi >= n) | (lo == hi) | (w < 1)
    if max_weight is not None:
        bad |= w > max_weight
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
    have max_weight None and all edges carry weight 1.
    """

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]] = (),
                 weights: Optional[Dict[Tuple[int, int], int]] = None,
                 max_weight: Optional[int] = None):
        _check_size(n, max_weight)
        rows = _walk_edges(n, max_weight, (
            (u, v, 1 if weights is None else weights[(u, v) if u < v else (v, u)])
            for u, v in edges))
        rows = np.array(rows, dtype=np.int64).reshape(-1, 3)
        self._assemble(n, max_weight, *_canonical(n, max_weight, rows))

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
    lines = _content_lines(text)
    if not lines:
        raise ValueError("empty graph file")
    header = lines[0].split()
    if len(header) not in (2, 3):
        raise ValueError(f"header must be 'n m' or 'n m w', got {lines[0].strip()!r}")
    n, m = int(header[0]), int(header[1])
    max_weight = int(header[2]) if len(header) == 3 else None
    body = lines[1:]
    if len(body) != m:
        raise ValueError(f"header declares {m} edges but file has {len(body)}")
    _check_size(n, max_weight)
    weighted = max_weight is not None
    rows = _int_rows(body, 3 if weighted else 2)
    if rows is None:
        # Some line or token was refused: the walk raises the first error a
        # line-by-line reader meets, checking each edge as its line is read.
        if weighted:
            edges = _walk_lines(body, 3, "weighted edge line must be 'u v weight'")
        else:
            pairs = _walk_lines(body, 2, "unweighted edge line must be 'u v'")
            edges = ((u, v, 1) for u, v in pairs)
        rows = np.array(_walk_edges(n, max_weight, edges), dtype=np.int64).reshape(-1, 3)
    elif not weighted:
        rows = np.column_stack((rows, np.ones(m, dtype=np.int64)))
    return Graph._from_canonical(n, max_weight, *_canonical(n, max_weight, rows))


def format_graph(g: Graph) -> str:
    """Serialize canonically: sorted edges, normalized endpoints, newline end."""
    out = []
    if g.max_weight is None:
        out.append(f"{g.n} {g.m}")
        for u, v in g.edges():
            out.append(f"{u} {v}")
    else:
        out.append(f"{g.n} {g.m} {g.max_weight}")
        for u, v, w in g.edge_items():
            out.append(f"{u} {v} {w}")
    return "\n".join(out) + "\n"


def load_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def save_graph(g: Graph, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(g))


def connected_components_exact(g: Graph) -> List[List[int]]:
    """All connected components as sorted vertex lists, by smallest member."""
    indptr, indices = g._rows
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


def kruskal_mst_weight(g: Graph) -> int:
    """Minimum spanning tree weight via Kruskal; raises if g is disconnected.
    The canonical edges are already in (eu, ev) order, so a stable sort by
    weight visits them in (weight, eu, ev) order."""
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    order = np.argsort(g.ew, kind="stable")
    total = 0
    used = 0
    for u, v, w in zip(g.eu[order].tolist(), g.ev[order].tolist(), g.ew[order].tolist()):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            total += w
            used += 1
    if used != g.n - 1:
        raise ValueError(
            f"graph is disconnected ({g.n - used} components), spanning tree undefined")
    return total


def toggle_edge(g: Graph, u: int, v: int, weight: int = 1) -> Graph:
    """New graph: g with edge (u,v) removed if present, else added with
    weight, which is checked like any edge. g is left as it is."""
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
