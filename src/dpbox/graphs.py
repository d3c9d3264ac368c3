"""Graph container, edge-list file format, and exact reference algorithms.

The file format is line oriented: a header "n m" (or "n m w" for weighted
graphs) followed by m edge lines "u v" or "u v weight". Vertices are
0-indexed, weights are positive integers, '#' starts a comment, and blank
lines are skipped. Serialization is canonical: edges sorted lexicographically
with each endpoint pair normalized to u < v, so load(save(g)) round-trips
byte-identically.

Graphs are immutable: they are built once, by the constructor or the parser,
and neighboring datasets come from toggle_edge, which returns a new graph.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

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


class Graph:
    """Immutable undirected graph on vertices 0..n-1 with optional integer
    edge weights.

    Graph(n, edges, weights, max_weight) takes the edges as (u, v) pairs and,
    for a weighted graph, their weights keyed by the normalized pair
    (min(u, v), max(u, v)). Every edge is validated once and each adjacency
    list is sorted once, after all edges are in, which gives a deterministic
    traversal order. A Graph has no mutators: toggle_edge and
    subgraph_weight_at_most return new graphs, so a graph object stands for
    one fixed dataset and may key a memo by identity. neighbors() returns the
    stored list, which callers must not modify. max_weight is the declared
    weight bound w; unweighted graphs have max_weight None and all edges
    carry weight 1.
    """

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]] = (),
                 weights: Optional[Dict[Tuple[int, int], int]] = None,
                 max_weight: Optional[int] = None):
        self._build(n, max_weight,
                    ((u, v, 1 if weights is None else weights[self._key(u, v)])
                     for u, v in edges))

    @classmethod
    def _from_items(cls, n: int, max_weight: Optional[int],
                    items: Iterable[Tuple[int, int, int]]) -> "Graph":
        g = cls.__new__(cls)
        g._build(n, max_weight, items)
        return g

    def _build(self, n, max_weight, items):
        """The one construction step: validate each (u, v, weight) triple, fill
        the weight map and the adjacency lists, then sort each list once."""
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n!r}")
        self.n = int(n)
        self.max_weight = None if max_weight is None else int(max_weight)
        if self.max_weight is not None and self.max_weight < 1:
            raise ValueError(f"max_weight must be >= 1, got {max_weight!r}")
        adj: List[List[int]] = [[] for _ in range(self.n)]
        weights: Dict[Tuple[int, int], int] = {}
        for u, v, weight in items:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u} not allowed")
            key = self._key(u, v)
            if key in weights:
                raise ValueError(f"duplicate edge {key}")
            w = int(weight)
            if w < 1:
                raise ValueError(f"edge weight must be a positive integer, got {weight!r}")
            if self.max_weight is not None and w > self.max_weight:
                raise ValueError(f"edge weight {w} exceeds declared bound {self.max_weight}")
            weights[key] = w
            adj[u].append(v)
            adj[v].append(u)
        for nbrs in adj:
            nbrs.sort()
        self._adj = adj
        self._weights = weights

    @staticmethod
    def _key(u: int, v: int) -> Tuple[int, int]:
        return (u, v) if u < v else (v, u)

    def has_edge(self, u: int, v: int) -> bool:
        return self._key(u, v) in self._weights

    def weight(self, u: int, v: int) -> int:
        return self._weights[self._key(u, v)]

    def neighbors(self, u: int) -> List[int]:
        return self._adj[u]

    def degree(self, u: int) -> int:
        return len(self._adj[u])

    @property
    def m(self) -> int:
        return len(self._weights)

    def edges(self) -> List[Tuple[int, int]]:
        return sorted(self._weights)

    def edge_items(self) -> List[Tuple[int, int, int]]:
        return [(u, v, self._weights[(u, v)]) for u, v in self.edges()]

    def subgraph_weight_at_most(self, threshold: int) -> "Graph":
        """New graph keeping exactly the edges of weight <= threshold."""
        return Graph._from_items(self.n, self.max_weight,
                                 ((u, v, w) for (u, v), w in self._weights.items()
                                  if w <= threshold))

    def __repr__(self):
        wpart = "" if self.max_weight is None else f", w<={self.max_weight}"
        return f"Graph(n={self.n}, m={self.m}{wpart})"


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format described in the module docstring."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ValueError("empty graph file")
    header = lines[0].split()
    if len(header) == 2:
        n, m = int(header[0]), int(header[1])
        max_weight = None
    elif len(header) == 3:
        n, m = int(header[0]), int(header[1])
        max_weight = int(header[2])
    else:
        raise ValueError(f"header must be 'n m' or 'n m w', got {lines[0]!r}")
    if len(lines) - 1 != m:
        raise ValueError(f"header declares {m} edges but file has {len(lines) - 1}")

    def items():
        for line in lines[1:]:
            parts = line.split()
            if max_weight is None:
                if len(parts) != 2:
                    raise ValueError(f"unweighted edge line must be 'u v', got {line!r}")
                yield int(parts[0]), int(parts[1]), 1
            else:
                if len(parts) != 3:
                    raise ValueError(
                        f"weighted edge line must be 'u v weight', got {line!r}")
                yield int(parts[0]), int(parts[1]), int(parts[2])

    return Graph._from_items(n, max_weight, items())


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
            for v in g.neighbors(u):
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    stack.append(v)
        comps.append(sorted(comp))
    return comps


def kruskal_mst_weight(g: Graph) -> int:
    """Minimum spanning tree weight via Kruskal; raises if g is disconnected."""
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    total = 0
    used = 0
    for u, v, w in sorted(g.edge_items(), key=lambda t: (t[2], t[0], t[1])):
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
    weight. It is built from g's edge map in one pass; g is left as it is."""
    key = Graph._key(u, v)
    weights = dict(g._weights)
    if weights.pop(key, None) is None:
        weights[key] = weight
    return Graph._from_items(g.n, g.max_weight,
                             ((a, b, w) for (a, b), w in weights.items()))
