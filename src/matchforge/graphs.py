"""Graph representation, mutable residual views, generators, and file I/O.

Graphs are simple undirected graphs on dense integer node ids 0..n-1.  A
``Graph`` is immutable after construction and safe to share; a
``ResidualView`` is the mutable deletion view a single heuristic run owns
exclusively (each run or replay builds its own from the graph).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator

Edge = tuple[int, int]


class GraphFormatError(ValueError):
    """Raised for malformed graph or matching documents (carries line info)."""


class GenerationError(RuntimeError):
    """Raised when a random generator cannot produce a graph within budget."""


def norm_edge(u: int, v: int) -> Edge:
    """Return the canonical (min, max) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


def _check_edge(n: int, e: Edge, seen: set[Edge]) -> None:
    """Add edge e of an n-node graph to seen; raise ValueError if it breaks a rule."""
    u, v = e
    if u == v:
        raise ValueError(f"self-loop at node {u}")
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge {e} has node id outside 0..{n - 1}")
    if u > v:
        raise ValueError(f"edge {e} not in canonical (min, max) order")
    if e in seen:
        raise ValueError(f"duplicate edge {e}")
    seen.add(e)


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph with node count, edge set, and cached max degree."""

    n: int
    edges: tuple[Edge, ...]
    delta: int = field(init=False)
    adjacency: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"node count {self.n} is negative")
        seen: set[Edge] = set()
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            _check_edge(self.n, (u, v), seen)
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "edges", tuple(sorted(seen)))
        object.__setattr__(self, "adjacency", tuple(tuple(sorted(a)) for a in adj))
        object.__setattr__(self, "delta", max((len(a) for a in adj), default=0) if self.n else 0)

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        return Graph(n, tuple(sorted({norm_edge(u, v) for u, v in edges})))

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


@dataclass(frozen=True)
class Matching:
    """A node-disjoint set of edges, stored in canonical (min, max) form."""

    pairs: frozenset[Edge]

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[int, int]]) -> "Matching":
        return Matching(frozenset(norm_edge(u, v) for u, v in pairs))

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for u, v in self.pairs:
            if u in seen or v in seen or u == v:
                raise ValueError("matching pairs are not node-disjoint")
            seen.add(u)
            seen.add(v)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[Edge]:
        return iter(sorted(self.pairs))

    def __contains__(self, edge: tuple[int, int]) -> bool:
        return norm_edge(*edge) in self.pairs

    @property
    def nodes(self) -> frozenset[int]:
        return frozenset(x for e in self.pairs for x in e)

    def validate(self, g: Graph) -> None:
        """Check every pair is an edge of g (disjointness holds by construction)."""
        for e in self.pairs:
            if e not in g.edge_set:
                raise ValueError(f"matching pair {e} is not an edge of the graph")


class ResidualView:
    """Mutable deletion view of a graph with degree buckets.

    Tracks which edges are still alive, per-node alive degrees, and a
    degree -> nodes bucket index so minimum-degree queries stay cheap.
    """

    __slots__ = ("graph", "_alive", "deg", "_buckets")

    def __init__(self, graph: Graph):
        self.graph = graph
        self._alive: set[Edge] = set(graph.edges)
        self.deg: list[int] = [graph.degree(v) for v in range(graph.n)]
        self._buckets: dict[int, set[int]] = {}
        for v in range(graph.n):
            if self.deg[v] > 0:
                self._buckets.setdefault(self.deg[v], set()).add(v)

    def has_alive(self) -> bool:
        return bool(self._alive)

    def alive_edge(self, u: int, v: int) -> bool:
        return norm_edge(u, v) in self._alive

    def alive_edges(self) -> list[Edge]:
        return sorted(self._alive)

    def alive_neighbors(self, v: int) -> list[int]:
        return [w for w in self.graph.adjacency[v] if norm_edge(v, w) in self._alive]

    def degree_of(self, v: int) -> int:
        return self.deg[v]

    def min_degree(self) -> int:
        """Minimum nonzero alive degree, or 0 if no edges remain."""
        live = [d for d, s in self._buckets.items() if s]
        return min(live) if live else 0

    def min_degree_nodes(self) -> list[int]:
        """All nodes of minimum nonzero degree, ascending id."""
        d = self.min_degree()
        if d == 0:
            raise ValueError("residual graph has no alive edges")
        return sorted(self._buckets[d])

    def _set_deg(self, v: int, d: int) -> None:
        old = self.deg[v]
        if old == d:
            return
        if old > 0:
            self._buckets[old].discard(v)
        if d > 0:
            self._buckets.setdefault(d, set()).add(v)
        self.deg[v] = d

    def remove_pair(self, u: int, v: int) -> list[Edge]:
        """Kill every alive edge incident to u or v; return them in ascending order.

        The edge {u, v} itself must be alive.
        """
        if not self.alive_edge(u, v):
            raise ValueError(f"edge {norm_edge(u, v)} is not alive")
        removed: set[Edge] = set()
        for x in (u, v):
            for w in self.graph.adjacency[x]:
                e = norm_edge(x, w)
                if e in self._alive:
                    removed.add(e)
        for e in removed:
            self._alive.discard(e)
            for x in e:
                self._set_deg(x, self.deg[x] - 1)
        return sorted(removed)

    def restore_edges(self, removed: Iterable[Edge]) -> None:
        """Exact inverse of remove_pair, used by exhaustive searches."""
        for e in removed:
            if e in self._alive:
                raise ValueError(f"edge {e} is already alive")
            self._alive.add(e)
            for x in e:
                self._set_deg(x, self.deg[x] + 1)

    def check_consistency(self) -> None:
        """Recompute degrees and buckets from alive edges; raise on drift."""
        deg = [0] * self.graph.n
        for u, v in self._alive:
            deg[u] += 1
            deg[v] += 1
        if deg != self.deg:
            raise ValueError("maintained degrees drifted from alive edges")
        positive = {v for v in range(self.graph.n) if deg[v] > 0}
        bucketed = {v for s in self._buckets.values() for v in s}
        if positive != bucketed:
            raise ValueError("buckets do not partition nodes of positive degree")
        if any(deg[v] != d for d, s in self._buckets.items() for v in s):
            raise ValueError("a node sits in the bucket of another degree")


# ---------------------------------------------------------------------------
# File formats.
#
# Every document (graph, matching, trace, move script) holds one record per
# line (see read_records).  Graph file: a header "graph <n> <m>", then exactly
# m lines "e <u> <v>" with 0 <= u < v < n.  Matching file: "m <u> <v>" lines.
# ---------------------------------------------------------------------------

# The largest node count a graph document may announce: ten times the
# largest graphs the project plans to verify (10^5 nodes), so a corrupt
# header cannot make load_graph allocate adjacency lists without bound.
MAX_NODES = 10**6


def read_records(text: str, forms: dict[str, str]) -> Iterator[tuple[int, str, list]]:
    """Yield (line number, tag, fields) for each record of a document.

    ``forms`` maps each allowed tag to its form, e.g. ``{"e": "e <u> <v>"}``,
    which fixes the field count.  Fields are integers, except a trailing
    ``<mode>``, which stays a string.  Any other line raises GraphFormatError.
    """
    shapes = {}  # tag -> (token count, end of the integer tokens)
    for tag, form in forms.items():
        size = len(form.split())
        shapes[tag] = (size, size - 1 if form.endswith(" <mode>") else size)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        tag = parts[0]
        if tag not in forms:
            raise GraphFormatError(f"line {lineno}: unknown record '{tag}'")
        size, stop = shapes[tag]
        if len(parts) != size:
            raise GraphFormatError(f"line {lineno}: record must be '{forms[tag]}'")
        try:
            fields = [*map(int, parts[1:stop]), *parts[stop:]]
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer field in '{forms[tag]}'") from None
        yield lineno, tag, fields


def load_graph(text: str) -> Graph:
    """Parse the edge-list document format; report errors with line numbers."""
    n = None
    m_expect = None
    seen: set[Edge] = set()
    for lineno, tag, fields in read_records(text, {"graph": "graph <n> <m>", "e": "e <u> <v>"}):
        if tag == "graph":
            if n is not None:
                raise GraphFormatError(f"line {lineno}: duplicate header")
            n, m_expect = fields
            if n < 0 or m_expect < 0:
                raise GraphFormatError(f"line {lineno}: negative header field")
            if n > MAX_NODES:
                raise GraphFormatError(f"line {lineno}: {n} nodes exceed the bound of {MAX_NODES}")
            continue
        if n is None:
            raise GraphFormatError(f"line {lineno}: edge before header")
        try:
            _check_edge(n, tuple(fields), seen)
        except ValueError as exc:
            raise GraphFormatError(f"line {lineno}: {exc}") from None
    if n is None:
        raise GraphFormatError("missing 'graph <n> <m>' header")
    if m_expect != len(seen):
        raise GraphFormatError(f"header announced {m_expect} edges, found {len(seen)}")
    return Graph(n, tuple(sorted(seen)))


def save_graph(g: Graph) -> str:
    lines = [f"graph {g.n} {g.m}"]
    lines.extend(f"e {u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def load_matching(text: str, g: Graph | None = None) -> Matching:
    pairs = [fields for _, _, fields in read_records(text, {"m": "m <u> <v>"})]
    try:
        matching = Matching.from_pairs(pairs)
        if g is not None:
            matching.validate(g)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None
    return matching


def save_matching(m: Matching) -> str:
    return "".join(f"m {u} {v}\n" for u, v in m)


# ---------------------------------------------------------------------------
# Generators.  All randomness flows through random.Random(seed) so identical
# seeds reproduce identical graphs on every platform.
# ---------------------------------------------------------------------------


def gen_random_bounded(n: int, delta: int, p: float, seed: int) -> Graph:
    """Random graph with max degree <= delta.

    Candidate pairs are visited in a seeded-random order and each is kept
    with probability p when both endpoints still have spare degree.
    """
    if delta < 1:
        raise ValueError("delta must be >= 1")
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    deg = [0] * n
    edges = []
    for u, v in pairs:
        if deg[u] < delta and deg[v] < delta and rng.random() < p:
            deg[u] += 1
            deg[v] += 1
            edges.append((u, v))
    return Graph(n, tuple(sorted(edges)))


def gen_regular(n: int, d: int, seed: int, max_attempts: int = 1000) -> Graph:
    """Simple d-regular graph via the pairing model with rejection."""
    if n * d % 2 != 0:
        raise ValueError("n * d must be even")
    if not 0 <= d < n:
        raise ValueError("need 0 <= d < n")
    rng = random.Random(seed)
    for _ in range(max_attempts):
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges: set[Edge] = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or norm_edge(u, v) in edges:
                ok = False
                break
            edges.add(norm_edge(u, v))
        if ok:
            return Graph(n, tuple(sorted(edges)))
    raise GenerationError(f"pairing model rejected {max_attempts} attempts for n={n}, d={d}")


def connected_components(g: Graph) -> list[list[int]]:
    """Partition of 0..n-1 into maximal connected sets, each sorted,
    ordered by least element."""
    seen = [False] * g.n
    out: list[list[int]] = []
    for start in range(g.n):
        if seen[start]:
            continue
        comp = []
        stack = [start]
        seen[start] = True
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in g.adjacency[x]:
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
        out.append(sorted(comp))
    return out
