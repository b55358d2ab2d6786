"""Graph representation, generators, and file I/O.

Graphs are simple undirected graphs on dense integer node ids 0..n-1.  A
``Graph`` is immutable after construction and safe to share: a heuristic
run keeps its alive edges and degrees to itself (``matchers._drive``) and
never changes the graph.

A ``Graph`` shares its objects rather than copying them: ``load_graph``
takes every node id from one table of n ints, ``incident`` holds the edge-id
ints of ``edge_id``, and readers of other documents (``load_trace``) point
at the graph's own edge tuples.
"""

from __future__ import annotations

import random
import sys
from array import array
from collections.abc import KeysView
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

Edge = tuple[int, int]


class GraphFormatError(ValueError):
    """Raised for malformed graph, matching or trace documents (carries line info)."""


class GenerationError(RuntimeError):
    """Raised when a random generator cannot produce a graph within budget."""


class SearchBudgetExceededError(RuntimeError):
    """An exhaustive search ran out of budget; carries the best bound found
    (None when there is none) and the budget, counted in ``unit``."""

    def __init__(self, bound: int | None, budget: int, unit: str = "states"):
        super().__init__(f"search budget of {budget} {unit} exceeded")
        self.bound = bound
        self.budget = budget
        self.unit = unit

    def __reduce__(self):
        # Rebuilt from its fields, so that a sweep worker can send it back.
        return type(self), (self.bound, self.budget, self.unit)


def norm_edge(u: int, v: int) -> Edge:
    """Return the canonical (min, max) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


def _first_edge_fault(n: int, edges: Iterable[Edge]) -> tuple[int, str] | None:
    """The index of the first edge of an n-node graph, in the given order,
    that breaks a rule, and the rule; None when every edge keeps them."""
    seen: set[Edge] = set()
    for k, (u, v) in enumerate(edges):
        e = (u, v)
        if u == v:
            return k, f"self-loop at node {u}"
        if not (0 <= u < n and 0 <= v < n):
            return k, f"edge {e} has node id outside 0..{n - 1}"
        if u > v:
            return k, f"edge {e} not in canonical (min, max) order"
        if e in seen:
            return k, f"duplicate edge {e}"
        seen.add(e)
    return None


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph with node count, edge set, and cached max degree.

    An edge's id is its index in ``edges``, the canonical edge order;
    ``edge_id`` maps each edge to its id and is built once, with the graph.
    """

    n: int
    edges: tuple[Edge, ...]
    delta: int = field(init=False)
    adjacency: tuple[tuple[int, ...], ...] = field(init=False)
    edge_id: dict[Edge, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.n
        if n < 0:
            raise ValueError(f"node count {n} is negative")
        # Sorting is cheap, since every generator and reader passes the edges
        # sorted.  Each edge is hashed once, into edge_id: a repeated one
        # makes it shorter.  A faulty input is walked again to name its fault.
        edges = tuple(sorted(map(tuple, self.edges)))
        edge_id = dict(zip(edges, range(len(edges))))
        faulty = len(edge_id) < len(edges)
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not 0 <= u < v < n:
                faulty = True
                break
            adj[u].append(v)
            adj[v].append(u)
        if faulty:
            raise ValueError(_first_edge_fault(n, self.edges)[1])
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "edge_id", edge_id)
        # In canonical order every node meets its neighbors in ascending id.
        object.__setattr__(self, "adjacency", tuple(map(tuple, adj)))
        object.__setattr__(self, "delta", max(map(len, adj), default=0))

    @cached_property
    def incident(self) -> tuple[tuple[int, ...], ...]:
        """incident[v][j] is the id of the edge from v to adjacency[v][j];
        built on first use."""
        inc: list[list[int]] = [[] for _ in range(self.n)]
        # The ids are the ints edge_id holds, not a second set of them.
        for (u, v), i in self.edge_id.items():
            inc[u].append(i)
            inc[v].append(i)
        return tuple(map(tuple, inc))

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        return Graph(n, tuple(sorted({norm_edge(u, v) for u, v in edges})))

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def edge_set(self) -> KeysView[Edge]:
        """The canonical edges as a set (a view of ``edge_id``)."""
        return self.edge_id.keys()

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

    def validate(self, g: Graph) -> None:
        """Check every pair is an edge of g (disjointness holds by construction);
        the error names the smallest pair that is not."""
        bad = [e for e in self.pairs if e not in g.edge_id]
        if bad:
            raise ValueError(f"matching pair {min(bad)} is not an edge of the graph")


# ---------------------------------------------------------------------------
# File formats.
#
# Every document (graph, matching, trace, move script) holds one record per
# line: a tag, then a fixed number of fields (see _fields).  Graph file: a
# header "graph <n> <m>", then exactly m lines "e <u> <v>" with
# 0 <= u < v < n.  Matching file: "m <u> <v>" lines.  A line ends at \n,
# \r\n or \r only (see _lines).  Each reader reads its document in one pass
# and raises at the first faulty line, naming it.
# ---------------------------------------------------------------------------

# The largest node count a graph document may announce: ten times the
# largest graphs the project plans to verify (10^5 nodes), so a corrupt
# header cannot make load_graph allocate adjacency lists without bound.
MAX_NODES = 10**6

_GRAPH_FORMS = {"graph": "graph <n> <m>", "e": "e <u> <v>"}


def _lines(text: str) -> list[str]:
    r"""The lines of text, broken at \n, \r\n and \r only.  str.splitlines
    also breaks at \v, \f, \x1c-\x1e, \x85, \u2028 and \u2029, which
    str.split takes for whitespace between the fields of one line."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _fields(lineno: int, parts: list[str], forms: dict[str, str]) -> list:
    """The fields of line lineno, split into parts, as the form of its tag in
    forms fixes them: integers, and a trailing ``<mode>`` as it stands.  An
    unknown tag, a wrong field count or a non-integer field raises."""
    form = forms.get(parts[0])
    if form is None:
        raise GraphFormatError(f"line {lineno}: unknown record '{parts[0]}'")
    slots = form.split()
    if len(parts) != len(slots):
        raise GraphFormatError(f"line {lineno}: record must be '{form}'")
    try:
        return [p if slot == "<mode>" else int(p) for slot, p in zip(slots[1:], parts[1:])]
    except ValueError:
        raise GraphFormatError(f"line {lineno}: non-integer field in '{form}'") from None


def _graph_error(lineno: int, parts: list[str], n: int, edges: list[Edge],
                 other: list[int]) -> GraphFormatError:
    """The error of a graph document whose line lineno, split into parts,
    fails load_graph's checks.  A repeated edge on an earlier line is named
    first: other holds, ascending, the numbers of the lines read that hold
    no edge, so the k-th edge is on line k + 1 plus those before it."""
    fault = _first_edge_fault(n, edges)
    if fault is not None:
        lineno, fault = fault
        lineno += 1
        for skipped in other:
            if skipped > lineno:
                break
            lineno += 1
    else:
        a, b = _fields(lineno, parts, _GRAPH_FORMS)
        if parts[0] == "e":
            fault = "edge before header" if n < 0 else _first_edge_fault(n, [(a, b)])[1]
        elif n >= 0:
            fault = "duplicate header"
        elif a < 0 or b < 0:
            fault = "negative header field"
        else:
            fault = f"{a} nodes exceed the bound of {MAX_NODES}"
    return GraphFormatError(f"line {lineno}: {fault}")


def load_graph(text: str) -> Graph:
    """Parse the edge-list document format; report errors with line numbers.

    The document is read in one pass, and the first faulty line raises.
    Each node id is taken from one table of n ints, so the edges share one
    int per node; an edge line is checked for 0 <= u < v < n before the
    table is indexed, and repeated edges are left to ``Graph``.
    """
    n = -1   # no header yet, so every edge line fails the bound check
    node: list[int] = []
    edges: list[Edge] = []
    other: list[int] = []   # the numbers of the lines read that hold no edge
    try:
        for lineno, parts in enumerate(map(str.split, _lines(text)), start=1):
            if not parts:
                other.append(lineno)
                continue
            tag = parts[0]
            if tag == "e" and len(parts) == 3:
                u = int(parts[1])
                v = int(parts[2])
                if not 0 <= u < v < n:
                    raise ValueError
                edges.append((node[u], node[v]))
            elif tag == "graph" and len(parts) == 3 and n < 0:
                header = int(parts[1]), int(parts[2])
                if not (0 <= header[0] <= MAX_NODES and header[1] >= 0):
                    raise ValueError
                n, m = header
                node = list(range(n))
                other.append(lineno)
            elif tag[0] == "#":
                other.append(lineno)
            else:
                raise ValueError
    except ValueError:
        raise _graph_error(lineno, parts, n, edges, other) from None
    if n < 0:
        raise GraphFormatError("missing 'graph <n> <m>' header")
    try:
        g = Graph(n, tuple(edges))
    except ValueError:
        # Only a repeated edge is left to fail, and it is named first.
        raise _graph_error(0, [], n, edges, other) from None
    if m != len(edges):
        raise GraphFormatError(f"header announced {m} edges, found {len(edges)}")
    return g


# save_graph joins this many edge lines at a time, so that only one chunk's
# line strings are alive at once next to the joined chunks.
_SAVE_CHUNK = 4096


def save_graph(g: Graph) -> str:
    edges = g.edges
    chunks = [f"graph {g.n} {g.m}\n"]
    for k in range(0, len(edges), _SAVE_CHUNK):
        chunks.append("".join([f"e {u} {v}\n" for u, v in edges[k:k + _SAVE_CHUNK]]))
    return "".join(chunks)


def load_matching(text: str, g: Graph | None = None) -> Matching:
    """Parse a matching document; against g, every pair must be an edge of g.

    A self-pair, a pair sharing a node with an earlier pair, or a pair that
    is not an edge of g raises GraphFormatError naming its line.
    """
    pairs: list[Edge] = []
    covered: set[int] = set()
    for lineno, parts in enumerate(map(str.split, _lines(text)), start=1):
        if not parts or parts[0][0] == "#":
            continue
        u, v = _fields(lineno, parts, {"m": "m <u> <v>"})
        e = norm_edge(u, v)
        if u == v:
            fault = f"self-pair at node {u}"
        elif u in covered or v in covered:
            fault = f"pair {e} shares a node with an earlier pair"
        elif g is not None and e not in g.edge_id:
            fault = f"matching pair {e} is not an edge of the graph"
        else:
            covered.update(e)
            pairs.append(e)
            continue
        raise GraphFormatError(f"line {lineno}: {fault}")
    return Matching(frozenset(pairs))


def save_matching(m: Matching) -> str:
    return "".join(f"m {u} {v}\n" for u, v in m)


# ---------------------------------------------------------------------------
# Generators.  All randomness flows through random.Random(seed) so identical
# seeds reproduce identical graphs on every platform.
# ---------------------------------------------------------------------------


# gen_random_bounded shuffles all n(n-1)/2 candidate pairs, so its time and
# memory grow as n^2.  From _ARRAY_PAIRS_NODES nodes up each pair is a 4-byte
# code in an array (_PAIR_TYPECODE), and every code stays below 2**32 while
# n <= 4096.  Measured in one process (Python 3.11, 2-core x86-64), n = 4096
# takes 6.4-7.7 s and 56 MB of peak RSS, and n = 10^5 would need some 20 GB.
MAX_RANDOM_NODES = 4096
_PAIR_TYPECODE = "I"
# From this many nodes up the codes go in an array, not a list of ints: the
# array shuffles faster once the list's int objects outgrow the caches
# (measured crossover between n = 200 and 300), and below that a list is
# faster, since the interpreter specialises list indexing but boxes each
# array item it swaps.
_ARRAY_PAIRS_NODES = 256


# _shuffle draws its words from the generator this many at a time: one big
# getrandbits call per chunk instead of one Python-level call per position,
# while the buffer stays at 16 KB (one draw of all 8.4 M words of n = 4096
# took that generator's peak RSS from 53 to 116 MB).
_SHUFFLE_CHUNK = 4096
# Shorter sequences go to rng.shuffle itself, which gives the same bytes: the
# cutoff is a speed choice, like _ARRAY_PAIRS_NODES.  Per call, rng.shuffle
# was faster up to 48 elements and the bulk draw from 96 up, by 17% or more
# (median of 4000 calls, lists and arrays, Python 3.11, 2-core x86-64).
_SHUFFLE_CUTOFF = 100


def _shuffle(rng: random.Random, seq) -> None:
    """Shuffle a list or array in place exactly as ``rng.shuffle(seq)`` does.

    ``random.shuffle`` fixes positions i = len-1 down to 1, each with
    ``j = rng._randbelow(i + 1)``: one 32-bit Mersenne Twister word shifted
    right by 32 - k, k = (i + 1).bit_length(), drawn again while j > i.
    ``getrandbits(32 * c)`` returns the next c words with the first drawn in
    the lowest 32 bits, so its little-endian bytes list them in draw order.
    A chunk holds no more words than positions are left, and each position
    takes at least one, so seq and the state of rng end up as after
    ``rng.shuffle(seq)``.
    """
    if len(seq) < _SHUFFLE_CUTOFF:
        rng.shuffle(seq)
        return
    i = len(seq) - 1
    getrandbits = rng.getrandbits
    k = (i + 1).bit_length()
    shift = 32 - k
    # Once i drops below low, (i + 1).bit_length() is one smaller.
    low = (1 << (k - 1)) - 1
    while i:
        c = min(i, _SHUFFLE_CHUNK)
        words = array("I", getrandbits(32 * c).to_bytes(4 * c, "little"))
        if sys.byteorder == "big":
            words.byteswap()
        for w in words:
            j = w >> shift
            if j <= i:
                seq[i], seq[j] = seq[j], seq[i]
                i -= 1
                if i < low:
                    shift += 1
                    low >>= 1


def _check_node_count(n: int, bound: int = MAX_NODES) -> None:
    """Refuse n above MAX_NODES, then above a generator's own bound, before allocating."""
    if n > MAX_NODES:
        raise ValueError(f"{n} nodes exceed the bound of {MAX_NODES}")
    if n > bound:
        raise ValueError(f"{n} nodes exceed the random generator's bound of {bound}")


def gen_random_bounded(n: int, delta: int, p: float, seed: int) -> Graph:
    """Random graph with max degree <= delta and at most MAX_RANDOM_NODES nodes.

    Candidate pairs are visited in a seeded-random order and each is kept
    with probability p when both endpoints still have spare degree.
    """
    _check_node_count(n, MAX_RANDOM_NODES)
    if delta < 1:
        raise ValueError("delta must be >= 1")
    rng = random.Random(seed)
    # Pairs are shuffled as codes u << 20 | v (MAX_NODES < 2**20): a shuffle's
    # draws depend only on the sequence's length, so the order is as for tuples.
    if n < _ARRAY_PAIRS_NODES:
        pairs = [u << 20 | v for u in range(n) for v in range(u + 1, n)]
    else:
        pairs = array(_PAIR_TYPECODE)
        for u in range(n):
            pairs.extend(range(u << 20 | u + 1, u << 20 | n))
    _shuffle(rng, pairs)
    deg = [0] * n
    edges = []
    for code in pairs:
        u = code >> 20
        v = code & 0xFFFFF
        if deg[u] < delta and deg[v] < delta and rng.random() < p:
            deg[u] += 1
            deg[v] += 1
            edges.append((u, v))
    return Graph(n, tuple(sorted(edges)))


PAIRING_ATTEMPTS = 1000


def gen_regular(n: int, d: int, seed: int) -> Graph:
    """Simple d-regular graph via the pairing model with rejection.

    A pairing with a self-loop or a repeated edge is rejected whole, and
    after ``PAIRING_ATTEMPTS`` rejections the generator gives up.  For small
    dense parameters nearly every pairing is rejected, so e.g.
    ``gen_regular(8, 5, 9)`` raises GenerationError although 5-regular
    graphs on 8 nodes exist.
    """
    _check_node_count(n)
    if n * d % 2 != 0:
        raise ValueError("n * d must be even")
    if not 0 <= d < n:
        raise ValueError("need 0 <= d < n")
    rng = random.Random(seed)
    base = [v for v in range(n) for _ in range(d)]
    for _ in range(PAIRING_ATTEMPTS):
        stubs = base.copy()
        _shuffle(rng, stubs)
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
    raise GenerationError(f"pairing model rejected {PAIRING_ATTEMPTS} attempts for n={n}, d={d}")
