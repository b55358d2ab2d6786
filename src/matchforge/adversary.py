"""Adaptive-priority games in the vertex model.

An algorithm is a ranked list of patterns over adjacency-list data items
(degree and knowledge-class counts, optionally a node id); the adversary
serves the highest-ranked satisfiable item, constructing the graph on the
fly.  Served lists are final: matched nodes are never removed from them,
and every list shown must be consistent with the graph the game ends with.

Two on-the-fly constructors are provided: the budgetless one that forces
any degree-pattern algorithm down to one expensive component, and the
node-count-announcing one that mass-produces such components so the ratio
approaches the same bound from above.

A round costs what it changes.  The adversary keeps each node's count of
unmatched neighbors as edges and matches happen, and files each live node
in one min-heap per count (at most delta heaps), so a pattern on that
count reads the tops of the heaps it admits instead of rescanning nodes.
A reveal only grows the known set; known neighbors are counted on demand.
A rule encoding's degree patterns are a slice of one ladder of shared
constants, so a run of games builds each pattern and its text once; the
transcript's query line is joined once per distinct list.  A constructor finds the
fresh degree a pattern admits from the pattern's fields, not by trying
every degree.
Served nodes, and so transcripts, are the ones a scan of every node in id
order gives; tests/test_adversary.py keeps that scan as the oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush

from .graphs import MAX_NODES, Edge, Graph, Matching, norm_edge, save_graph
from .matchers import MIN_FORCED, MIN_NODE, RULES, PolicyError


class GameError(RuntimeError):
    """Illegal game state: non-total pattern lists, degree violations, or an
    unsupported partner choice."""


# ---------------------------------------------------------------------------
# Patterns and data items
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DataItem:
    """A node's full adjacency list as served to the algorithm."""

    node: int
    neighbors: tuple[int, ...]


@dataclass(frozen=True)
class Pattern:
    """One entry of a ranked priority query.

    Constrains the served node's list by the number of unmatched neighbors
    (its current degree), the total list length, the number of already
    revealed neighbors, and optionally the node id itself.  Unset fields
    match anything.
    """

    unmatched: int | None = None
    unmatched_min: int | None = None
    total: int | None = None
    known: int | None = None
    node: int | None = None

    def matches(self, total: int, unmatched: int, known: int, node: int | None = None) -> bool:
        if self.unmatched is not None and unmatched != self.unmatched:
            return False
        if self.unmatched_min is not None and unmatched < self.unmatched_min:
            return False
        if self.total is not None and total != self.total:
            return False
        if self.known is not None and known != self.known:
            return False
        if self.node is not None and node != self.node:
            return False
        return True

    def describe(self) -> str:
        return self._text

    @cached_property
    def _text(self) -> str:
        # Built on first use and kept with the object, so a shared pattern
        # is described once however many games log it.
        parts = []
        if self.node is not None:
            parts.append(f"node={self.node}")
        if self.unmatched is not None:
            parts.append(f"deg={self.unmatched}")
        if self.unmatched_min is not None:
            parts.append(f"deg>={self.unmatched_min}")
        if self.total is not None:
            parts.append(f"len={self.total}")
        if self.known is not None:
            parts.append(f"known={self.known}")
        return ",".join(parts) or "any"


CATCH_ALL = Pattern(unmatched_min=1)

# _DEGREE_LADDER[d - 1] is Pattern(unmatched=d): immutable shared values, as
# CATCH_ALL is, grown on demand to the longest ranking played so far.  That
# ranking is at most MAX_NODES - 1 entries (the bound AdversaryBPrime
# enforces on the announced node count); an entry with its text takes about
# 270 bytes, 27 MB per 10^5 entries (tracemalloc, Python 3.11).
_DEGREE_LADDER: tuple[Pattern, ...] = ()


def _degree_patterns(k: int) -> tuple[Pattern, ...]:
    """The patterns deg=1..deg=k, a prefix of the shared ladder."""
    global _DEGREE_LADDER
    if k > len(_DEGREE_LADDER):
        _DEGREE_LADDER += tuple(Pattern(unmatched=d)
                                for d in range(len(_DEGREE_LADDER) + 1, k + 1))
    return _DEGREE_LADDER[:k]


# ---------------------------------------------------------------------------
# Priority algorithms
# ---------------------------------------------------------------------------


class PriorityAlgorithm:
    """Base: tracks its own matches and picks the first unmatched neighbor."""

    def start(self, announced_nodes: int | None) -> None:
        """Begin a game; a subclass builds its ranked list here."""
        self.matched: set[int] = set()
        self.patterns: tuple[Pattern, ...] = ()

    def query(self) -> tuple[Pattern, ...]:
        """The ranked list for this round: the one built by start, handed
        out as is, so that an unchanged query is the same object."""
        return self.patterns

    def receive(self, item: DataItem) -> int:
        partner = self.pick_partner(item)
        self.matched.add(item.node)
        self.matched.add(partner)
        return partner

    def pick_partner(self, item: DataItem) -> int:
        for w in item.neighbors:
            if w not in self.matched:
                return w
        raise GameError(f"served node {item.node} has no unmatched neighbor")


class RuleEncoding(PriorityAlgorithm):
    """A ``matchers.RULES`` heuristic: lists of degree d = 1, 2, ... (up to
    n - 1, or 64) while the rule takes a minimum-degree node at d, then any
    non-isolated list, which also encodes free and any-node steps."""

    def __init__(self, algo: str):
        self.rule = RULES[algo]

    def start(self, announced_nodes):
        super().start(announced_nodes)
        cap = (announced_nodes - 1) if announced_nodes else 64
        k = 0
        while k < cap and self.rule(k + 1) in (MIN_NODE, MIN_FORCED):
            k += 1
        self.patterns = _degree_patterns(k) + (CATCH_ALL,)


class ShuffleEncoding(PriorityAlgorithm):
    """A fixed node permutation ranks both the served node and the partner.
    Without one, seed draws it; seed None keeps the identity order
    (vertex-iterative)."""

    def __init__(self, permutation=None, seed: int | None = 0):
        self.permutation = list(permutation) if permutation is not None else None
        self.seed = seed

    def start(self, announced_nodes):
        super().start(announced_nodes)
        if announced_nodes is None:
            raise PolicyError("a node-order encoding needs the announced node count")
        # Each game draws its own order, so one encoding can play games of
        # different sizes.
        order = self.permutation
        if order is None:
            order = list(range(announced_nodes))
            if self.seed is not None:
                random.Random(self.seed).shuffle(order)
        if sorted(order) != list(range(announced_nodes)):
            raise PolicyError("permutation must cover 0..n-1")
        self.rank = {v: i for i, v in enumerate(order)}
        self.patterns = tuple(Pattern(node=v) for v in order)

    def pick_partner(self, item):
        cands = [w for w in item.neighbors if w not in self.matched]
        if not cands:
            raise GameError(f"served node {item.node} has no unmatched neighbor")
        return min(cands, key=self.rank.__getitem__)


ENCODINGS = (*RULES, "shuffle", "vertex_iterative")


def encode_priority(algo_id: str) -> PriorityAlgorithm:
    """The priority encoding of algo_id, a name in ENCODINGS."""
    if algo_id in RULES:
        return RuleEncoding(algo_id)
    if algo_id == "shuffle":
        return ShuffleEncoding()
    if algo_id == "vertex_iterative":
        return ShuffleEncoding(seed=None)
    raise PolicyError(f"no priority encoding for '{algo_id}'")


# ---------------------------------------------------------------------------
# Adversaries
# ---------------------------------------------------------------------------


class _AdversaryBase:
    """Shared construction state: committed edges, knowledge, transcript.

    Answers a query with the first pattern it can serve.  Until sealed, a
    subclass may build a fresh list for a pattern (``_construct``); any
    pattern can be served by a committed live node.  Once sealed and no
    node is live, the game is over.

    Each node's unmatched-neighbor count is kept up to date where it
    changes, and every live (unmatched, non-isolated) node sits in the
    min-heap of node ids for its unmatched count, ``_live[k]``.
    An entry v in ``_live[k]`` is current when v is unmatched and its
    unmatched count is still k; the test reads only the present state, so a
    count that returns to an earlier value is simply filed again, and a node
    is pushed each time its count changes (at an edge or a match, never at a
    reveal).  Stale entries are dropped when they reach the top.
    """

    sealed = False

    def __init__(self, delta: int):
        if delta < 3:
            raise ValueError("delta must be >= 3")
        self.delta = delta
        self.adj: dict[int, set[int]] = {}
        self.matched: set[int] = set()
        self.known: set[int] = set()
        self.transcript: list[str] = []
        self.served: list[DataItem] = []
        self.n_created = 0
        self._pending = None
        self._n_unmatched: list[int] = []
        self._live: list[list[int]] = [[] for _ in range(delta + 1)]
        self._query: tuple[Pattern, ...] | None = None
        self._query_line = ""

    def announced_nodes(self) -> int | None:
        return None

    # -- construction helpers -------------------------------------------------

    def _alloc(self, k: int = 1) -> list[int]:
        ids = list(range(self.n_created, self.n_created + k))
        self.n_created += k
        for v in ids:
            self.adj[v] = set()
        self._n_unmatched += [0] * k
        return ids

    def _add_edges(self, edges: list[tuple[int, int]]) -> None:
        adj, matched, n_unmatched = self.adj, self.matched, self._n_unmatched
        changed = set()
        for u, v in edges:
            if u == v or v in adj[u]:
                raise GameError(f"illegal edge {(u, v)}")
            adj[u].add(v)
            adj[v].add(u)
            if len(adj[u]) > self.delta or len(adj[v]) > self.delta:
                raise GameError(f"edge {(u, v)} violates the degree bound")
            if v not in matched:
                n_unmatched[u] += 1
                changed.add(u)
            if u not in matched:
                n_unmatched[v] += 1
                changed.add(v)
        self._refile(changed)
        toks = " ".join(f"{min(u, v)}-{max(u, v)}" for u, v in edges)
        self.transcript.append(f"build {toks} {self.delta}")

    def _serve(self, node: int, neighbors: list[int]) -> DataItem:
        if set(neighbors) != self.adj[node]:
            raise GameError(f"served list of node {node} is not its full final list")
        item = DataItem(node, tuple(neighbors))
        # A reveal changes no unmatched count, so it re-files nothing.
        self.known.update((node, *neighbors))
        self.served.append(item)
        self.transcript.append(f"serve {node} {' '.join(map(str, neighbors))}")
        return item

    # -- state queries ---------------------------------------------------------

    def _count_key(self, v: int) -> tuple[int, int, int]:
        """Node v's (total, unmatched, known) neighbor counts."""
        nbrs = self.adj[v]
        return len(nbrs), self._n_unmatched[v], len(self.known & nbrs)

    def _refile(self, nodes) -> None:
        """File each live node of nodes under its current unmatched count."""
        live, n_unmatched, matched = self._live, self._n_unmatched, self.matched
        for v in nodes:
            k = n_unmatched[v]
            if k and v not in matched:
                heappush(live[k], v)

    def _first_live(self, pat: Pattern) -> int | None:
        """The lowest-id live (unmatched, non-isolated) node matching pat."""
        if pat.node is not None:
            v = pat.node
            if v not in self.adj or v in self.matched:
                return None
            key = self._count_key(v)
            return v if key[1] and pat.matches(*key, node=v) else None
        lo, hi = max(pat.unmatched_min or 1, 1), self.delta
        if pat.unmatched is not None:
            lo, hi = max(lo, pat.unmatched), min(hi, pat.unmatched)
        live, n_unmatched, matched = self._live, self._n_unmatched, self.matched
        best = None
        if pat.total is None and pat.known is None:
            for k in range(lo, hi + 1):
                heap = live[k]
                while heap and (heap[0] in matched or n_unmatched[heap[0]] != k):
                    heappop(heap)
                if heap and (best is None or heap[0] < best):
                    best = heap[0]
            return best
        # A pattern that also fixes total or known scans the current nodes of
        # each heap it admits.
        for k in range(lo, hi + 1):
            for v in live[k]:
                if (v not in matched and n_unmatched[v] == k and (best is None or v < best)
                        and pat.matches(*self._count_key(v))):
                    best = v
        return best

    # -- game protocol -----------------------------------------------------------

    def log_query(self, patterns) -> None:
        # tuple() returns a tuple argument itself, and a tuple cannot change,
        # so a query handed out again is recognised by identity; the line is
        # built once per distinct list and shared by the rounds that repeat it.
        query = tuple(patterns)
        if query is not self._query:
            if query != self._query:
                self._query_line = "q " + " | ".join(p.describe() for p in query)
            self._query = query
        self.transcript.append(self._query_line)

    def observe_match(self, u: int, v: int) -> None:
        if u in self.matched or v in self.matched:
            raise GameError("matched node matched again")
        if v not in self.adj[u]:
            raise GameError("matched pair is not an edge")
        self.matched.add(u)
        self.matched.add(v)
        changed = set()
        for x in (u, v):
            for w in self.adj[x]:
                self._n_unmatched[w] -= 1
                changed.add(w)
        self._refile(changed)
        self.transcript.append(f"match {u} {v}")
        self._after_match(u, v)

    def _after_match(self, u: int, v: int) -> None:
        pass

    def _construct(self, pat: Pattern) -> DataItem | None:
        """Build and serve a fresh list for pat, or None to leave pat to the
        committed nodes."""
        return None

    def respond(self, patterns) -> DataItem | None:
        """Serve the highest-ranked satisfiable pattern; None once finished."""
        for pat in patterns:
            item = None if self.sealed else self._construct(pat)
            if item is not None:
                return item
            v = self._first_live(pat)
            if v is not None:
                return self._serve(v, sorted(self.adj[v]))
        if not self.finished():
            raise GameError("pattern list is not total: no pattern can be served")
        return None

    def finished(self) -> bool:
        return self.sealed and self._first_live(CATCH_ALL) is None

    def final_graph(self) -> Graph:
        edges = sorted(
            norm_edge(u, v) for u in self.adj for v in self.adj[u] if u < v
        )
        return Graph(self.n_created, tuple(edges))


class TruthfulAdversary(_AdversaryBase):
    """Serves a fixed, fully constructed graph honestly."""

    sealed = True

    def __init__(self, g: Graph):
        super().__init__(max(3, g.delta))
        self.g = g
        self.n_created = g.n
        self.adj = {v: set(g.adjacency[v]) for v in range(g.n)}
        self._n_unmatched = [len(self.adj[v]) for v in range(g.n)]
        self._refile(range(g.n))

    def announced_nodes(self) -> int:
        return self.g.n

    def final_graph(self) -> Graph:
        return self.g


class _CenterMixin(_AdversaryBase):
    """Expensive-component machinery shared by both constructors.

    A center is six nodes a, b, c, d, e1, e2 wired so that matching a-b and
    then one more edge at c scores 2 while 3 is optimal.  Triangles hang off
    the center through one fresh connector adjacent to both a and c.
    """

    def _new_center(self) -> dict:
        a, b, c, d, e1, e2 = self._alloc(6)
        self._add_edges([(a, b), (a, e1), (a, e2), (c, e1), (c, e2), (c, d), (b, d)])
        return {"a": a, "b": b, "c": c, "d": d, "e1": e1, "e2": e2,
                "frontiers": [], "inactive": False}

    def _fresh_degree(self, pat: Pattern) -> int | None:
        """The least d in 3..delta with pat.matches(d, d, 0), the degree of a
        fresh all-unknown list pat admits, or None.  Only one d can be the
        least: the fixed unmatched count, else the fixed total, else the
        lowest unmatched count the pattern allows."""
        if pat.unmatched is not None:
            d = pat.unmatched
        elif pat.total is not None:
            d = pat.total
        else:
            d = max(3, pat.unmatched_min or 0)
        return d if 3 <= d <= self.delta and pat.matches(d, d, 0) else None

    def _center_degree(self, center: dict) -> int:
        return len(self.adj[center["a"]])

    def _capacity_frontier(self, center: dict) -> int | None:
        for r in center["frontiers"]:
            if len(self.adj[r]) < self.delta:
                return r
        return None

    def _serve_triangle(self, center: dict, frontier_edge_to: int | None) -> DataItem:
        m, r, l = self._alloc(3)
        edges = [(m, r), (m, l), (r, l)]
        neighbors = [r, l]
        if frontier_edge_to is not None:
            edges.append((m, frontier_edge_to))
            neighbors.append(frontier_edge_to)
        self._add_edges(edges)
        self._pending = ("triangle", center, m, r, l)
        return self._serve(m, neighbors)

    def _serve_case1(self, d: int) -> DataItem:
        ids = self._alloc(d + 1)
        v, others = ids[0], ids[1:]
        self._add_edges([(v, o) for o in others])
        self._pending = ("case1", v, others)
        return self._serve(v, others)

    def _serve_endgame(self, center: dict, kind: str, frontier: int | None = None) -> DataItem:
        a, b, d = center["a"], center["b"], center["d"]
        self._pending = ("inactivate", center, kind)
        if kind == "4a":
            rest = sorted(self.adj[a] - {b})
            return self._serve(a, [b] + rest)
        if kind == "4b":
            return self._serve(b, [a, d])
        if kind != "4c" or frontier is None:
            raise GameError(f"endgame move {kind!r} needs a capacity frontier")
        self._add_edges([(b, frontier)])
        return self._serve(b, [a, d, frontier])

    def _after_match(self, u: int, v: int) -> None:
        pending, self._pending = self._pending, None
        if pending is None:
            return
        if pending[0] == "case1":
            _, served, others = pending
            if u != served or v not in others:
                raise GameError(f"match {u}-{v} is not a fan-out edge of node {served}")
            # The partner takes the second high-degree role.
            self._add_edges([(v, o) for o in others if o != v])
        elif pending[0] == "triangle":
            _, center, m, r, l = pending
            if u != m or v not in (r, l):
                raise GameError(f"match {u}-{v} is not a triangle edge of node {m}")
            # The matched corner becomes the frontier; the connector joins it
            # to the still unknown center.
            (conn,) = self._alloc(1)
            self._add_edges([(v, conn), (conn, center["a"]), (conn, center["c"])])
            center["frontiers"].append(v)
        elif pending[0] == "inactivate":
            _, center, kind = pending
            expect = (center["a"], center["b"])
            if {u, v} != set(expect):
                raise GameError(
                    "endgame move matched an unexpected pair; only first-unmatched "
                    "partner rules are supported"
                )
            center["inactive"] = True


class AdversaryB(_CenterMixin):
    """Budgetless constructor: one expensive component.

    Plays a fixed number of constructive rounds (three less than the degree
    bound), a single endgame move that forces the a-b match, then answers
    truthfully while the algorithm mops up.
    """

    def __init__(self, delta: int):
        # Checked before the base class sizes its per-count heaps by delta.
        if 4 * delta - 6 > MAX_NODES:
            raise ValueError(f"4*delta - 6 = {4 * delta - 6} nodes exceed the bound "
                             f"of {MAX_NODES}")
        super().__init__(delta)
        self.s = delta - 3
        self.center: dict | None = None

    @property
    def sealed(self) -> bool:
        # Serves 0..s-1 construct, serve s is the endgame, the rest are truthful.
        return len(self.served) > self.s

    def _construct(self, pat):
        if self.center is None:
            self.center = self._new_center()
        center = self.center
        frontier = self._capacity_frontier(center)
        if len(self.served) < self.s:
            d = self._fresh_degree(pat)
            if d is not None:
                return self._serve_case1(d)
            if pat.matches(2, 2, 0):
                return self._serve_triangle(center, None)
            if frontier is not None and pat.matches(3, 2, 1):
                return self._serve_triangle(center, frontier)
            return None
        da = self._center_degree(center)
        if pat.matches(da, da, 0):
            return self._serve_endgame(center, "4a")
        if pat.matches(2, 2, 0):
            return self._serve_endgame(center, "4b")
        if frontier is not None and pat.matches(3, 2, 1):
            return self._serve_endgame(center, "4c", frontier)
        return None


class AdversaryBPrime(_CenterMixin):
    """Node-count-announcing constructor: many expensive components.

    Announces t*delta nodes, keeps at most one active center, attaches
    triangles until the center saturates, inactivates it, and spends the
    last few nodes on complete-bipartite fillers so the budget closes
    exactly.
    """

    def __init__(self, delta: int, t: int):
        # Checked before the base class sizes its per-count heaps by delta.
        if t * delta > MAX_NODES:
            raise ValueError(f"t*delta = {t * delta} announced nodes exceed the bound "
                             f"of {MAX_NODES}")
        super().__init__(delta)
        if t < 7:
            raise ValueError("t must be >= 7 so construction precedes the endgame")
        self.t = t
        self.budget = t * delta
        self.threshold = t * delta - 6 * delta
        self.centers: list[dict] = []

    def announced_nodes(self) -> int:
        return self.budget

    def _active(self) -> dict | None:
        if self.centers and not self.centers[-1]["inactive"]:
            return self.centers[-1]
        return None

    def _seal(self) -> None:
        remaining = self.budget - self.n_created
        if not 2 * self.delta <= remaining <= 6 * self.delta:
            raise GameError(
                f"filler budget {remaining} outside [{2 * self.delta}, {6 * self.delta}]")
        for part in _filler_parts(remaining, self.delta):
            left = self._alloc(part - 2)
            right = self._alloc(2)
            self._add_edges([(x, y) for x in left for y in right])
        self.sealed = True
        if self.n_created != self.budget:
            raise GameError("node budget not spent exactly")

    def _construct(self, pat):
        if self.n_created >= self.threshold:
            self._seal()
            return None
        active = self._active()
        saturated = active is not None and self._center_degree(active) >= self.delta
        d = self._fresh_degree(pat)
        if d is not None:
            if d == self.delta and saturated:
                return self._serve_endgame(active, "4a")
            return self._serve_case1(d)
        if pat.matches(2, 2, 0):
            if active is None:
                center = self._new_center()
                self.centers.append(center)
                if self.delta == 3:
                    # No triangle fits on a degree-3 center; force the a-b
                    # match right away.
                    return self._serve_endgame(center, "4b")
                return self._serve_triangle(center, None)
            if saturated:
                return self._serve_endgame(active, "4b")
            return self._serve_triangle(active, None)
        if active is not None and pat.matches(3, 2, 1):
            frontier = self._capacity_frontier(active)
            if frontier is not None:
                if saturated:
                    return self._serve_endgame(active, "4c", frontier)
                return self._serve_triangle(active, frontier)
        return None


def _filler_parts(total: int, delta: int) -> list[int]:
    """Split total into the fewest component sizes in [4, delta + 2]: k =
    ceil(total / (delta + 2)) parts, as many of delta + 2 as fit, at most one
    in between, then 4s.  Each size p becomes a complete bipartite graph
    with p - 2 nodes on the left and 2 on the right."""
    lo, hi = 4, delta + 2
    k = -(-total // hi)
    if total < lo * k:
        raise GameError(f"cannot split {total} nodes into fillers of size {lo}..{hi}")
    full, extra = divmod(total - lo * k, hi - lo)
    middle = [lo + extra] if extra else []
    return [hi] * full + middle + [lo] * (k - full - len(middle))


# ---------------------------------------------------------------------------
# Game driver
# ---------------------------------------------------------------------------


@dataclass
class GameResult:
    graph: Graph
    matching: Matching
    transcript: tuple[str, ...]
    picks: tuple[Edge, ...] = field(default=())
    served: tuple[DataItem, ...] = field(default=())


# Rounds after which play_game gives up on a game that does not terminate.
_MAX_ROUNDS = 1_000_000


def play_game(algo: PriorityAlgorithm | str, adversary: _AdversaryBase) -> GameResult:
    """Run the query/serve/match loop until every node is isolated.

    The emitted graph is simple with max degree <= the adversary's bound,
    the matching is exactly the algorithm's picks, and each served list
    equals the served node's final adjacency list.
    """
    if isinstance(algo, str):
        algo = encode_priority(algo)
    algo.start(adversary.announced_nodes())
    pairs: list[Edge] = []
    rounds = 0
    while not adversary.finished():
        rounds += 1
        if rounds > _MAX_ROUNDS:
            raise GameError("game did not terminate")
        patterns = algo.query()
        adversary.log_query(patterns)
        item = adversary.respond(patterns)
        if item is None:
            break
        partner = algo.receive(item)
        if partner not in item.neighbors:
            raise GameError("partner is not a neighbor of the served node")
        adversary.observe_match(item.node, partner)
        pairs.append(norm_edge(item.node, partner))
    g = adversary.final_graph()
    if g.delta > adversary.delta:
        raise GameError("degree bound violated in the emitted graph")
    matching = Matching.from_pairs(pairs)
    matching.validate(g)
    for item in adversary.served:
        if set(item.neighbors) != set(g.adjacency[item.node]):
            raise GameError(f"served list of node {item.node} is inconsistent "
                            f"with the final graph")
    return GameResult(
        g, matching, tuple(adversary.transcript), tuple(pairs), tuple(adversary.served)
    )


def make_adversary(name: str, delta: int, t: int | None = None) -> _AdversaryBase:
    if name == "B":
        return AdversaryB(delta)
    if name == "Bprime":
        if t is None:
            raise ValueError("the announcing adversary needs t")
        return AdversaryBPrime(delta, t)
    raise ValueError(f"unknown adversary '{name}'")


def save_moves(result: GameResult) -> str:
    """Move script: the algorithm's picks in order, one 'p <u> <v>' per line."""
    return "".join(f"p {u} {v}\n" for u, v in result.picks)


def game_files(result: GameResult) -> dict[str, str]:
    """The persisted form of a game, by file suffix: .graph (edge-list
    format), .moves (the forced picks, in order) and .transcript."""
    return {
        ".graph": save_graph(result.graph),
        ".moves": save_moves(result),
        ".transcript": "\n".join(result.transcript) + "\n",
    }
