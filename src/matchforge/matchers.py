"""Greedy matching heuristics under pluggable nondeterminism.

Each rule heuristic is one entry of ``RULES``, which maps the current minimum
nonzero degree to the selection kind the policy resolves at that step.  Three
pieces of code interpret the kinds: ``_drive``, the one loop that makes every
run (the runners and the pick scripts), which keeps the run's alive edges,
degrees, a node count per degree and the sorted candidate lists its rule
ranks in its own locals; the bitmask search of
``worst_case_size``, which reads each state's moves from a move table built
once per graph; and ``adversary.RuleEncoding``, which turns a rule into a
game's ranked query.  A new heuristic is one table entry,
e.g. ``"mingreedy4": lambda mind: ANY_EDGE if mind >= 4 else MIN_NODE``; runs,
pick scripts, exhaustive search, game encodings and the CLI follow.

A run takes its choices from one ``Policy``: ``choose(step, slot,
candidates)`` answers a slot and ``finish()`` ends the run.  ``fresh()``, the
policy a run asks for, is the policy itself, or a new one for the two that
keep state through a run: ``RandomPolicy`` and ``ScriptedPolicy``.

Every run produces a ``RunTrace``: the full step-by-step record (selected
node, its degree at selection, partner, removed edges, step mode).  Its
records are slotted frozen dataclasses that hold no per-instance dict, and
the edges they name are the graph's own tuples.  ``RunTrace.replay`` checks
it once, step by step, on flat arrays of its own (a degree list, a node
count per degree and each edge's death step) and never calls ``_drive``,
so the check does not rest on the code it checks.  It
keeps a ``Replay``: the step at which each edge died and the minimum degree
before each step, from which any node's degree around any step is counted.
``load_trace`` builds its steps in that same pass, from the removed edges
the replay derives, so a parsed edge is never looked up; the charging
ledger reads the replay it keeps.
``worst_case_size`` exhausts all nondeterministic choice sequences of a
heuristic and returns the minimum matching size with a witness trace, read
back from its memo as picks; the trace itself is replayed from the picks on
its first read, so a caller that only wants the size never builds it.

Canonical orders: candidate nodes ascending by id, candidate neighbors
ascending by id, candidate edges ascending as (u, v) pairs.  The first
policy always takes the first candidate, which makes runs reproducible.
"""

from __future__ import annotations

import operator
import random
from array import array
from bisect import bisect_left, insort
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import compress

from .graphs import (
    Edge,
    Graph,
    GraphFormatError,
    Matching,
    SearchBudgetExceededError,
    _fields,
    _lines,
    norm_edge,
)

# Selection kinds: what the policy chooses at one step.
ANY_EDGE = "any_edge"        # any alive edge (a free step)
MIN_NODE = "min_node"        # a minimum-degree node, then one of its neighbors
MIN_FORCED = "min_forced"    # a minimum-degree node with its single neighbor
ANY_NODE = "any_node"        # any non-isolated node, then one of its neighbors

# Each rule heuristic's selection kind at the current minimum nonzero degree.
RULES: dict[str, Callable[[int], str]] = {
    "mingreedy": lambda mind: MIN_NODE,
    # While every degree is at least 3, any alive edge may be picked: a free
    # step, recorded as such.
    "one_two_mingreedy": lambda mind: ANY_EDGE if mind >= 3 else MIN_NODE,
    "karpsipser": lambda mind: MIN_FORCED if mind == 1 else ANY_EDGE,
    "greedy": lambda mind: ANY_EDGE,
    # Selection is over the non-isolated nodes (those with an alive edge).
    "mrg": lambda mind: ANY_NODE,
}

ALGORITHMS = (*RULES, "shuffle")

MODE_DEGREE = "degree_rule"
MODE_FREE = "free_edge"


class PolicyError(ValueError):
    """Raised when a policy cannot resolve a choice (bad script, bad input)."""


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


class Policy:
    """Answers the slots of a run (see the module docstring).

    An edge slot's candidates are the run's live, read-only ``AliveEdges``,
    and a node slot's a live, read-only ``SortedView`` of a list the run
    keeps sorted: both change as the run kills edges, and neither can be
    reordered.  A neighbor slot's candidates are a fresh list.
    """

    def choose(self, step: int, slot: str, candidates: Sequence):
        raise NotImplementedError

    def finish(self) -> None:
        """Called at run end; a scripted policy must be exactly exhausted."""

    def fresh(self) -> Policy:
        return self


class FirstPolicy(Policy):
    """Deterministic canonical policy: always the first candidate."""

    def choose(self, step, slot, candidates):
        return candidates[0]

    def __repr__(self) -> str:
        return "FirstPolicy()"


class RandomPolicy(Policy):
    """Seeded uniform choices via random.Random (Mersenne Twister), so a
    (graph, policy) pair replays bit-for-bit on any platform."""

    def __init__(self, seed: int):
        self.seed = seed

    def fresh(self) -> RandomPolicy:
        run = RandomPolicy(self.seed)
        run.rng = random.Random(self.seed)
        return run

    def choose(self, step, slot, candidates):
        return candidates[self.rng.randrange(len(candidates))]

    def __repr__(self) -> str:
        return f"RandomPolicy({self.seed})"


class ScriptedPolicy(Policy):
    """Replays explicit choices as (step, index-into-candidates) pairs.

    Pairs are consumed in order and must be exactly exhausted when the run
    terminates.  Plain integers are accepted and match any step.
    """

    def __init__(self, choices: Sequence[int | tuple[int, int]]):
        self.choices = tuple(choices)
        self.pos = 0

    def fresh(self) -> ScriptedPolicy:
        return ScriptedPolicy(self.choices)

    def choose(self, step, slot, candidates):
        if self.pos >= len(self.choices):
            raise PolicyError(f"script exhausted at step {step} ({slot})")
        entry = self.choices[self.pos]
        self.pos += 1
        if isinstance(entry, tuple):
            want_step, idx = entry
            if want_step != step:
                raise PolicyError(f"script entry for step {want_step} used at step {step}")
        else:
            idx = entry
        if not 0 <= idx < len(candidates):
            raise PolicyError(
                f"script index {idx} out of range for {len(candidates)} candidates "
                f"at step {step} ({slot})"
            )
        return candidates[idx]

    def finish(self):
        if self.pos != len(self.choices):
            raise PolicyError(f"{len(self.choices) - self.pos} script entries left unconsumed")

    def __repr__(self) -> str:
        return f"ScriptedPolicy({list(self.choices)!r})"


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


# Trace records are slotted frozen dataclasses, so a record carries no
# per-instance ``__dict__``: a run and a read each build one record per step.
# ``slots=True`` re-creates the class, so no method of its may use a
# zero-argument ``super()``.


@dataclass(frozen=True, slots=True)
class TraceStep:
    """One picked edge: who was selected, at what degree, and what died."""

    index: int
    selected: int
    sel_degree: int
    partner: int
    removed: tuple[Edge, ...]
    mode: str

    @property
    def edge(self) -> Edge:
        return norm_edge(self.selected, self.partner)


class Replay:
    """What a trace's replay keeps: the step at which each edge died and the
    minimum nonzero degree before each step.  A node's degree around a step
    is counted from the death steps of its edges, in O(delta)."""

    __slots__ = ("died", "min_before", "_incident")

    def __init__(self, died: array, min_before: list[int], incident: list[list[int]]):
        self.died = died              # edge id -> the 1-based step that removed it
        self.min_before = min_before  # [s - 1] -> minimum nonzero degree before step s
        self._incident = incident     # the graph's edge ids per node

    def _alive_after(self, s: int, w: int) -> int:
        """How many edges at w died after step s."""
        died = self.died
        return sum(1 for j in self._incident[w] if died[j] > s)

    def deg_before(self, s: int, w: int) -> int:
        """The degree of w just before step s: its edges that died at step s
        or later."""
        return self._alive_after(s - 1, w)

    def deg_after(self, s: int, w: int) -> int:
        """The degree of w just after step s: its edges that died later."""
        return self._alive_after(s, w)


@dataclass(frozen=True)
class RunTrace:
    graph: Graph
    steps: tuple[TraceStep, ...]
    result: Matching

    @cached_property
    def replay(self) -> Replay:
        """Check the steps once against the trace's graph (see ``_replay``)
        and that the result is the set of picked edges; raises ValueError at
        the first mismatch.  The replay is kept on the trace, so later
        readers do not replay it again."""
        rep, _, picked = _replay(self.graph, map(_FIELDS, self.steps), False)
        if self.result.pairs != frozenset(picked):
            raise ValueError("result does not equal the set of picked edges")
        return rep

    def verify_replay(self) -> None:
        """Check the trace by its replay; raises ValueError on any mismatch."""
        self.replay  # computed for its checks, then kept on the trace


# A step's fields in the order of a parsed record.
_FIELDS = operator.attrgetter("index", "selected", "sel_degree", "partner", "removed", "mode")


# This loop is the check on the runner: it keeps its own kill loop, and it
# neither calls _drive nor builds an AliveEdges, so the two stay apart.
def _replay(g: Graph, records: Iterable[tuple], build: bool
            ) -> tuple[Replay, list[TraceStep], list[Edge]]:
    """Replay (index, selected, sel_degree, partner, removed, mode) records
    on g, on flat arrays of its own: a degree list, a node count per degree
    and each edge's death step.  Returns the replay, the steps (built from
    each record, with the graph's own edges and ends, only when build is
    set) and the picked edges.

    Raises ValueError when a step's index is not its 1-based position, a
    picked edge is not alive, a recorded degree is stale, a removed list is
    not the alive edges at u or v in ascending id (as a tuple, unless the
    records were parsed, whose lists are read as tuples), or edges outlive
    the last step.
    """
    edges = g.edges
    eid = g.edge_id
    adjacency = g.adjacency
    incident = g.incident
    deg = list(map(len, adjacency))
    # count[d] nodes have alive degree d; count[0] is never read.
    count = [0] * (g.delta + 1)
    for d in deg:
        count[d] += 1
    died = [0] * g.m   # 0 while the edge is alive
    left = g.m
    min_before = []
    steps = []
    picked = []
    for s, (index, u, d, v, recorded, mode) in enumerate(records, 1):
        if index != s:
            raise ValueError(f"step {index}: index is not its position {s}")
        i = eid.get((u, v) if u < v else (v, u))
        if i is None or died[i]:
            raise ValueError(f"step {index}: picked edge not alive")
        du = deg[u]
        if du != d:
            raise ValueError(f"step {index}: recorded selection degree is stale")
        low = 1
        while not count[low]:
            low += 1
        min_before.append(low)
        # With {u, v} dead first, neither end meets the other below: u and
        # v drop to degree 0, and every other end w, one degree per edge.
        died[i] = s
        ids = [i]
        for x in (u, v):
            for w, j in zip(adjacency[x], incident[x]):
                if not died[j]:
                    died[j] = s
                    ids.append(j)
                    dw = deg[w]
                    count[dw] -= 1
                    count[dw - 1] += 1
                    deg[w] = dw - 1
        count[du] -= 1
        count[deg[v]] -= 1
        deg[u] = deg[v] = 0
        ids.sort()
        removed = tuple(map(edges.__getitem__, ids))
        if removed != (tuple(recorded) if build else recorded):
            raise ValueError(f"step {index}: removed-edge list mismatch")
        left -= len(ids)
        e = edges[i]
        picked.append(e)
        if build:
            u, v = e if u < v else (e[1], e[0])
            steps.append(TraceStep(s, u, d, v, removed, mode))
    if left:
        raise ValueError("alive edges remain after the last step")
    return Replay(array("i", died), min_before, incident), steps, picked


def save_trace(trace: RunTrace) -> str:
    lines = []
    for st in trace.steps:
        lines.append(f"s {st.index} {st.selected} {st.sel_degree} {st.partner} {st.mode}\n")
        for a, b in st.removed:
            lines.append(f"r {a} {b}\n")
    return "".join(lines) or "\n"  # a run of no steps is one empty line


# Each step mode maps to its constant, which every read record shares.
_MODES = {MODE_DEGREE: MODE_DEGREE, MODE_FREE: MODE_FREE}


# A parsed step: (index, selected, sel_degree, partner, removed edges, mode),
# the fields of a TraceStep, with the removed edges as parsed into a list.
_Record = tuple[int, int, int, int, list[Edge], str]


def load_trace(text: str, g: Graph) -> RunTrace:
    """Parse and replay-check a trace file against its graph.

    The document is read in one pass, and the first faulty line raises.
    The replay builds the steps from the graph's own edges and is kept on
    the trace.
    """
    records: list[_Record] = []
    removed: list[Edge] = []   # the removed edges of the last step
    try:
        for lineno, parts in enumerate(map(str.split, _lines(text)), start=1):
            if not parts:
                continue
            tag = parts[0]
            if tag == "r" and len(parts) == 3 and records:
                a = int(parts[1])
                b = int(parts[2])
                removed.append((a, b) if a < b else (b, a))
            elif tag == "s" and len(parts) == 6 and parts[5] in _MODES:
                removed = []
                records.append((int(parts[1]), int(parts[2]), int(parts[3]), int(parts[4]),
                                removed, _MODES[parts[5]]))
            elif tag[0] != "#":
                raise ValueError
    except ValueError:
        fields = _fields(lineno, parts, {"s": "s <i> <u> <d> <v> <mode>", "r": "r <a> <b>"})
        fault = "removed edge before any step" if tag == "r" else f"unknown mode '{fields[4]}'"
        raise GraphFormatError(f"line {lineno}: {fault}") from None
    try:
        rep, steps, picked = _replay(g, records, True)
    except ValueError as exc:
        # Picks that share a node are reported before any step's fault.
        try:
            Matching.from_pairs((u, v) for _, u, _, v, _, _ in records)
        except ValueError as clash:
            exc = clash
        raise GraphFormatError(f"trace does not replay: {exc}") from None
    trace = RunTrace(g, tuple(steps), Matching(frozenset(picked)))
    trace.__dict__["replay"] = rep
    return trace


# ---------------------------------------------------------------------------
# Heuristic runners
# ---------------------------------------------------------------------------


class AliveEdges(Sequence):
    """The alive edges of one run, ascending in canonical order.

    A live, read-only sequence: the run's kills show in it at once.  A
    Fenwick tree (Fenwick, 1994) over the graph's edge ids counts the alive
    ones, so ``len`` is O(1), ``in`` is O(1), ``[k]`` and ``index`` are
    O(log m), and iteration walks the ids in order.  The tree catches up
    with the kills only when ``[k]`` or ``index`` reads it, so a run that
    never asks for an edge by position never pays for it.  ``flags[i]`` is 1
    while edge id i is alive; it is read-only, and ``kill`` is the one way to
    change it.
    """

    __slots__ = ("_edges", "_ids", "_flags", "_tree", "_killed", "_len", "flags")

    def __init__(self, graph: Graph):
        m = graph.m
        self._edges = graph.edges
        self._ids = graph.edge_id
        self._flags = bytearray(b"\x01") * m   # 1 where the edge id is alive
        self.flags = memoryview(self._flags).toreadonly()
        self._tree = [i & -i for i in range(m + 1)]   # Fenwick tree of an all-ones row
        self._killed: list[int] = []    # edge ids killed since the tree was last read
        self._len = m

    def kill(self, ids: list[int]) -> None:
        """Mark the alive edge ids dead; the tree takes them on its next read."""
        flags = self._flags
        for i in ids:
            flags[i] = 0
        self._len -= len(ids)
        self._killed += ids

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, k: int) -> Edge:
        k = operator.index(k)
        if k < 0:
            k += self._len
        if not 0 <= k < self._len:
            raise IndexError("alive edge index out of range")
        # Descend the tree to the longest id prefix holding exactly k alive
        # ids; the next id is the k-th alive edge.
        tree = self._synced()
        m = len(tree) - 1
        pos = 0
        step = 1 << (m.bit_length() - 1)
        while step:
            nxt = pos + step
            if nxt <= m and tree[nxt] <= k:
                pos = nxt
                k -= tree[nxt]
            step >>= 1
        return self._edges[pos]

    def __contains__(self, edge: object) -> bool:
        i = self._ids.get(edge)
        return i is not None and self._flags[i] == 1

    def __iter__(self) -> Iterator[Edge]:
        return compress(self._edges, self._flags)

    def index(self, edge: Edge) -> int:
        """Position of an alive edge in the sequence."""
        if edge not in self:
            raise ValueError(f"{edge} is not an alive edge")
        tree = self._synced()
        pos = 0
        j = self._ids[edge]
        while j:
            pos += tree[j]
            j &= j - 1
        return pos

    def _synced(self) -> list[int]:
        """The tree with every kill applied: one O(log m) update each, or one
        O(m) rebuild from the flags when that is cheaper."""
        killed = self._killed
        if killed:
            tree = self._tree
            m = len(tree) - 1
            if len(killed) * m.bit_length() > m:
                self._tree = _fenwick(self._flags)
            else:
                for i in killed:
                    j = i + 1
                    while j <= m:
                        tree[j] -= 1
                        j += j & -j
            killed.clear()
        return self._tree


def _fenwick(flags: Sequence[int]) -> list[int]:
    """The Fenwick tree (1-based, tree[0] unused) over a row of 0/1 flags."""
    tree = [0, *flags]
    m = len(flags)
    for j in range(1, m + 1):
        up = j + (j & -j)
        if up <= m:
            tree[up] += tree[j]
    return tree


class SortedView(Sequence):
    """A live, read-only view of a sorted list of node ids that a run keeps.

    The run's updates show in it at once; a policy can read it but not
    reorder it.  ``len`` and ``[k]`` are O(1), ``in`` and ``index`` are
    O(log n) by bisection, and iteration walks the ids in order.
    """

    __slots__ = ("_ids",)

    def __init__(self, ids: list[int]):
        self._ids = ids

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, k):
        return self._ids[k]

    def __iter__(self) -> Iterator[int]:
        return iter(self._ids)

    def __contains__(self, x: object) -> bool:
        ids = self._ids
        k = bisect_left(ids, x)
        return k < len(ids) and ids[k] == x

    def index(self, x: int) -> int:
        """Position of x in the sequence."""
        ids = self._ids
        k = bisect_left(ids, x)
        if k == len(ids) or ids[k] != x:
            raise ValueError(f"{x} is not in the sequence")
        return k


def _drive(g: Graph, policy: Policy, rule: Callable[[int], str]) -> RunTrace:
    """Run a rule heuristic on g to the end; every run is made here.

    The run keeps the alive edges, each node's alive degree and ``count[d]``,
    the number of nodes of alive degree d, from which each step finds the
    minimum degree.  Each degree's selection kind is read from the rule once.
    Only a degree whose kind ranks nodes (``MIN_NODE`` or ``MIN_FORCED``)
    keeps the sorted ids of its nodes, updated by bisection as degrees drop;
    a rule with an ``ANY_NODE`` degree keeps the sorted non-isolated nodes,
    which only ever leave it.  A degree no rule ranks costs one count.  The
    policy fills each step's slots from candidate sequences in canonical
    order: an edge slot reads the live ``AliveEdges``, a node slot a live
    ``SortedView`` of one of those lists, and a neighbor slot a fresh list.
    The step then kills every alive edge at u or v.  ``_replay`` checks runs
    on state of its own.
    """
    edges = g.edges
    adjacency = g.adjacency
    incident = g.incident
    alive = AliveEdges(g)
    flags = alive.flags
    deg = list(map(len, adjacency))
    count = [0] * (g.delta + 1)
    for d in deg:
        count[d] += 1
    kinds = [None, *map(rule, range(1, g.delta + 1))]
    # ranked[d]: the sorted nodes of degree d, for a degree whose kind ranks
    # nodes; None elsewhere, degree 0 included.
    ranked: list[list[int] | None] = [
        [] if kind in (MIN_NODE, MIN_FORCED) else None for kind in kinds]
    for x, d in enumerate(deg):
        if ranked[d] is not None:
            ranked[d].append(x)
    views = [None if ids is None else SortedView(ids) for ids in ranked]
    # The sorted non-isolated nodes, kept only when a degree's kind is ANY_NODE.
    live = [x for x, d in enumerate(deg) if d] if ANY_NODE in kinds else None
    live_view = None if live is None else SortedView(live)
    steps: list[TraceStep] = []
    pairs: list[Edge] = []
    idx = 0
    while alive:
        idx += 1
        mind = 1
        while not count[mind]:
            mind += 1
        kind = kinds[mind]
        if kind == ANY_EDGE:
            u, v = policy.choose(idx, "edge", alive)
            # Record the end of smaller current degree as the selected node
            # (ties by id); the charging analysis cases on the selected degree.
            if (deg[v], v) < (deg[u], u):
                u, v = v, u
            mode = MODE_FREE
        else:
            u = policy.choose(idx, "node", live_view if kind == ANY_NODE else views[mind])
            neighbors = [w for w, j in zip(adjacency[u], incident[u]) if flags[j]]
            if kind == MIN_FORCED:
                # Taken without asking the policy, so a random policy draws
                # nothing for it.
                (v,) = neighbors
            else:
                v = policy.choose(idx, "neighbor", neighbors)
            mode = MODE_DEGREE
        i = g.edge_id.get((u, v) if u < v else (v, u))
        if i is None or not flags[i]:
            raise ValueError(f"edge {norm_edge(u, v)} is not alive")
        du = deg[u]
        # {u, v} is counted first and skipped below, so neither end meets the
        # other: u and v drop to degree 0, and every other end of a killed
        # edge drops by one per edge.  Every node of a ranked degree is in
        # its list, so each bisection finds the node it looks for.
        ids = [i]
        for x in (u, v):
            d = deg[x]
            deg[x] = 0
            count[d] -= 1
            at = ranked[d]
            if at is not None:
                del at[bisect_left(at, x)]
            if live is not None:
                del live[bisect_left(live, x)]
            for w, j in zip(adjacency[x], incident[x]):
                if flags[j] and j != i:
                    ids.append(j)
                    d = deg[w]
                    deg[w] = d - 1
                    count[d] -= 1
                    count[d - 1] += 1
                    at = ranked[d]
                    if at is not None:
                        del at[bisect_left(at, w)]
                    at = ranked[d - 1]
                    if at is not None:
                        insort(at, w)
                    elif d == 1 and live is not None:
                        del live[bisect_left(live, w)]
        ids.sort()
        alive.kill(ids)
        steps.append(TraceStep(idx, u, du, v, tuple(map(edges.__getitem__, ids)), mode))
        pairs.append(edges[i])
    policy.finish()
    return RunTrace(g, tuple(steps), Matching(frozenset(pairs)))


def run_algorithm(algo: str, g: Graph, policy: Policy) -> RunTrace:
    """Run the rule heuristic algo (a key of RULES) under policy."""
    if algo not in RULES:
        raise PolicyError(f"unknown or unsupported algorithm '{algo}'")
    return _drive(g, policy.fresh(), RULES[algo])


class _RankPolicy(Policy):
    """mrg's choices for one run under a node permutation: the candidate
    that comes first in it.  A node that leaves the non-isolated nodes never
    rejoins them, so the node slot walks a cursor forward through the
    permutation, past nodes no longer offered: O(n log n) over the run."""

    def __init__(self, perm: list[int]):
        self.perm = perm
        self.rank = {v: i for i, v in enumerate(perm)}
        self.pos = 0   # no node before perm[pos] is offered again

    def choose(self, step, slot, candidates):
        if slot == "node":
            perm = self.perm
            pos = self.pos
            while perm[pos] not in candidates:
                pos += 1
            self.pos = pos
            return perm[pos]
        return min(candidates, key=self.rank.__getitem__)


def run_shuffle(g: Graph, permutation: Sequence[int]) -> RunTrace:
    """Match the permutation-first non-isolated node to its permutation-first
    unmatched neighbor, repeatedly: mrg whose choices follow the permutation."""
    perm = list(permutation)
    if sorted(perm) != list(range(g.n)):
        raise PolicyError("permutation must be a permutation of 0..n-1")
    return _drive(g, _RankPolicy(perm), RULES["mrg"])


# ---------------------------------------------------------------------------
# Scripted replays
# ---------------------------------------------------------------------------


class _PickPolicy(Policy):
    """Resolves each slot to an explicit pick sequence and records the
    (step, index) script that makes a ScriptedPolicy take the same picks."""

    def __init__(self, picks: Sequence[tuple[int, int]]):
        self.picks = list(picks)
        self.script: list[tuple[int, int]] = []
        self.selected: int | None = None

    def choose(self, step, slot, candidates):
        if step > len(self.picks):
            raise PolicyError("pick sequence ends before all edges are removed")
        a, b = self.picks[step - 1]
        if slot == "edge":
            want = norm_edge(a, b)
            if want not in candidates:
                raise PolicyError(f"step {step}: edge {want} not pickable")
        elif slot == "node":
            want = a if a in candidates else b
            if want not in candidates:
                raise PolicyError(f"step {step}: neither endpoint of {(a, b)} selectable")
            self.selected = want
        else:
            want = b if self.selected == a else a
            if want not in candidates:
                raise PolicyError(f"step {step}: {want} not an alive neighbor of {self.selected}")
        self.script.append((step, candidates.index(want)))
        return want


def _run_picks(g: Graph, picks: Sequence[tuple[int, int]], algo: str) -> tuple[RunTrace, _PickPolicy]:
    if algo not in RULES:
        raise PolicyError(f"choice enumeration unsupported for '{algo}'")
    policy = _PickPolicy(picks)
    trace = _drive(g, policy, RULES[algo])
    # Catches picks left over at the end, and a forced neighbor that is not
    # the picked partner (the picked edge was not alive).
    if [st.edge for st in trace.steps] != [norm_edge(a, b) for a, b in policy.picks]:
        raise PolicyError(f"pick sequence is not a run of '{algo}'")
    return trace, policy


def script_from_picks(g: Graph, picks: Sequence[tuple[int, int]], algo: str) -> ScriptedPolicy:
    """Turn an explicit pick sequence into a scripted policy for algo.

    Raises PolicyError if some pick is not reachable by the heuristic at its
    step, e.g. when checking that a min-greedy run is a valid free-variant run.
    """
    return ScriptedPolicy(_run_picks(g, picks, algo)[1].script)


def trace_from_picks(g: Graph, picks: Sequence[tuple[int, int]], algo: str) -> RunTrace:
    """Replay an explicit pick sequence as a run of algo."""
    return _run_picks(g, picks, algo)[0]


class _PickedTrace(RunTrace):
    """A run trace held as its picks and replayed by ``trace_from_picks`` on
    the first read of its steps or result, so a caller that never reads it
    pays nothing.  A pick sequence that is not a run raises PolicyError then."""

    def __init__(self, graph: Graph, picks: list[tuple[int, int]], algo: str):
        self.__dict__.update(graph=graph, picks=picks, algo=algo)

    @cached_property
    def _run(self) -> RunTrace:
        return trace_from_picks(self.graph, self.picks, self.algo)

    steps = property(lambda self: self._run.steps)
    result = property(lambda self: self._run.result)

    # Equal to the eager trace of the same run, as when the search built it.
    def __eq__(self, other):
        if not isinstance(other, RunTrace):
            return NotImplemented
        return (self.graph, self.steps, self.result) == (other.graph, other.steps, other.result)

    __hash__ = RunTrace.__hash__


# ---------------------------------------------------------------------------
# Exhaustive worst-case search
# ---------------------------------------------------------------------------

# The most steps a run may have for worst_case_size to search it.  The
# search recurses once per step, and Python stops a recursion at 1000 frames
# by default, the callers' frames included; a graph whose runs could be
# longer is refused up front rather than ending in RecursionError.
_MAX_SEARCH_STEPS = 500

# The default number of states worst_case_size may expand.
SEARCH_BUDGET = 2_000_000


def worst_case_size(
    g: Graph,
    algo: str,
    budget: int = SEARCH_BUDGET,
) -> tuple[int, RunTrace]:
    """Minimum matching size over ALL nondeterministic choice sequences.

    Memoized DFS over residual states keyed by the alive-edge bitmask, which
    deduplicates permuted choice orders reaching the same residual graph; a
    state's moves come from a table built once per call.  Returns the exact
    minimum and one witness trace achieving it: from each state, the first
    move in canonical order whose successor is worth one less.  The witness
    holds only those picks until its steps or result are first read; that
    read replays them once through ``trace_from_picks``, and a pick sequence
    that is not a run of algo raises PolicyError there.  Raises
    SearchBudgetExceededError after budget states, or before searching when
    a run could have more than ``_MAX_SEARCH_STEPS`` steps.
    """
    if algo not in RULES:
        raise PolicyError(f"worst-case search unsupported for '{algo}'")
    rule = RULES[algo]
    m = g.m
    if m == 0:
        return 0, _PickedTrace(g, [], algo)
    if g.n // 2 > _MAX_SEARCH_STEPS:  # a run has at most n // 2 steps
        raise SearchBudgetExceededError(None, _MAX_SEARCH_STEPS, "steps")
    inc = [0] * g.n
    for i, (u, v) in enumerate(g.edges):
        inc[u] |= 1 << i
        inc[v] |= 1 << i
    # A move is (edge bit, the edges it kills, selected, partner).  Under
    # ANY_NODE a pick (v, u) with v > u reaches the same successor as (u, v),
    # so free kinds list each alive edge once, from its smaller end.  A
    # node's moves are in ascending edge id, which is ascending partner id.
    edge_moves = [(1 << i, inc[u] | inc[v], u, v) for i, (u, v) in enumerate(g.edges)]
    node_moves: list[list[tuple[int, int, int, int]]] = [[] for _ in inc]
    for bit, kill, u, v in edge_moves:
        node_moves[u].append((bit, kill, u, v))
        node_moves[v].append((bit, kill, v, u))
    free = [d > 0 and rule(d) in (ANY_EDGE, ANY_NODE) for d in range(g.delta + 1)]
    full = (1 << m) - 1
    memo = {0: 0}
    spent = 0

    def moves_of(state: int) -> list[tuple[int, int, int, int]]:
        """Every move the rule allows in this state, in canonical order."""
        degs = [(state & x).bit_count() for x in inc]
        mind = min(filter(None, degs))
        if free[mind]:
            return [mv for mv in edge_moves if state & mv[0]]
        # A forced neighbor is a degree-1 node's only edge.
        return [mv for d, mvs in zip(degs, node_moves) if d == mind
                for mv in mvs if state & mv[0]]

    def rec(state: int) -> int:
        nonlocal spent
        spent += 1
        if spent > budget:
            raise SearchBudgetExceededError(None, budget)
        # A repeated successor is a memo hit of equal value: best stays.
        best = m
        for mv in moves_of(state):
            nxt = state & ~mv[1]
            val = memo.get(nxt)
            if val is None:
                val = rec(nxt)
            if val < best:
                best = val
        memo[state] = best + 1
        return best + 1

    try:
        size = rec(full)
    except SearchBudgetExceededError:
        # The bound reads the first moves whose successors were expanded; the
        # empty successor never is, so a move that kills every edge is left out.
        done = [1 + memo[nxt] for nxt in (full & ~mv[1] for mv in moves_of(full))
                if nxt and nxt in memo]
        raise SearchBudgetExceededError(min(done) if done else None, budget) from None
    finally:
        # rec reaches itself through its closure cell; emptying the cell
        # frees the memo and the move tables without the cyclic collector.
        del rec

    picks = []
    state = full
    while state:
        want = memo[state] - 1
        _, kill, u, v = next(mv for mv in moves_of(state) if memo[state & ~mv[1]] == want)
        picks.append((u, v))
        state &= ~kill
    return size, _PickedTrace(g, picks, algo)
