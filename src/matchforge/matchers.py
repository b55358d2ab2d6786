"""Greedy matching heuristics under pluggable nondeterminism.

Each rule heuristic is one entry of ``RULES``, which maps the current minimum
nonzero degree to the selection kind the policy resolves at that step.  Two
pieces of code interpret the kinds: ``_select`` on a ``ResidualView`` (used by
every runner, ``iter_all_pick_sequences`` and ``script_from_picks``) and the
bitmask search of ``worst_case_size``.  A new heuristic is one table entry,
e.g. ``"mingreedy4": lambda mind: ANY_EDGE if mind >= 4 else MIN_NODE``; runs,
choice enumeration, pick scripts, exhaustive search and the CLI follow.

Every run produces a ``RunTrace``: the full step-by-step record (selected
node, its degree at selection, partner, removed edges, step mode).
``RunTrace.replay`` checks it by re-running it once and keeps the per-step
degree snapshots, which ``load_trace`` and the charging ledger share.
``worst_case_size`` exhausts all nondeterministic choice sequences of a
heuristic and returns the minimum matching size with a witness trace.

Canonical orders: candidate nodes ascending by id, candidate neighbors
ascending by id, candidate edges ascending as (u, v) pairs.  The first
policy always takes the first candidate, which makes runs reproducible.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence

from .graphs import Edge, Graph, GraphFormatError, Matching, ResidualView, norm_edge, read_records

# Selection kinds: what the policy chooses at one step.
ANY_EDGE = "any_edge"        # any alive edge (a free step)
MIN_NODE = "min_node"        # a minimum-degree node, then one of its neighbors
MIN_FORCED = "min_forced"    # a minimum-degree node with its single neighbor
ANY_NODE = "any_node"        # any non-isolated node, then one of its neighbors

# Each rule heuristic's selection kind at the current minimum nonzero degree.
RULES: dict[str, Callable[[int], str]] = {
    "mingreedy": lambda mind: MIN_NODE,
    "one_two_mingreedy": lambda mind: ANY_EDGE if mind >= 3 else MIN_NODE,
    "karpsipser": lambda mind: MIN_FORCED if mind == 1 else ANY_EDGE,
    "greedy": lambda mind: ANY_EDGE,
    "mrg": lambda mind: ANY_NODE,
}

ALGORITHMS = (*RULES, "shuffle")

MODE_DEGREE = "degree_rule"
MODE_FREE = "free_edge"


class PolicyError(ValueError):
    """Raised when a policy cannot resolve a choice (bad script, bad input)."""


class SearchBudgetExceededError(RuntimeError):
    """Exhaustive search ran out of budget; carries the best bound found."""

    def __init__(self, bound: int | None, budget: int):
        super().__init__(f"search budget of {budget} states exceeded")
        self.bound = bound
        self.budget = budget


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


class Chooser:
    """Per-run consumable view of a policy."""

    def choose(self, step: int, slot: str, candidates: Sequence):
        raise NotImplementedError

    def finish(self) -> None:
        """Called at run end; scripted choosers must be exactly exhausted."""


class Policy:
    def fresh(self) -> Chooser:
        raise NotImplementedError


class FirstPolicy(Policy):
    """Deterministic canonical policy: always the first candidate."""

    class _C(Chooser):
        def choose(self, step, slot, candidates):
            return candidates[0]

    def fresh(self) -> Chooser:
        return FirstPolicy._C()

    def __repr__(self) -> str:
        return "FirstPolicy()"


class RandomPolicy(Policy):
    """Seeded uniform choices via random.Random (Mersenne Twister), so a
    (graph, policy) pair replays bit-for-bit on any platform."""

    def __init__(self, seed: int):
        self.seed = seed

    class _C(Chooser):
        def __init__(self, seed: int):
            self.rng = random.Random(seed)

        def choose(self, step, slot, candidates):
            return candidates[self.rng.randrange(len(candidates))]

    def fresh(self) -> Chooser:
        return RandomPolicy._C(self.seed)

    def __repr__(self) -> str:
        return f"RandomPolicy({self.seed})"


class ScriptedPolicy(Policy):
    """Replays explicit choices as (step, index-into-candidates) pairs.

    Pairs are consumed in order and must be exactly exhausted when the run
    terminates.  Plain integers are accepted and match any step.
    """

    def __init__(self, choices: Sequence[int | tuple[int, int]]):
        self.choices = tuple(choices)

    class _C(Chooser):
        def __init__(self, choices):
            self.choices = choices
            self.pos = 0

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

    def fresh(self) -> Chooser:
        return ScriptedPolicy._C(self.choices)

    def __repr__(self) -> str:
        return f"ScriptedPolicy({list(self.choices)!r})"


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ReplayedStep(TraceStep):
    """A trace step with the degrees its replay observed."""

    min_before: int                # minimum nonzero degree before the step
    deg_before: dict[int, int]     # touched node -> degree before the step
    deg_after: dict[int, int]      # touched node -> degree after the step


@dataclass(frozen=True)
class RunTrace:
    graph: Graph
    steps: tuple[TraceStep, ...]
    result: Matching

    @cached_property
    def replay(self) -> tuple[ReplayedStep, ...]:
        """Re-run the steps once on a fresh view of the trace's graph.

        Raises ValueError when a picked edge is not alive, a recorded degree
        is stale, a removed list differs, edges outlive the last step, or the
        result is not the set of picked edges.  The degree snapshots are kept
        on the trace, so later readers do not replay it again.
        """
        view = ResidualView(self.graph)
        out = []
        for st in self.steps:
            if not view.alive_edge(st.selected, st.partner):
                raise ValueError(f"step {st.index}: picked edge not alive")
            if view.degree_of(st.selected) != st.sel_degree:
                raise ValueError(f"step {st.index}: recorded selection degree is stale")
            min_before = view.min_degree()
            removed = view.remove_pair(st.selected, st.partner)
            if tuple(removed) != st.removed:
                raise ValueError(f"step {st.index}: removed-edge list mismatch")
            # Each removed edge took one degree from each of its endpoints.
            hits = Counter(x for e in removed for x in e)
            after = {x: view.degree_of(x) for x in sorted(hits)}
            before = {x: d + hits[x] for x, d in after.items()}
            out.append(ReplayedStep(st.index, st.selected, st.sel_degree, st.partner,
                                    st.removed, st.mode, min_before, before, after))
        if view.has_alive():
            raise ValueError("alive edges remain after the last step")
        if self.result.pairs != frozenset(st.edge for st in self.steps):
            raise ValueError("result does not equal the set of picked edges")
        return tuple(out)

    def verify_replay(self) -> None:
        """Check the trace by its replay; raises ValueError on any mismatch."""
        self.replay  # computed for its checks, then kept on the trace


def save_trace(trace: RunTrace) -> str:
    lines = []
    for st in trace.steps:
        lines.append(f"s {st.index} {st.selected} {st.sel_degree} {st.partner} {st.mode}")
        lines.extend(f"r {a} {b}" for a, b in st.removed)
    return "\n".join(lines) + "\n"


def load_trace(text: str, g: Graph) -> RunTrace:
    """Parse and replay-check a trace file against its graph."""
    records: list[tuple[list, list[Edge]]] = []  # step fields, removed edges
    forms = {"s": "s <i> <u> <d> <v> <mode>", "r": "r <a> <b>"}
    for lineno, tag, fields in read_records(text, forms):
        if tag == "s":
            if fields[4] not in (MODE_DEGREE, MODE_FREE):
                raise GraphFormatError(f"line {lineno}: unknown mode '{fields[4]}'")
            records.append((fields, []))
        elif not records:
            raise GraphFormatError(f"line {lineno}: removed edge before any step")
        else:
            records[-1][1].append(norm_edge(*fields))
    steps = tuple(TraceStep(i, u, d, v, tuple(removed), mode)
                  for (i, u, d, v, mode), removed in records)
    try:
        trace = RunTrace(g, steps, Matching.from_pairs(st.edge for st in steps))
        trace.verify_replay()
    except ValueError as exc:
        raise GraphFormatError(f"trace does not replay: {exc}") from None
    return trace


# ---------------------------------------------------------------------------
# Heuristic runners
# ---------------------------------------------------------------------------


def _freemode_orientation(view: ResidualView, u: int, v: int) -> tuple[int, int]:
    # Record the endpoint of smaller current degree as the selected node
    # (ties by id); the charging analysis cases on the selected degree.
    if (view.degree_of(u), u) <= (view.degree_of(v), v):
        return u, v
    return v, u


def _select(view: ResidualView, chooser: Chooser, idx: int, rule: Callable[[int], str]):
    """Resolve step idx of a rule heuristic as (selected, partner, mode).

    The chooser fills the slots of the rule's selection kind in canonical
    order.  A forced neighbor is taken without asking it, so a random
    policy draws nothing for it.
    """
    kind = rule(view.min_degree())
    if kind == ANY_EDGE:
        u, v = chooser.choose(idx, "edge", view.alive_edges())
        u, v = _freemode_orientation(view, u, v)
        return u, v, MODE_FREE
    if kind == ANY_NODE:
        nodes = sorted(x for x in range(view.graph.n) if view.degree_of(x) > 0)
    else:
        nodes = view.min_degree_nodes()
    u = chooser.choose(idx, "node", nodes)
    if kind == MIN_FORCED:
        (v,) = view.alive_neighbors(u)
    else:
        v = chooser.choose(idx, "neighbor", view.alive_neighbors(u))
    return u, v, MODE_DEGREE


def _drive(g: Graph, chooser: Chooser, rule: Callable[[int], str]) -> RunTrace:
    view = ResidualView(g)
    steps: list[TraceStep] = []
    idx = 0
    while view.has_alive():
        idx += 1
        u, v, mode = _select(view, chooser, idx, rule)
        du = view.degree_of(u)
        removed = view.remove_pair(u, v)
        steps.append(TraceStep(idx, u, du, v, tuple(removed), mode))
    chooser.finish()
    return RunTrace(g, tuple(steps), Matching.from_pairs(st.edge for st in steps))


def run_algorithm(algo: str, g: Graph, policy: Policy) -> RunTrace:
    """Run the rule heuristic algo (a key of RULES) under policy."""
    if algo not in RULES:
        raise PolicyError(f"unknown or unsupported algorithm '{algo}'")
    return _drive(g, policy.fresh(), RULES[algo])


def run_min_greedy(g: Graph, policy: Policy) -> RunTrace:
    """Repeatedly select a node of minimum nonzero degree, then a neighbor;
    pick that edge and delete both endpoints."""
    return run_algorithm("mingreedy", g, policy)


def run_one_two_min_greedy(g: Graph, policy: Policy) -> RunTrace:
    """Like min-greedy, but while every degree is at least 3 any alive edge
    may be picked (a free step, recorded as such)."""
    return run_algorithm("one_two_mingreedy", g, policy)


def run_karp_sipser(g: Graph, policy: Policy) -> RunTrace:
    """Edge-greedy that prefers edges incident to a degree-1 node."""
    return run_algorithm("karpsipser", g, policy)


def run_greedy(g: Graph, policy: Policy) -> RunTrace:
    """Plain edge-greedy: pick any alive edge."""
    return run_algorithm("greedy", g, policy)


def run_mrg(g: Graph, policy: Policy) -> RunTrace:
    """Node-then-edge greedy: select a non-isolated node, then a neighbor.

    Selection is over non-isolated nodes (nodes with an alive edge); see the
    module notes on this reading of the node-selection rule.
    """
    return run_algorithm("mrg", g, policy)


class _RankChooser(Chooser):
    def __init__(self, rank: dict[int, int]):
        self.rank = rank

    def choose(self, step, slot, candidates):
        return min(candidates, key=self.rank.__getitem__)


def run_shuffle(g: Graph, permutation: Sequence[int]) -> RunTrace:
    """Match the permutation-first non-isolated node to its permutation-first
    unmatched neighbor, repeatedly: mrg whose choices follow the permutation."""
    perm = list(permutation)
    if sorted(perm) != list(range(g.n)):
        raise PolicyError("permutation must be a permutation of 0..n-1")
    return _drive(g, _RankChooser({v: i for i, v in enumerate(perm)}), RULES["mrg"])


# ---------------------------------------------------------------------------
# Choice enumeration and scripted replays
# ---------------------------------------------------------------------------


class _Odometer(Chooser):
    """Takes every combination of slot choices at one step in turn, in
    canonical order with the last slot varying fastest."""

    def __init__(self):
        self.path: list[int] = []    # candidate index per slot
        self.sizes: list[int] = []   # candidate count per slot in this pass

    def choose(self, step, slot, candidates):
        k = len(self.sizes)
        if k == len(self.path):
            self.path.append(0)
        self.sizes.append(len(candidates))
        return candidates[self.path[k]]

    def advance(self) -> bool:
        """Move to the next combination; False once every one was taken."""
        path = self.path
        while path and path[-1] + 1 == self.sizes[len(path) - 1]:
            path.pop()
        self.sizes = []
        if path:
            path[-1] += 1
        return bool(path)


def iter_all_pick_sequences(g: Graph, algo: str, limit: int | None = None) -> Iterator[list[Edge]]:
    """Yield the picked-edge sequence of every complete choice path.

    Exhaustive over the heuristic's nondeterminism; intended for small
    graphs in tests.  Stops with an error if limit leaves are exceeded.
    """
    if algo not in RULES:
        raise PolicyError(f"choice enumeration unsupported for '{algo}'")
    rule = RULES[algo]
    view = ResidualView(g)
    count = 0

    def rec(prefix: list[Edge]) -> Iterator[list[Edge]]:
        nonlocal count
        if not view.has_alive():
            count += 1
            if limit is not None and count > limit:
                raise SearchBudgetExceededError(None, limit)
            yield list(prefix)
            return
        odometer = _Odometer()
        moves = [_select(view, odometer, 0, rule)[:2]]
        while odometer.advance():
            moves.append(_select(view, odometer, 0, rule)[:2])
        for u, v in moves:
            removed = view.remove_pair(u, v)
            prefix.append(norm_edge(u, v))
            yield from rec(prefix)
            prefix.pop()
            view.restore_edges(removed)

    yield from rec([])


class _PickChooser(Chooser):
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


def _run_picks(g: Graph, picks: Sequence[tuple[int, int]], algo: str) -> tuple[RunTrace, _PickChooser]:
    if algo not in RULES:
        raise PolicyError(f"choice enumeration unsupported for '{algo}'")
    chooser = _PickChooser(picks)
    trace = _drive(g, chooser, RULES[algo])
    # Catches picks left over at the end, and a forced neighbor that is not
    # the picked partner (the picked edge was not alive).
    if [st.edge for st in trace.steps] != [norm_edge(a, b) for a, b in chooser.picks]:
        raise PolicyError(f"pick sequence is not a run of '{algo}'")
    return trace, chooser


def script_from_picks(g: Graph, picks: Sequence[tuple[int, int]], algo: str) -> ScriptedPolicy:
    """Turn an explicit pick sequence into a scripted policy for algo.

    Raises PolicyError if some pick is not reachable by the heuristic at its
    step, e.g. when checking that a min-greedy run is a valid free-variant run.
    """
    return ScriptedPolicy(_run_picks(g, picks, algo)[1].script)


def trace_from_picks(g: Graph, picks: Sequence[tuple[int, int]], algo: str) -> RunTrace:
    """Replay an explicit pick sequence as a run of algo."""
    return _run_picks(g, picks, algo)[0]


# ---------------------------------------------------------------------------
# Exhaustive worst-case search
# ---------------------------------------------------------------------------


def worst_case_size(
    g: Graph,
    algo: str,
    budget: int = 2_000_000,
) -> tuple[int, RunTrace]:
    """Minimum matching size over ALL nondeterministic choice sequences.

    Memoized DFS over residual states keyed by the alive-edge bitmask, which
    deduplicates permuted choice orders reaching the same residual graph.
    Returns the exact minimum and one witness trace achieving it.
    """
    if algo not in RULES:
        raise PolicyError(f"worst-case search unsupported for '{algo}'")
    rule = RULES[algo]
    m = g.m
    if m == 0:
        return 0, RunTrace(g, (), Matching.from_pairs(()))
    edges = list(g.edges)
    inc = [0] * g.n
    for i, (u, v) in enumerate(edges):
        inc[u] |= 1 << i
        inc[v] |= 1 << i
    nodes = range(g.n)
    full = (1 << m) - 1
    memo: dict[int, int] = {}
    choice: dict[int, tuple[int, int]] = {}
    spent = 0

    def moves_of(state: int) -> list[tuple[int, int]]:
        """Every (selected, partner) pick the rule allows in this state."""
        degs = [(state & inc[v]).bit_count() for v in nodes]
        mind = min(d for d in degs if d > 0)
        kind = rule(mind)
        if kind == ANY_EDGE:
            return [edges[i] for i in _bits(state)]
        # A forced neighbor is a degree-1 node's only edge.  Under ANY_NODE a
        # pick (v, u) with v > u reaches the successor (u, v) reached first,
        # so the search visits the alive edges in ascending order.
        out = []
        for u in nodes:
            if degs[u] == mind or (kind == ANY_NODE and degs[u] > 0):
                for i in _bits(state & inc[u]):
                    a, b = edges[i]
                    out.append((u, b if a == u else a))
        return out

    def rec(state: int) -> int:
        nonlocal spent
        if state == 0:
            return 0
        cached = memo.get(state)
        if cached is not None:
            return cached
        spent += 1
        if spent > budget:
            raise SearchBudgetExceededError(None, budget)
        best = None
        best_move = None
        seen_next: set[int] = set()
        for u, v in moves_of(state):
            nxt = state & ~(inc[u] | inc[v])
            if nxt in seen_next:
                continue
            seen_next.add(nxt)
            val = 1 + rec(nxt)
            if best is None or val < best:
                best = val
                best_move = (u, v)
        memo[state] = best
        choice[state] = best_move
        return best

    try:
        size = rec(full)
    except SearchBudgetExceededError as exc:
        done = [1 + memo[full & ~(inc[u] | inc[v])]
                for u, v in moves_of(full)
                if (full & ~(inc[u] | inc[v])) in memo]
        raise SearchBudgetExceededError(min(done) if done else None, budget) from None

    picks = []
    state = full
    while state:
        u, v = choice[state]
        picks.append((u, v))
        state &= ~(inc[u] | inc[v])
    return size, trace_from_picks(g, picks, algo)


def _bits(x: int) -> Iterator[int]:
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low
