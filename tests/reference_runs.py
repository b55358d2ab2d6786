"""Reference runs on the public API: the choice enumeration and an
independent runner oracle.

``iter_all_pick_sequences`` runs a rule heuristic once per choice path with
``run_algorithm`` under ``Odometer``, a policy that counts over the slots
of the whole run, last slot fastest.  The goldens, the search
cross-checks and the alive-sequence properties read it.

``oracle_run`` makes a run its own way: at every step it recomputes the
degrees and every candidate list from scratch, from a plain set of alive
edges.  ``check_against_oracle`` runs a policy through ``run_algorithm``
and through the oracle, and requires the same candidate lists at every
slot and the same trace.
"""

from __future__ import annotations

from collections.abc import Iterator

from matchforge.graphs import Edge, Graph, Matching, SearchBudgetExceededError
from matchforge.matchers import (
    ANY_EDGE,
    ANY_NODE,
    MIN_FORCED,
    MODE_DEGREE,
    MODE_FREE,
    RULES,
    Policy,
    RunTrace,
    TraceStep,
    run_algorithm,
)


class Odometer(Policy):
    """Takes every path of slot choices through a run in turn, one run per
    path, in canonical order with the last slot of the run varying fastest.
    Every run takes the same odometer, so successive runs take successive
    choice paths."""

    def __init__(self):
        self.path: list[int] = []    # candidate index per slot of the run
        self.sizes: list[int] = []   # candidate count per slot in this run

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
    """Yield the picked-edge sequence of every complete choice path of algo
    on g, first slot slowest; raise SearchBudgetExceededError once more than
    limit paths would be yielded."""
    policy = Odometer()
    count = 0
    while True:
        count += 1
        if limit is not None and count > limit:
            raise SearchBudgetExceededError(None, limit, "leaves")
        yield [st.edge for st in run_algorithm(algo, g, policy).steps]
        if not policy.advance():
            return


def degrees(alive, n: int) -> list[int]:
    """Each node's degree in the edge set alive."""
    deg = [0] * n
    for u, v in alive:
        deg[u] += 1
        deg[v] += 1
    return deg


def oracle_run(g: Graph, policy: Policy, rule) -> RunTrace:
    """A run of rule on g that recomputes the degrees and every candidate
    list from a plain set of alive edges at each step."""
    alive = set(g.edges)
    steps = []
    while alive:
        idx = len(steps) + 1
        deg = degrees(alive, g.n)
        mind = min(d for d in deg if d)
        kind = rule(mind)
        if kind == ANY_EDGE:
            u, v = policy.choose(idx, "edge", sorted(alive))
            # The end of smaller degree is the selected one, ties by id.
            if deg[v] < deg[u] or (deg[v] == deg[u] and v < u):
                u, v = v, u
            mode = MODE_FREE
        else:
            nodes = [x for x in range(g.n) if deg[x] and (kind == ANY_NODE or deg[x] == mind)]
            u = policy.choose(idx, "node", nodes)
            neighbors = sorted(b if a == u else a for a, b in alive if u in (a, b))
            if kind == MIN_FORCED:
                (v,) = neighbors
            else:
                v = policy.choose(idx, "neighbor", neighbors)
            mode = MODE_DEGREE
        removed = tuple(sorted(e for e in alive if u in e or v in e))
        steps.append(TraceStep(idx, u, deg[u], v, removed, mode))
        alive -= set(removed)
    policy.finish()
    return RunTrace(g, tuple(steps), Matching.from_pairs((st.selected, st.partner) for st in steps))


class Recorder(Policy):
    """Passes each slot to the policy of one run and logs the step, the
    slot, its candidates and the answer."""

    def __init__(self, policy: Policy):
        self.policy = policy.fresh()
        self.log: list[tuple] = []

    def choose(self, step, slot, candidates):
        pick = self.policy.choose(step, slot, candidates)
        self.log.append((step, slot, list(candidates), pick))
        return pick

    def finish(self):
        self.policy.finish()


def check_against_oracle(g: Graph, algo: str, policy: Policy) -> None:
    """Run policy on g through run_algorithm and through the oracle; require
    the same slots, candidate lists and answers, and equal traces."""
    runner = Recorder(policy)
    trace = run_algorithm(algo, g, runner)
    oracle = Recorder(policy)
    expect = oracle_run(g, oracle, RULES[algo])
    assert runner.log == oracle.log
    assert trace == expect
