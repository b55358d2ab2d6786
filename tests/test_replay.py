"""RunTrace.replay against corrupted traces and against a naive replay,
kept below as the oracle: every step's minimum degree, every edge's death
step, and every node's degree around every step must be what the oracle
recounts."""

import random
import re

import pytest

from matchforge import matchers
from matchforge.graphs import (
    Graph,
    GraphFormatError,
    Matching,
    gen_random_bounded,
    gen_regular,
)
from matchforge.matchers import (
    RULES,
    FirstPolicy,
    RandomPolicy,
    RunTrace,
    TraceStep,
    load_trace,
    run_algorithm,
    save_trace,
)

from reference_runs import degrees


def oracle_replay(trace: RunTrace) -> tuple[tuple[int, list[int], list[int]], ...]:
    """A naive replay: per step, the removed edges are the sorted alive edges
    at u or v, and every degree is recounted from the alive edges.  Gives
    per step its minimum degree before it and every node's degree before
    and after it."""
    g = trace.graph
    alive = set(g.edges)
    picked = []
    out = []
    for position, st in enumerate(trace.steps, 1):
        if st.index != position:
            raise ValueError(f"step {st.index}: index is not its position {position}")
        u = st.selected
        v = st.partner
        e = (u, v) if u < v else (v, u)
        if e not in alive:
            raise ValueError(f"step {st.index}: picked edge not alive")
        before = degrees(alive, g.n)
        if before[u] != st.sel_degree:
            raise ValueError(f"step {st.index}: recorded selection degree is stale")
        removed = tuple(sorted(x for x in alive if u in x or v in x))
        if removed != st.removed:
            raise ValueError(f"step {st.index}: removed-edge list mismatch")
        alive -= set(removed)
        out.append((min(d for d in before if d), before, degrees(alive, g.n)))
        picked.append(e)
    if alive:
        raise ValueError("alive edges remain after the last step")
    if trace.result.pairs != frozenset(picked):
        raise ValueError("result does not equal the set of picked edges")
    return tuple(out)


def replay_view(replay, trace):
    """Each edge's death step, then per step its minimum degree before it and
    every node's degree before and after it, as ``replay`` answers them."""
    nodes = range(trace.graph.n)
    return list(replay.died), [
        (replay.min_before[s - 1],
         [replay.deg_before(s, w) for w in nodes],
         [replay.deg_after(s, w) for w in nodes])
        for s in range(1, len(trace.steps) + 1)]


def new_view(trace):
    rep = RunTrace.replay.func(trace)
    assert len(rep.min_before) == len(trace.steps)
    return replay_view(rep, trace)


def oracle_view(trace):
    """``replay_view`` read from the oracle's records and the trace's steps."""
    records = oracle_replay(trace)
    g = trace.graph
    died = [0] * g.m
    for st in trace.steps:
        for e in st.removed:
            died[g.edge_id[e]] = st.index
    return died, list(records)


def outcome(view, trace):
    """What a replay makes of a trace: its degrees, or the message it raises."""
    try:
        return "ok", view(trace)
    except ValueError as exc:
        return "error", str(exc)


def with_step(steps, k, **fields):
    """steps with some fields of step k (1-based) replaced."""
    st = steps[k - 1]
    kw = {name: getattr(st, name)
          for name in ("index", "selected", "sel_degree", "partner", "removed", "mode")}
    kw.update(fields)
    return (*steps[:k - 1], TraceStep(**kw), *steps[k:])


# -- the corruptions, one at a time ---------------------------------------------

# A 3-regular graph with one isolated node, so that a step can pick a pair
# that is no edge and the picks still form a matching.
BASE = gen_regular(12, 3, 5)
GRAPH = Graph(13, BASE.edges)
TRACE = run_algorithm("mingreedy", GRAPH, FirstPolicy())
K = 2   # the corrupted step; step 1 leaves dead edges behind it


def _state_at(k):
    """(alive, dead) edges just before step k of TRACE."""
    dead = {e for st in TRACE.steps[:k - 1] for e in st.removed}
    return set(GRAPH.edges) - dead, dead


def _corruptions():
    st = TRACE.steps[K - 1]
    u, v = st.selected, st.partner
    rem = st.removed
    alive, dead = _state_at(K)
    stranger = min(e for e in alive if u not in e and v not in e)
    gone = min(e for e in dead if u in e or v in e)
    mismatch = f"step {K}: removed-edge list mismatch"
    not_alive = f"step {K}: picked edge not alive"
    return {
        "out_of_order": ({"removed": (rem[1], rem[0], *rem[2:])}, mismatch),
        "duplicated": ({"removed": (rem[0], *rem[:-1])}, mismatch),
        "already_dead": ({"removed": tuple(sorted({*rem[:-1], gone}))}, mismatch),
        "touches_neither": ({"removed": tuple(sorted({*rem[:-1], stranger}))}, mismatch),
        "one_too_few": ({"removed": rem[:-1]}, mismatch),
        "one_too_many": ({"removed": tuple(sorted({*rem, stranger}))}, mismatch),
        "pair_not_an_edge": ({"partner": GRAPH.n - 1}, not_alive),
        "picked_edge_dead": ({"selected": TRACE.steps[0].selected,
                              "partner": TRACE.steps[0].partner}, not_alive),
    }


def test_corruption_cases_are_what_they_name():
    st = TRACE.steps[K - 1]
    alive, dead = _state_at(K)
    removed = {name: fields.get("removed") for name, (fields, _) in _corruptions().items()}
    assert len(st.removed) >= 3 and GRAPH.degree(GRAPH.n - 1) == 0
    # One true edge swapped for a dead one, or for an alive one at neither end.
    for name, pool in (("already_dead", dead), ("touches_neither", alive)):
        extra = set(removed[name]) - set(st.removed)
        assert len(removed[name]) == len(st.removed) and len(extra) == 1 and extra <= pool
    assert len(removed["one_too_many"]) == len(st.removed) + 1


@pytest.mark.parametrize("case", sorted(_corruptions()))
def test_corrupted_step_is_rejected_with_its_message(case):
    fields, message = _corruptions()[case]
    bad = RunTrace(GRAPH, with_step(TRACE.steps, K, **fields), TRACE.result)
    assert outcome(oracle_view, bad) == ("error", message)
    # Built by hand: the result is the true one, and the step fails first.
    with pytest.raises(ValueError) as err:
        bad.replay
    assert str(err.value) == message
    # Read from text: the result is rebuilt from the corrupted picks.
    with pytest.raises(GraphFormatError) as err:
        load_trace(save_trace(bad), GRAPH)
    assert str(err.value) == f"trace does not replay: {message}"


def test_uncorrupted_trace_replays_as_the_oracle_does():
    expect = outcome(oracle_view, TRACE)
    assert expect[0] == "ok"
    assert outcome(new_view, TRACE) == expect
    loaded = load_trace(save_trace(TRACE), GRAPH)
    assert loaded == TRACE
    assert ("ok", replay_view(loaded.replay, loaded)) == expect


def test_replay_and_load_trace_call_no_runner(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("runner called")

    g = gen_random_bounded(30, 4, 0.5, 3)
    traces = [run_algorithm(algo, g, RandomPolicy(7)) for algo in RULES]
    monkeypatch.setattr(matchers, "_drive", refuse)
    monkeypatch.setattr(matchers, "AliveEdges", refuse)
    for trace in traces:
        RunTrace(g, trace.steps, trace.result).verify_replay()
        assert load_trace(save_trace(trace), g) == trace


# -- which fault a trace document reports ---------------------------------------

K4 = Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
# The first step of mingreedy on K4, and the second, which removes the rest.
STEP_1 = "s 1 0 3 1 degree_rule\nr 0 1\nr 0 2\nr 0 3\nr 1 2\nr 1 3\n"
STEP_2 = "s 2 2 1 3 degree_rule\nr 2 3\n"

# One document per level, most binding first.  Each also holds faults of
# every later level that it can: a level is reported before all of them.
PRECEDENCE = {
    # A bad line after a bad removed list and picks that share node 0.
    "parse": ("s 1 0 3 1 degree_rule\nr 0 4\ns 2 0 1 2 degree_rule\nbogus 1\n",
              "line 4: unknown record 'bogus'"),
    # Step 1's degree is stale and its removed list short; both picks hold 1.
    "disjoint": ("s 1 0 9 1 degree_rule\nr 0 1\ns 2 1 1 2 degree_rule\n",
                 "trace does not replay: matching pairs are not node-disjoint"),
    # Step 1's removed list is short, step 2's degree stale, and edges remain.
    "first_step": ("s 1 0 3 1 degree_rule\nr 0 1\ns 2 2 9 3 degree_rule\nr 2 3\n",
                   "trace does not replay: step 1: removed-edge list mismatch"),
    "alive_edges": (STEP_1, "trace does not replay: alive edges remain after the last step"),
}


@pytest.mark.parametrize("level", sorted(PRECEDENCE))
def test_a_trace_document_reports_its_most_binding_fault(level):
    text, message = PRECEDENCE[level]
    with pytest.raises(GraphFormatError) as err:
        load_trace(text, K4)
    assert str(err.value) == message


def test_a_wrong_result_is_reported_last():
    steps = load_trace(STEP_1 + STEP_2, K4).steps
    with pytest.raises(ValueError) as err:
        RunTrace(K4, steps, Matching(frozenset({(0, 1)}))).replay
    assert str(err.value) == "result does not equal the set of picked edges"
    # Edges left alive outrank the result.
    with pytest.raises(ValueError) as err:
        RunTrace(K4, steps[:1], Matching(frozenset())).replay
    assert str(err.value) == "alive edges remain after the last step"


# -- random single-field corruptions against the oracle --------------------------


def _random_edge(rng, g):
    return g.edges[rng.randrange(g.m)]


def _corrupt_removed(rng, g, st):
    rem = list(st.removed)
    kind = rng.randrange(10)
    if kind == 0 and rem:
        del rem[rng.randrange(len(rem))]
    elif kind == 1:
        rem.insert(rng.randrange(len(rem) + 1), _random_edge(rng, g))
    elif kind == 2:
        rem = sorted({*rem, _random_edge(rng, g)})
    elif kind == 3 and len(rem) > 1:
        i = rng.randrange(len(rem) - 1)
        rem[i], rem[i + 1] = rem[i + 1], rem[i]
    elif kind == 4 and rem:
        i = rng.randrange(len(rem))
        rem.insert(i, rem[i])
    elif kind == 5 and rem:
        rem[rng.randrange(len(rem))] = _random_edge(rng, g)
        rem.sort()
    elif kind == 6 and rem:
        a, b = rem[0]
        rem[0] = rng.choice([(b, a), (a, a), (a, g.n), (-1, b)])
    elif kind == 7:
        return list(rem)    # a list is no tuple of edges
    elif kind == 8 and rem:
        rem[rng.randrange(len(rem))] = [*rem[0]]    # nor is an unhashable entry
    elif kind == 9 and rem:
        # An edge at u or v, alive or dead, in place of a true one.
        x = rng.choice([st.selected, st.partner])
        rem[rng.randrange(len(rem))] = g.edges[rng.choice(g.incident[x])]
        rem.sort()
    return tuple(rem)


def _corrupt(rng, trace):
    """The trace with one field changed at random, or as it is."""
    g = trace.graph
    steps = trace.steps
    result = trace.result
    n = len(steps)
    kind = rng.randrange(10)
    if n == 0 or kind == 0:
        pass
    elif kind <= 6:
        k = rng.randint(1, n)
        st = steps[k - 1]
        # The removed list has the most ways to be wrong: it is drawn most.
        field = rng.choice(("index", "selected", "partner", "sel_degree", "mode", *["removed"] * 5))
        if field == "index":
            value = rng.choice([k - 1, k + 1, 0, rng.randint(-2, n + 2)])
        elif field in ("selected", "partner"):
            value = rng.choice([rng.randrange(-1, g.n + 1),
                                st.partner if field == "selected" else st.selected])
        elif field == "sel_degree":
            value = st.sel_degree + rng.choice([-1, 1, rng.randint(-3, 3)])
        elif field == "removed":
            value = _corrupt_removed(rng, g, st)
        else:
            value = matchers.MODE_FREE if st.mode == matchers.MODE_DEGREE else matchers.MODE_DEGREE
        steps = with_step(steps, k, **{field: value})
    elif kind == 7:
        i = rng.randrange(n)
        steps = steps[:i] + steps[i + 1:]
    elif kind == 8:
        i = rng.randrange(n)
        steps = steps[:i + 1] + steps[i:]
    else:
        pairs = set(result.pairs)
        pairs.discard(rng.choice(sorted(pairs)))
        result = Matching(frozenset(pairs))
    return RunTrace(g, steps, result)


def test_replay_agrees_with_the_oracle_on_random_corruptions():
    rng = random.Random(2024)
    verdicts = set()
    for case in range(1500):
        g = gen_random_bounded(rng.randint(2, 12), rng.randint(1, 5), rng.uniform(0.2, 1.0),
                               rng.randrange(10**6))
        algo = rng.choice(list(RULES))
        policy = rng.choice([FirstPolicy(), RandomPolicy(rng.randrange(10**6))])
        trace = _corrupt(rng, run_algorithm(algo, g, policy))
        expect = outcome(oracle_view, trace)
        assert outcome(new_view, trace) == expect, (case, algo)
        verdicts.add("ok" if expect[0] == "ok" else re.sub(r"-?\d+", "N", expect[1]))
    # Every check of the replay was reached, and so was acceptance.
    assert verdicts == {
        "ok",
        "step N: index is not its position N",
        "step N: picked edge not alive",
        "step N: recorded selection degree is stale",
        "step N: removed-edge list mismatch",
        "alive edges remain after the last step",
        "result does not equal the set of picked edges",
    }
