import random
import re
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from matchforge import matchers
from matchforge.graphs import (
    Graph,
    GraphFormatError,
    gen_random_bounded,
    gen_regular,
    load_graph,
    save_graph,
)
from matchforge.matchers import (
    MODE_DEGREE,
    MODE_FREE,
    RULES,
    FirstPolicy,
    PolicyError,
    RandomPolicy,
    RunTrace,
    ScriptedPolicy,
    SearchBudgetExceededError,
    load_trace,
    run_algorithm,
    run_shuffle,
    save_trace,
    script_from_picks,
    trace_from_picks,
    worst_case_size,
)

from reference_runs import check_against_oracle, degrees, iter_all_pick_sequences, oracle_run


def P3():
    return Graph.from_edges(3, [(0, 1), (1, 2)])


def P4():
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


def C4():
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def C6():
    return Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])


def K4():
    return Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


def random_graph(seed, n_max=10, delta=4):
    import random
    rng = random.Random(seed)
    return gen_random_bounded(rng.randint(2, n_max), delta, rng.uniform(0.2, 0.9), seed)


class TestMinGreedy:
    def test_p3_first(self):
        t = run_algorithm("mingreedy", P3(), FirstPolicy())
        assert t.result.pairs == {(0, 1)}

    def test_c4_first(self):
        t = run_algorithm("mingreedy", C4(), FirstPolicy())
        assert t.result.pairs == {(0, 1), (2, 3)}

    def test_c6_every_choice_path_yields_three(self):
        # One run per path through the whole policy tree.
        sizes = {len(p) for p in iter_all_pick_sequences(C6(), "mingreedy")}
        assert sizes == {3}

    def test_enumeration_yields_limit_runs_then_stops(self):
        runs = []
        with pytest.raises(SearchBudgetExceededError) as info:
            for picks in iter_all_pick_sequences(C6(), "mingreedy", limit=3):
                runs.append(picks)
        assert len(runs) == 3 and info.value.budget == 3
        assert len(list(iter_all_pick_sequences(C6(), "mingreedy"))) > 3

    def test_enumeration_runs_a_long_path(self):
        path = Graph.from_edges(3000, [(i, i + 1) for i in range(2999)])
        first = next(iter_all_pick_sequences(path, "mingreedy"))
        assert first == [(i, i + 1) for i in range(0, 3000, 2)]

    def test_trace_records_degrees_and_mode(self):
        t = run_algorithm("mingreedy", P3(), FirstPolicy())
        (step,) = t.steps
        assert step.selected == 0 and step.sel_degree == 1 and step.partner == 1
        assert step.mode == "degree_rule"
        assert step.removed == ((0, 1), (1, 2))


class TestOneTwoMinGreedy:
    def test_p3_same_as_mingreedy(self):
        assert (run_algorithm("one_two_mingreedy", P3(), FirstPolicy()).result.pairs
                == run_algorithm("mingreedy", P3(), FirstPolicy()).result.pairs)

    def test_k4_scripted_first_edge(self):
        # All degrees are 3, so the first step picks a free edge by script.
        t = run_algorithm("one_two_mingreedy", K4(), ScriptedPolicy([0, 0, 0]))
        assert t.result.pairs == {(0, 1), (2, 3)}
        assert t.steps[0].mode == "free_edge"
        assert t.steps[1].mode == "degree_rule"

    def test_any_mingreedy_trace_is_a_valid_free_variant_run(self):
        for seed in range(1000):
            g = random_graph(seed)
            if g.m == 0:
                continue
            mg = run_algorithm("mingreedy", g, RandomPolicy(seed))
            picks = [st.edge for st in mg.steps]
            replay = run_algorithm(
                "one_two_mingreedy", g, script_from_picks(g, picks, "one_two_mingreedy")
            )
            assert [st.edge for st in replay.steps] == picks

    def test_every_mingreedy_choice_sequence_is_reachable(self):
        # Full enumeration on small graphs: each leaf of the plain policy
        # tree replays under the free variant.
        for seed in (0, 2, 5, 7, 12):
            g = random_graph(seed, n_max=6, delta=3)
            if g.m == 0:
                continue
            for picks in iter_all_pick_sequences(g, "mingreedy", limit=500):
                script_from_picks(g, picks, "one_two_mingreedy")


class TestOtherHeuristics:
    def test_karpsipser_p3(self):
        assert run_algorithm("karpsipser", P3(), FirstPolicy()).result.pairs == {(0, 1)}

    def test_greedy_triangle(self):
        tri = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        t = run_algorithm("greedy", tri, FirstPolicy())
        assert len(t.result) == 1

    def test_mrg_runs(self):
        t = run_algorithm("mrg", C6(), FirstPolicy())
        assert len(t.result) == 3

    def test_shuffle_p4(self):
        # Permutation (1, 0, 2, 3): 1 matches 0, then 2 matches 3.
        t = run_shuffle(P4(), (1, 0, 2, 3))
        assert [st.edge for st in t.steps] == [(0, 1), (2, 3)]
        assert len(t.result) == 2

    def test_shuffle_bad_permutation(self):
        with pytest.raises(PolicyError):
            run_shuffle(P4(), (0, 1, 2))


class TestPolicies:
    def test_determinism_random_policy(self):
        g = random_graph(11)
        a = run_algorithm("mingreedy", g, RandomPolicy(5))
        b = run_algorithm("mingreedy", g, RandomPolicy(5))
        assert a == b

    def test_each_run_of_a_policy_starts_anew(self, monkeypatch):
        # One generator per run, seeded once; a policy object may be reused.
        seeds = []

        class Seeded(random.Random):
            def __init__(self, seed):
                seeds.append(seed)
                super().__init__(seed)

        g = random_graph(11)
        # Each mrg step asks for a node and a neighbor.
        steps = len(run_algorithm("mrg", g, FirstPolicy()).steps)
        monkeypatch.setattr(matchers.random, "Random", Seeded)
        for policy in (RandomPolicy(5), ScriptedPolicy([0] * 2 * steps)):
            assert run_algorithm("mrg", g, policy) == run_algorithm("mrg", g, policy)
        assert seeds == [5, 5]

    def test_scripted_step_tagging(self):
        t = run_algorithm("mingreedy", P3(), ScriptedPolicy([(1, 0), (1, 0)]))
        assert t.result.pairs == {(0, 1)}

    def test_scripted_out_of_range(self):
        with pytest.raises(PolicyError, match="out of range"):
            run_algorithm("mingreedy", P3(), ScriptedPolicy([9, 0]))

    def test_scripted_leftover_rejected(self):
        with pytest.raises(PolicyError, match="unconsumed"):
            run_algorithm("mingreedy", P3(), ScriptedPolicy([0, 0, 0]))

    def test_scripted_underflow_rejected(self):
        with pytest.raises(PolicyError, match="exhausted"):
            run_algorithm("mingreedy", C4(), ScriptedPolicy([0, 0]))

    @pytest.mark.parametrize("algo", ["mingreedy", "karpsipser", "mrg"])
    def test_a_node_slot_cannot_reorder_the_runs_candidates(self, algo):
        # A node slot reads the run's own sorted list through a view.
        tried = []

        class Meddler(matchers.Policy):
            def choose(self, step, slot, candidates):
                if slot == "node":
                    for meddle in (lambda c: c.__setitem__(0, c[-1]),
                                   lambda c: c.sort(reverse=True),
                                   lambda c: c.__delitem__(0)):
                        with pytest.raises((TypeError, AttributeError)):
                            meddle(candidates)
                        tried.append(slot)
                return candidates[0]

        g = random_graph(11)
        assert run_algorithm(algo, g, Meddler()) == run_algorithm(algo, g, FirstPolicy())
        assert tried

    def test_a_free_pick_that_is_not_alive_is_rejected(self):
        class Fixed(matchers.Policy):
            """Answers every free step with the same pair."""

            def __init__(self, pair):
                self.pair = pair

            def choose(self, step, slot, candidates):
                return self.pair

        # Step 1 kills (0, 1), so step 2's answer is a dead edge.
        with pytest.raises(ValueError, match=r"^edge \(0, 1\) is not alive$"):
            run_algorithm("greedy", P4(), Fixed((0, 1)))
        with pytest.raises(ValueError, match=r"^edge \(0, 2\) is not alive$"):
            run_algorithm("greedy", P4(), Fixed((2, 0)))


# -- the runner against an independent oracle ---------------------------------


@lru_cache(maxsize=1)
def oracle_graphs() -> tuple[Graph, ...]:
    """500 seeded graphs with n <= 30 and max degree <= 5; every fifth is 3-
    or 4-regular, so that free steps come at every degree."""
    graphs = []
    for seed in range(500):
        rng = random.Random(seed)
        if seed % 5 == 4:
            graphs.append(gen_regular(rng.randrange(8, 31, 2), rng.randint(3, 4), seed))
        else:
            graphs.append(gen_random_bounded(rng.randint(2, 30), rng.randint(1, 5),
                                             rng.uniform(0.1, 1.0), seed))
    return tuple(graphs)


def drawn_script(g, algo, seed) -> ScriptedPolicy:
    """A (step, index) script drawn on an oracle run: per slot the first,
    the last or a random candidate."""
    rng = random.Random(seed)
    script = []

    class Draw(matchers.Policy):
        def choose(self, step, slot, candidates):
            k = rng.choice((0, len(candidates) - 1, rng.randrange(len(candidates))))
            script.append((step, k))
            return candidates[k]

    oracle_run(g, Draw(), RULES[algo])
    return ScriptedPolicy(script)


@pytest.mark.parametrize("algo", list(RULES))
def test_runner_offers_what_an_independent_oracle_offers(algo):
    # Every slot of every run: the same candidates, in the same order.
    for seed, g in enumerate(oracle_graphs()):
        for policy in (FirstPolicy(), RandomPolicy(seed), drawn_script(g, algo, seed)):
            check_against_oracle(g, algo, policy)


class PermutationFirst(matchers.Policy):
    """Takes the candidate that comes first in a node permutation."""

    def __init__(self, perm):
        self.rank = {v: i for i, v in enumerate(perm)}

    def choose(self, step, slot, candidates):
        return min(candidates, key=self.rank.__getitem__)


def test_shuffle_runs_what_the_oracle_runs():
    for seed, g in enumerate(oracle_graphs()):
        perm = list(range(g.n))
        random.Random(seed).shuffle(perm)
        assert run_shuffle(g, perm) == oracle_run(g, PermutationFirst(perm), RULES["mrg"])


class TestPicks:
    def test_trace_from_picks_matches_scripted_run(self):
        for seed in range(50):
            g = random_graph(seed)
            if g.m == 0:
                continue
            for algo in ("mingreedy", "karpsipser", "mrg"):
                picks = [st.edge for st in run_algorithm(algo, g, RandomPolicy(seed)).steps]
                scripted = run_algorithm(algo, g, script_from_picks(g, picks, algo))
                assert trace_from_picks(g, picks, algo) == scripted

    def test_too_few_picks(self):
        with pytest.raises(PolicyError, match="ends before"):
            script_from_picks(C4(), [(0, 1)], "mingreedy")

    def test_too_many_picks(self):
        with pytest.raises(PolicyError, match="not a run of 'mingreedy'"):
            script_from_picks(P3(), [(0, 1), (1, 2)], "mingreedy")

    def test_forced_pick_must_be_alive(self):
        # Node 0 has degree 1, so its neighbor 1 is forced; (0, 2) is no edge.
        with pytest.raises(PolicyError, match="not a run of 'karpsipser'"):
            trace_from_picks(P3(), [(0, 2)], "karpsipser")

    def test_non_min_degree_node_rejected(self):
        with pytest.raises(PolicyError, match="neither endpoint"):
            script_from_picks(P4(), [(1, 2), (0, 3)], "mingreedy")


class TestTraceIO:
    def test_roundtrip(self):
        g = random_graph(3)
        t = run_algorithm("karpsipser", g, RandomPolicy(2))
        assert load_trace(save_trace(t), g) == t

    def test_replay_is_cached_by_readers_not_runners(self):
        g = random_graph(3)
        t = run_algorithm("mingreedy", g, FirstPolicy())
        assert "replay" not in vars(t)
        loaded = load_trace(save_trace(t), g)
        assert "replay" in vars(loaded)
        assert loaded.replay is loaded.replay
        assert len(loaded.replay.min_before) == len(loaded.steps)
        assert loaded.replay.min_before[0] == min(
            g.degree(v) for v in range(g.n) if g.degree(v))

    def test_loaded_trace_shares_the_graphs_objects(self):
        g = load_graph(save_graph(gen_regular(3000, 3, 1)))
        t = load_trace(save_trace(run_algorithm("one_two_mingreedy", g, RandomPolicy(1))), g)

        def own(e):
            return g.edges[g.edge_id[e]]

        assert all(r is own(r) for st in t.steps for r in st.removed)
        assert all(e is own(e) for e in t.result.pairs)
        for st in t.steps:
            a, b = own(st.edge)
            assert (st.selected, st.partner) in ((a, b), (b, a))
            assert st.selected is a or st.selected is b
            assert st.partner is a or st.partner is b
            assert st.mode is MODE_DEGREE or st.mode is MODE_FREE
        # The replay keeps no edges of its own: each edge's death step.
        assert all(t.replay.died[g.edge_id[r]] == st.index for st in t.steps for r in st.removed)

    def test_trace_records_carry_no_instance_dict(self):
        g = random_graph(3)
        t = run_algorithm("mingreedy", g, FirstPolicy())
        loaded = load_trace(save_trace(t), g)
        for rec in (*t.steps, *loaded.steps, loaded.replay):
            assert not hasattr(rec, "__dict__")
        st = loaded.steps[0]
        assert replace(st) == st and hash(replace(st)) == hash(st)
        assert replace(st, sel_degree=9).sel_degree == 9

    def test_corrupted_removed_edges_rejected(self):
        g = P3()
        t = run_algorithm("mingreedy", g, FirstPolicy())
        text = save_trace(t).replace("r 1 2\n", "")
        with pytest.raises(Exception, match="replay|mismatch"):
            load_trace(text, g)

    def test_steps_sharing_a_node_are_a_format_error(self):
        # Both steps pick node 1, so the picks are no matching.
        text = "s 0 0 1 1 degree_rule\nr 0 1\ns 1 1 1 2 degree_rule\nr 1 2\n"
        with pytest.raises(GraphFormatError, match="does not replay: .*node-disjoint"):
            load_trace(text, P3())

    def test_removed_edge_outside_the_graph_is_a_format_error(self):
        with pytest.raises(GraphFormatError, match="step 1: removed-edge list mismatch"):
            load_trace("s 1 0 3 1 degree_rule\nr 0 4\n", K4())

    def test_renumbered_steps_are_a_format_error(self):
        # The ledger reads step i at position i, so a step must carry its
        # 1-based position as its index.
        g = random_graph(3)
        text = save_trace(run_algorithm("one_two_mingreedy", g, RandomPolicy(3)))
        shifted = re.sub(r"^s (\d+)", lambda m: f"s {int(m.group(1)) + 5}", text, flags=re.M)
        with pytest.raises(GraphFormatError,
                           match="does not replay: step 6: index is not its position 1"):
            load_trace(shifted, g)


@pytest.mark.parametrize("algo", ["mingreedy", "one_two_mingreedy", "karpsipser", "greedy", "mrg"])
def test_replayed_degrees_match_a_recount(algo):
    # Every replayed step against degrees counted afresh from the alive
    # edges before and after it.
    for seed in range(30):
        g = random_graph(seed, n_max=14, delta=5)
        for policy in (FirstPolicy(), RandomPolicy(seed)):
            trace = load_trace(save_trace(run_algorithm(algo, g, policy)), g)
            rep = trace.replay
            alive = set(g.edges)
            for rec in trace.steps:
                s = rec.index
                before = degrees(alive, g.n)
                killed = {e for e in alive if rec.selected in e or rec.partner in e}
                assert set(rec.removed) == killed
                alive -= killed
                after = degrees(alive, g.n)
                assert rep.min_before[s - 1] == min(d for d in before if d)
                # Every node, touched by the step or not.
                assert [rep.deg_before(s, x) for x in range(g.n)] == before
                assert [rep.deg_after(s, x) for x in range(g.n)] == after
            assert len(rep.min_before) == len(trace.steps)
            assert not alive


class TestWorstCase:
    def test_c6_free_variant(self):
        size, witness = worst_case_size(C6(), "one_two_mingreedy")
        assert size == 3
        witness.verify_replay()

    def test_p4_mingreedy(self):
        size, witness = worst_case_size(P4(), "mingreedy")
        assert size == 2
        assert len(witness.result) == 2

    def test_witness_achieves_minimum(self):
        for seed in range(40):
            g = random_graph(seed, n_max=9, delta=3)
            if g.m == 0:
                continue
            size, witness = worst_case_size(g, "one_two_mingreedy")
            assert len(witness.result) == size

    def test_free_variant_never_beats_mingreedy_downward(self):
        # Every plain run is reachable by the free variant, so its worst
        # case can only be lower or equal.
        for seed in range(40):
            g = random_graph(seed, n_max=9, delta=3)
            if g.m == 0:
                continue
            free, _ = worst_case_size(g, "one_two_mingreedy")
            plain, _ = worst_case_size(g, "mingreedy")
            assert free <= plain

    def test_budget_exceeded(self):
        g = random_graph(1, n_max=10)
        with pytest.raises(SearchBudgetExceededError):
            worst_case_size(g, "one_two_mingreedy", budget=1)


# The search's work, pinned: per rule and per ``search_graph(seed)``, the
# number of states the search expands (the smallest budget that succeeds)
# and the bound it reports at half that budget.  A faster search must expand
# the same states, so both stay fixed.
SEARCH_WORK = {
    "mingreedy": [
        (58, 4), (7, 2), (4, None), (5, 2), (3, None), (13, None), (95, None),
        (4, None), (7, 2), (4, None), (26, None), (17, 3), (10, None), (13, 3), (5, 2),
        (2, None), (6, None), (66, 4), (2, None), (16, 4), (25, 4), (7, 2), (2, None),
        (38, 5), (45, 4), (12, None), (13, None), (9, None), (3, None), (13, None),
        (19, 4), (5, 2), (1, None), (49, 4), (47, 4), (14, None), (19, 3), (45, None),
        (30, None), (3, None),
    ],
    "one_two_mingreedy": [
        (96, 4), (10, 2), (4, None), (5, 2), (3, None), (13, None), (340, 4),
        (4, None), (10, 2), (4, None), (26, None), (52, 3), (10, None), (13, 3),
        (5, 2), (2, None), (6, None), (66, 4), (2, None), (16, 4), (196, 4), (10, 2),
        (2, None), (138, 4), (74, 4), (12, None), (13, None), (9, None), (3, None),
        (13, None), (19, 4), (5, 2), (1, None), (49, 4), (70, 4), (14, None), (19, 3),
        (62, None), (30, None), (3, None),
    ],
    "karpsipser": [
        (241, 4), (10, 2), (4, None), (8, 2), (3, None), (18, None), (397, 4),
        (4, None), (10, 2), (9, None), (43, 3), (53, 3), (10, None), (16, 2), (5, 2),
        (2, None), (6, None), (91, 3), (2, None), (46, 4), (209, 4), (10, 2),
        (2, None), (270, 4), (145, 3), (27, 3), (28, None), (35, None), (3, None),
        (17, None), (67, 3), (5, 2), (1, None), (54, 3), (85, 3), (66, 3), (19, 3),
        (145, 3), (117, 3), (8, 2),
    ],
    "greedy": [
        (270, 4), (10, 2), (15, 2), (8, 2), (5, 2), (48, 3), (397, 4), (11, 2),
        (10, 2), (26, 3), (53, 3), (53, 3), (33, 2), (16, 2), (5, 2), (5, 2), (15, 2),
        (91, 3), (7, 2), (82, 3), (209, 4), (10, 2), (3, None), (281, 4), (148, 3),
        (32, 3), (77, 3), (102, 3), (3, None), (47, 3), (73, 3), (5, 2), (1, None),
        (63, 3), (85, 3), (67, 3), (19, 3), (159, 3), (127, 3), (8, 2),
    ],
    "mrg": [
        (270, 4), (10, 2), (15, 2), (8, 2), (5, 2), (48, 3), (397, 4), (11, 2),
        (10, 2), (26, 3), (53, 3), (53, 3), (33, 2), (16, 2), (5, 2), (5, 2), (15, 2),
        (91, 3), (7, 2), (82, 3), (209, 4), (10, 2), (3, None), (281, 4), (148, 3),
        (32, 3), (77, 3), (102, 3), (3, None), (47, 3), (73, 3), (5, 2), (1, None),
        (63, 3), (85, 3), (67, 3), (19, 3), (159, 3), (127, 3), (8, 2),
    ],
}


def search_graph(seed):
    import random
    rng = random.Random(seed)
    return gen_random_bounded(rng.randint(4, 10), rng.randint(3, 5), rng.uniform(0.4, 0.9), seed)


def smallest_budget(g, algo):
    lo, hi = 0, 1
    while True:
        try:
            worst_case_size(g, algo, budget=hi)
            break
        except SearchBudgetExceededError:
            lo, hi = hi, hi * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            worst_case_size(g, algo, budget=mid)
            hi = mid
        except SearchBudgetExceededError:
            lo = mid
    return hi


@pytest.mark.parametrize("algo", list(RULES))
def test_search_expands_the_pinned_states(algo):
    got = []
    for seed in range(40):
        g = search_graph(seed)
        spent = smallest_budget(g, algo)
        with pytest.raises(SearchBudgetExceededError) as info:
            worst_case_size(g, algo, budget=spent // 2)
        got.append((spent, info.value.bound))
    assert got == SEARCH_WORK[algo]


@pytest.mark.parametrize("algo", list(RULES))
def test_search_size_and_witness_match_the_enumeration(algo):
    import random
    for seed in range(60):
        rng = random.Random(seed)
        g = gen_random_bounded(rng.randint(0, 7), rng.randint(2, 4), rng.uniform(0.3, 0.9), seed)
        runs = list(iter_all_pick_sequences(g, algo, limit=100_000))
        size, witness = worst_case_size(g, algo)
        assert size == min(len(p) for p in runs)
        assert [st.edge for st in witness.steps] in runs


def _counting_replays(monkeypatch):
    """Count the calls into trace_from_picks, the witness's one replay."""
    calls = []

    def counting(g, picks, algo):
        calls.append(algo)
        return trace_from_picks(g, picks, algo)

    monkeypatch.setattr(matchers, "trace_from_picks", counting)
    return calls


@pytest.mark.parametrize("algo", list(RULES))
def test_unread_witness_is_never_replayed(algo, monkeypatch):
    calls = _counting_replays(monkeypatch)
    for seed in range(40):
        size, witness = worst_case_size(search_graph(seed), algo)
        assert isinstance(witness, RunTrace)
    assert calls == []


@pytest.mark.parametrize("algo", list(RULES))
def test_read_witness_is_replayed_once(algo, monkeypatch):
    calls = _counting_replays(monkeypatch)
    for seed in range(40):
        g = search_graph(seed)
        size, witness = worst_case_size(g, algo)
        calls.clear()
        assert len(witness.result) == size
        picks = [st.edge for st in witness.steps]
        witness.verify_replay()
        assert len(witness.replay.min_before) == size
        text = save_trace(witness)
        assert calls == [algo]
        eager = trace_from_picks(g, picks, algo)
        assert text == save_trace(eager)
        assert witness == eager and eager == witness


def test_witness_that_is_not_a_run_raises_on_first_read():
    # A witness is only ever built from the search's own picks; one that is
    # not a run of its rule raises when it is read, not when it is made.
    witness = matchers._PickedTrace(P4(), [(1, 2)], "mingreedy")
    with pytest.raises(PolicyError):
        witness.steps


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(["mingreedy", "one_two_mingreedy", "karpsipser", "greedy", "mrg"]),
)
def test_runs_produce_maximal_matchings(seed, algo):
    g = random_graph(seed)
    t = run_algorithm(algo, g, RandomPolicy(seed))
    t.verify_replay()  # also checks no alive edge remains
    covered = {x for e in t.result.pairs for x in e}
    for u, v in g.edges:
        assert u in covered or v in covered, "matching is not maximal"
