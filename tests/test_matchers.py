import pytest
from hypothesis import given, settings, strategies as st

from matchforge.graphs import Graph, GraphFormatError, gen_random_bounded
from matchforge.matchers import (
    FirstPolicy,
    PolicyError,
    RandomPolicy,
    ScriptedPolicy,
    SearchBudgetExceededError,
    iter_all_pick_sequences,
    load_trace,
    run_algorithm,
    run_greedy,
    run_karp_sipser,
    run_min_greedy,
    run_mrg,
    run_one_two_min_greedy,
    run_shuffle,
    save_trace,
    script_from_picks,
    trace_from_picks,
    worst_case_size,
)


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
        t = run_min_greedy(P3(), FirstPolicy())
        assert t.result.pairs == {(0, 1)}

    def test_c4_first(self):
        t = run_min_greedy(C4(), FirstPolicy())
        assert t.result.pairs == {(0, 1), (2, 3)}

    def test_c6_every_choice_path_yields_three(self):
        # Exhaustive DFS over the whole policy tree.
        sizes = {len(p) for p in iter_all_pick_sequences(C6(), "mingreedy")}
        assert sizes == {3}

    def test_trace_records_degrees_and_mode(self):
        t = run_min_greedy(P3(), FirstPolicy())
        (step,) = t.steps
        assert step.selected == 0 and step.sel_degree == 1 and step.partner == 1
        assert step.mode == "degree_rule"
        assert step.removed == ((0, 1), (1, 2))


class TestOneTwoMinGreedy:
    def test_p3_same_as_mingreedy(self):
        assert (run_one_two_min_greedy(P3(), FirstPolicy()).result.pairs
                == run_min_greedy(P3(), FirstPolicy()).result.pairs)

    def test_k4_scripted_first_edge(self):
        # All degrees are 3, so the first step picks a free edge by script.
        t = run_one_two_min_greedy(K4(), ScriptedPolicy([0, 0, 0]))
        assert t.result.pairs == {(0, 1), (2, 3)}
        assert t.steps[0].mode == "free_edge"
        assert t.steps[1].mode == "degree_rule"

    def test_any_mingreedy_trace_is_a_valid_free_variant_run(self):
        for seed in range(1000):
            g = random_graph(seed)
            if g.m == 0:
                continue
            mg = run_min_greedy(g, RandomPolicy(seed))
            picks = [st.edge for st in mg.steps]
            replay = run_one_two_min_greedy(
                g, script_from_picks(g, picks, "one_two_mingreedy")
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
        assert run_karp_sipser(P3(), FirstPolicy()).result.pairs == {(0, 1)}

    def test_greedy_triangle(self):
        tri = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        t = run_greedy(tri, FirstPolicy())
        assert len(t.result) == 1

    def test_mrg_runs(self):
        t = run_mrg(C6(), FirstPolicy())
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
        a = run_min_greedy(g, RandomPolicy(5))
        b = run_min_greedy(g, RandomPolicy(5))
        assert a == b

    def test_scripted_step_tagging(self):
        t = run_min_greedy(P3(), ScriptedPolicy([(1, 0), (1, 0)]))
        assert t.result.pairs == {(0, 1)}

    def test_scripted_out_of_range(self):
        with pytest.raises(PolicyError, match="out of range"):
            run_min_greedy(P3(), ScriptedPolicy([9, 0]))

    def test_scripted_leftover_rejected(self):
        with pytest.raises(PolicyError, match="unconsumed"):
            run_min_greedy(P3(), ScriptedPolicy([0, 0, 0]))

    def test_scripted_underflow_rejected(self):
        with pytest.raises(PolicyError, match="exhausted"):
            run_min_greedy(C4(), ScriptedPolicy([0, 0]))


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
        t = run_karp_sipser(g, RandomPolicy(2))
        assert load_trace(save_trace(t), g) == t

    def test_replay_is_cached_by_readers_not_runners(self):
        g = random_graph(3)
        t = run_min_greedy(g, FirstPolicy())
        assert "replay" not in vars(t)
        loaded = load_trace(save_trace(t), g)
        assert loaded.replay is loaded.replay
        assert [st.min_before for st in loaded.replay][0] == min(
            g.degree(v) for v in range(g.n) if g.degree(v))

    def test_corrupted_removed_edges_rejected(self):
        g = P3()
        t = run_min_greedy(g, FirstPolicy())
        text = save_trace(t).replace("r 1 2\n", "")
        with pytest.raises(Exception, match="replay|mismatch"):
            load_trace(text, g)

    def test_steps_sharing_a_node_are_a_format_error(self):
        # Both steps pick node 1, so the picks are no matching.
        text = "s 0 0 1 1 degree_rule\nr 0 1\ns 1 1 1 2 degree_rule\nr 1 2\n"
        with pytest.raises(GraphFormatError, match="does not replay: .*node-disjoint"):
            load_trace(text, P3())

    def test_removed_edge_outside_the_graph_is_a_format_error(self):
        with pytest.raises(GraphFormatError, match="step 0: removed-edge list mismatch"):
            load_trace("s 0 0 3 1 degree_rule\nr 0 4\n", K4())


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


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(["mingreedy", "one_two_mingreedy", "karpsipser", "greedy", "mrg"]),
)
def test_runs_produce_maximal_matchings(seed, algo):
    g = random_graph(seed)
    t = run_algorithm(algo, g, RandomPolicy(seed))
    t.verify_replay()  # also checks no alive edge remains
    covered = t.result.nodes
    for u, v in g.edges:
        assert u in covered or v in covered, "matching is not maximal"
