import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import matchforge
from matchforge import adversary
from matchforge.adversary import (
    CATCH_ALL,
    ENCODINGS,
    AdversaryB,
    AdversaryBPrime,
    GameError,
    Pattern,
    RuleEncoding,
    ShuffleEncoding,
    TruthfulAdversary,
    encode_priority,
    game_files,
    make_adversary,
    play_game,
    save_moves,
    _AdversaryBase,
    _filler_parts,
)
from matchforge.graphs import MAX_NODES, Graph, gen_random_bounded
from matchforge.matchers import (
    MIN_FORCED,
    MIN_NODE,
    RULES,
    FirstPolicy,
    PolicyError,
    run_algorithm,
    run_shuffle,
    trace_from_picks,
    worst_case_size,
)
from matchforge.optimum import maximum_matching


def check_type_invariant(adv: AdversaryB) -> None:
    """During construction every non-isolated node's list is one of:
    all-unknown of degree 3..delta, all-unknown of degree 2, or length 3
    with exactly one known (matched) neighbor."""
    if adv.sealed:
        return
    for v in adv.adj:
        if v in adv.matched:
            continue
        total, unmatched, known = adv._count_key(v)
        if not unmatched:
            continue
        own_known = v in adv.known
        type1 = not own_known and known == 0 and 3 <= total == unmatched <= adv.delta
        type2 = not own_known and known == 0 and total == unmatched == 2
        type3 = not own_known and total == 3 and unmatched == 2 and known == 1
        if not (type1 or type2 or type3):
            raise GameError(f"node {v} with counts {(total, unmatched, known)} "
                            f"matches no list type")


def game_ratio(algo, adversary):
    result = play_game(algo, adversary)
    opt = len(maximum_matching(result.graph))
    return result, opt, Fraction(len(result.matching), opt)


def P3():
    return Graph.from_edges(3, [(0, 1), (1, 2)])


class Explorer(RuleEncoding):
    """Prefers lists with one known neighbor, which makes a constructor
    extend a frontier."""

    def query(self):
        return [
            Pattern(total=3, unmatched=2, known=1),
            Pattern(unmatched=2),
            Pattern(unmatched_min=1),
        ]


class TestAdversaryB:
    def test_tight_ratio_ladder(self):
        for algo in ("mingreedy", "one_two_mingreedy"):
            for delta in (*range(3, 9), 100, 1000):
                result, opt, ratio = game_ratio(algo, AdversaryB(delta))
                assert result.graph.n == 4 * delta - 6, (algo, delta)
                assert len(result.matching) == delta - 1, (algo, delta)
                assert opt == 2 * delta - 3, (algo, delta)
                assert ratio == Fraction(delta - 1, 2 * delta - 3), (algo, delta)

    def test_delta3_core(self):
        result, opt, _ = game_ratio("mingreedy", AdversaryB(3))
        assert result.graph.n == 6 and result.graph.m == 7
        assert opt == 3 and len(result.matching) == 2
        assert result.graph.delta <= 3

    def test_delta5_counts(self):
        result, opt, _ = game_ratio("mingreedy", AdversaryB(5))
        assert len(result.matching) == 4 and opt == 7

    def test_karpsipser_delta4(self):
        _, _, ratio = game_ratio("karpsipser", AdversaryB(4))
        assert ratio == Fraction(3, 5)

    def test_greedy_and_mrg_hit_the_bound(self):
        for algo in ("greedy", "mrg"):
            for delta in (3, 4, 6):
                _, _, ratio = game_ratio(algo, AdversaryB(delta))
                assert ratio <= Fraction(delta - 1, 2 * delta - 3)

    def test_emitted_graph_standalone_worst_case(self):
        # Replaying the forced picks standalone is a valid degree-rule run,
        # and the exhaustive worst case can only be at most the game value.
        result, opt, _ = game_ratio("mingreedy", AdversaryB(3))
        picks = list(result.picks)
        standalone = trace_from_picks(result.graph, picks, "mingreedy")
        assert standalone.result.pairs == result.matching.pairs
        size, _ = worst_case_size(result.graph, "mingreedy")
        assert size <= len(result.matching)
        assert size == 2  # the core is tight even standalone

    @pytest.mark.parametrize("delta", range(3, 9))
    def test_search_meets_the_bound_on_the_final_graph(self, delta):
        # The search and the adversary check each other: on the graph the
        # game builds, no choice sequence does worse than delta - 1 pairs,
        # against an optimum of 2 delta - 3.
        g = play_game("mingreedy", AdversaryB(delta)).graph
        assert len(maximum_matching(g)) == 2 * delta - 3
        for algo in ("mingreedy", "one_two_mingreedy"):
            size, witness = worst_case_size(g, algo)
            assert size == delta - 1, algo
            assert len(witness.result) == delta - 1, algo
            witness.verify_replay()

    def test_type_invariant_during_regular_game(self):
        class Watcher(AdversaryB):
            def observe_match(self, u, v):
                super().observe_match(u, v)
                check_type_invariant(self)

        for delta in (4, 5, 6):
            adv = Watcher(delta)
            result = play_game("mingreedy", adv)
            assert result.graph.delta <= delta

    def test_case3_frontier_edge(self):
        # The explorer triggers the frontier-extension response and its
        # extra edge.
        adv = AdversaryB(5)
        result = play_game(Explorer("mingreedy"), adv)
        opt = len(maximum_matching(result.graph))
        assert Fraction(len(result.matching), opt) == Fraction(4, 7)
        # Two triangles whose middles are 6 and 10; the second triangle's
        # middle must also hook onto the first frontier.
        transcript = "\n".join(result.transcript)
        assert "build" in transcript
        frontier_edges = [
            e for e in result.graph.edges
            if e in {(7, 10), (8, 10)}  # middle of triangle 2 to frontier of 1
        ]
        assert frontier_edges, "frontier extension edge missing"

    def test_unsupported_partner_rule_detected(self):
        class SecondPicker(encode_priority("mingreedy").__class__):
            def pick_partner(self, item):
                cands = [w for w in item.neighbors if w not in self.matched]
                return cands[-1] if len(cands) > 1 else cands[0]

        # Picking the last candidate still works for triangles (relabeling)
        # but must be rejected cleanly if it hits an endgame list.
        adv = AdversaryB(3)
        with pytest.raises(GameError, match="partner"):
            play_game(SecondPicker("mingreedy"), adv)

    def test_non_total_patterns_rejected(self):
        class DegOneOnly(encode_priority("mingreedy").__class__):
            def query(self):
                return [Pattern(unmatched=1)]

        with pytest.raises(GameError, match="not total"):
            play_game(DegOneOnly("mingreedy"), AdversaryB(4))

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            AdversaryB(2)

    def test_node_bound(self):
        # 4 delta - 6 nodes: at the bound nothing is built yet; one past it
        # is refused outright.
        delta = (MAX_NODES + 6) // 4
        adv = AdversaryB(delta)
        assert adv.n_created == 0 and not adv.adj
        with pytest.raises(ValueError) as got:
            AdversaryB(delta + 1)
        assert str(got.value) == (f"4*delta - 6 = {4 * (delta + 1) - 6} nodes exceed the bound "
                                  f"of {MAX_NODES}")


def _fresh_degree_loop(pat, delta):
    """The least d in 3..delta with pat.matches(d, d, 0), by trying each d."""
    for d in range(3, delta + 1):
        if pat.matches(d, d, 0):
            return d
    return None


def test_fresh_degree_matches_the_loop():
    compared = 0
    for delta in range(3, 9):
        adv = AdversaryB(delta)
        values = (None, *range(delta + 3))
        for fields in product(values, repeat=4):
            for node in (None, 0):
                pat = Pattern(*fields, node=node)
                assert adv._fresh_degree(pat) == _fresh_degree_loop(pat, delta), (delta, pat)
                compared += 1
    assert compared == 2 * sum((delta + 4) ** 4 for delta in range(3, 9))


def test_node_bounds_are_checked_before_allocating():
    # A refused degree must not first size the per-count heaps by it.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceed the bound"):
            AdversaryB(MAX_NODES)
        with pytest.raises(ValueError, match="exceed the bound"):
            AdversaryBPrime(MAX_NODES, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


class TestAdversaryBPrime:
    def test_announced_node_count_exact(self):
        for t in (7, 20):
            result, opt, _ = game_ratio("mingreedy", AdversaryBPrime(3, t))
            assert result.graph.n == 3 * t

    def test_ratio_decreases_towards_two_thirds(self):
        prev = None
        for t in (20, 50, 100, 200):
            _, _, ratio = game_ratio("mingreedy", AdversaryBPrime(3, t))
            excess = ratio - Fraction(2, 3)
            assert excess >= 0
            if prev is not None:
                assert excess <= prev
            prev = excess
        assert prev <= Fraction(1, 50)

    def test_delta4_many_components(self):
        result, opt, ratio = game_ratio("mingreedy", AdversaryBPrime(4, 15))
        assert result.graph.n == 60
        assert ratio <= Fraction(3, 5) + Fraction(1, 5)
        assert result.graph.delta <= 4

    def test_karpsipser_stays_below_bound(self):
        _, _, ratio = game_ratio("karpsipser", AdversaryBPrime(3, 20))
        assert ratio <= Fraction(2, 3) + Fraction(1, 10)

    def test_t_validation(self):
        with pytest.raises(ValueError):
            AdversaryBPrime(3, 6)

    def test_announced_node_bound(self):
        # At the bound nothing is built yet; one past it is refused outright.
        adv = AdversaryBPrime(4, MAX_NODES // 4)
        assert adv.n_created == 0 and not adv.adj
        with pytest.raises(ValueError, match="exceed the bound"):
            AdversaryBPrime(4, MAX_NODES // 4 + 1)

    @pytest.mark.parametrize("algo", ["shuffle", "vertex_iterative"])
    def test_node_order_encodings_are_not_total(self, algo):
        # Node-id patterns name nodes the constructor has not built yet, so
        # nothing can be served while nothing is committed.
        with pytest.raises(GameError, match="not total"):
            play_game(algo, AdversaryBPrime(3, 7))

    def test_filler_parts(self):
        # Reachable leftover budgets: a construction round adds at most
        # max(center + triangle, one fan-out component) nodes, so sealing
        # happens within that margin below 6 * delta.
        for delta in (3, 4, 5):
            max_round = 6 if delta == 3 else max(10, delta + 1)
            for total in range(6 * delta - max_round + 1, 6 * delta + 1):
                parts = _filler_parts(total, delta)
                assert sum(parts) == total
                assert all(4 <= p <= delta + 2 for p in parts)

    def test_filler_parts_match_the_table(self):
        # The split is the one a table of fewest-part splits gives, and a
        # total the table cannot split raises the same error.
        compared = 0
        for delta in range(3, 81):
            lo, hi = 4, delta + 2
            table = _filler_table(8 * delta, lo, hi)
            for total in range(8 * delta + 1):
                if total in table:
                    assert _filler_parts(total, delta) == table[total], (delta, total)
                else:
                    with pytest.raises(GameError) as got:
                        _filler_parts(total, delta)
                    assert str(got.value) == (f"cannot split {total} nodes into "
                                              f"fillers of size {lo}..{hi}")
                compared += 1
        assert compared == 25_974

    def test_mingreedy_at_delta_200(self):
        delta = 200
        result, _, ratio = game_ratio("mingreedy", AdversaryBPrime(delta, 7))
        assert result.graph.n == 7 * delta
        assert result.graph.delta <= delta
        assert ratio >= Fraction(delta - 1, 2 * delta - 3)


def _filler_table(up_to, lo, hi):
    """The fewest-part split of each total 0..up_to into sizes lo..hi,
    larger parts first, by total; a total with no split is absent."""
    best = {0: []}
    for v in range(1, up_to + 1):
        cand = None
        for p in range(hi, lo - 1, -1):
            if v - p in best:
                trial = best[v - p] + [p]
                if cand is None or len(trial) < len(cand):
                    cand = trial
        if cand is not None:
            best[v] = cand
    return {v: sorted(parts, reverse=True) for v, parts in best.items()}


class TestEncodings:
    def test_mingreedy_on_p3(self):
        result = play_game("mingreedy", TruthfulAdversary(P3()))
        direct = run_algorithm("mingreedy", P3(), FirstPolicy())
        assert result.matching.pairs == direct.result.pairs

    def test_karpsipser_on_p3(self):
        result = play_game("karpsipser", TruthfulAdversary(P3()))
        assert result.matching.pairs == {(0, 1)}

    def test_encodings_match_direct_runs(self):
        for seed in range(200):
            rng = random.Random(seed)
            g = gen_random_bounded(rng.randint(2, 12), rng.randint(1, 5),
                                   rng.uniform(0.2, 0.9), seed)
            for algo in RULES:
                res = play_game(algo, TruthfulAdversary(g))
                direct = run_algorithm(algo, g, FirstPolicy())
                assert res.matching.pairs == direct.result.pairs, (seed, algo)

    def test_shuffle_encoding_matches_direct(self):
        for seed in range(60):
            rng = random.Random(seed)
            g = gen_random_bounded(rng.randint(2, 10), 4, 0.6, seed)
            perm = list(range(g.n))
            rng.shuffle(perm)
            res = play_game(ShuffleEncoding(perm), TruthfulAdversary(g))
            assert res.matching.pairs == run_shuffle(g, perm).result.pairs

    def test_shuffle_encoding_replays_across_sizes(self):
        # One seeded encoding draws a fresh order for each game, so a second
        # game on a larger graph plays exactly as a fresh encoding would.
        p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        enc = ShuffleEncoding(seed=3)
        play_game(enc, TruthfulAdversary(P3()))
        again = play_game(enc, TruthfulAdversary(p4))
        fresh = play_game(ShuffleEncoding(seed=3), TruthfulAdversary(p4))
        assert again.transcript == fresh.transcript
        assert again.matching.pairs == fresh.matching.pairs

    def test_vertex_iterative_runs(self):
        res = play_game("vertex_iterative", TruthfulAdversary(P3()))
        assert res.matching.pairs == {(0, 1)}

    def test_shuffle_needs_node_count(self):
        with pytest.raises(PolicyError):
            play_game(ShuffleEncoding(seed=1), AdversaryB(3))

    def test_unknown_encoding(self):
        with pytest.raises(PolicyError):
            encode_priority("nope")

    def test_rule_rankings_match_the_loop(self, monkeypatch):
        # From an empty ladder, the caps grow it, take a shorter prefix, grow
        # it again and take the unannounced default of 64.
        monkeypatch.setattr(adversary, "_DEGREE_LADDER", ())
        for algo, rule in RULES.items():
            enc = RuleEncoding(algo)
            for cap in (50, 200, 10, 1199, None):
                enc.start(None if cap is None else cap + 1)
                assert enc.patterns == _ranking_loop(rule, cap or 64), (algo, cap)
        assert len(adversary._DEGREE_LADDER) == 1199

    def test_encodings_share_their_patterns(self):
        a, b = RuleEncoding("mingreedy"), RuleEncoding("one_two_mingreedy")
        a.start(301)
        b.start(31)
        assert len(b.patterns) == 3
        assert all(x is y for x, y in zip(a.patterns, b.patterns[:-1]))
        assert b.patterns[-1] is CATCH_ALL
        assert a.patterns[7].describe() is a.patterns[7].describe() == "deg=8"


def _ranking_loop(rule, cap):
    """A rule's ranking built pattern by pattern: deg=d while the rule takes
    a minimum-degree node at d, for d up to cap, then CATCH_ALL."""
    patterns = []
    for d in range(1, cap + 1):
        if rule(d) not in (MIN_NODE, MIN_FORCED):
            break
        patterns.append(Pattern(unmatched=d))
    patterns.append(CATCH_ALL)
    return tuple(patterns)


def _recount(adv, v):
    """Node v's (total, unmatched, known) counts recomputed from the state."""
    nbrs = adv.adj[v]
    return (len(nbrs), sum(1 for w in nbrs if w not in adv.matched),
            sum(1 for w in nbrs if w in adv.known))


def _scan_first_live(adv, pat):
    """The lowest-id live node matching pat, by a scan of every node."""
    for v in adv.adj:
        if v in adv.matched:
            continue
        total, unmatched, known = _recount(adv, v)
        if unmatched and pat.matches(total, unmatched, known, node=v):
            return v
    return None


# Patterns beyond the encodings' own: on the known and total counts, on
# several counts at once, on node ids, and on a node id no game here builds.
PROBES = (Pattern(known=0), Pattern(known=1), Pattern(total=2), Pattern(total=3),
          Pattern(total=3, unmatched=2, known=1), Pattern(unmatched_min=2, known=1),
          Pattern(node=0), Pattern(node=5, unmatched=1), Pattern(node=10**6))


def _checked(cls):
    """cls with its maintained counts and live-node answers compared, every
    round, with a recount and a scan of every node."""

    class Checked(cls):
        rounds_checked = 0

        def _check_counts(self):
            for v in self.adj:
                assert self._count_key(v) == _recount(self, v), v

        def _first_live(self, pat):
            got = super()._first_live(pat)
            assert got == _scan_first_live(self, pat), (pat, got)
            return got

        def respond(self, patterns):
            self._check_counts()
            for pat in (*patterns, CATCH_ALL, *PROBES):
                self._first_live(pat)
            self.rounds_checked += 1
            return super().respond(patterns)

        def observe_match(self, u, v):
            super().observe_match(u, v)
            self._check_counts()

    return Checked


class TestLiveIndex:
    def test_truthful_games(self):
        for seed in range(40):
            rng = random.Random(seed)
            g = gen_random_bounded(rng.randint(2, 14), rng.randint(3, 5),
                                   rng.uniform(0.2, 0.9), seed)
            for algo in ENCODINGS:
                adv = _checked(TruthfulAdversary)(g)
                result = play_game(algo, adv)
                assert adv.rounds_checked == len(result.picks), (seed, algo)

    def test_adversary_b(self):
        for delta in range(3, 7):
            for algo in RULES:
                adv = _checked(AdversaryB)(delta)
                play_game(algo, adv)
                assert adv.rounds_checked > 0

    def test_adversary_bprime(self):
        for delta in (3, 4, 5):
            for t in (7, 12, 20):
                for algo in RULES:
                    adv = _checked(AdversaryBPrime)(delta, t)
                    result = play_game(algo, adv)
                    assert result.graph.n == delta * t

    def test_explorer(self):
        adv = _checked(AdversaryB)(5)
        result = play_game(Explorer("mingreedy"), adv)
        assert adv.rounds_checked == len(result.picks)


class TestLiveFiling:
    def test_reveal_pushes_no_heap_entry(self, monkeypatch):
        # A reveal moves only known counts, and no heap is keyed by those.
        adv = TruthfulAdversary(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))
        pushes = []
        push = adversary.heappush
        monkeypatch.setattr(adversary, "heappush",
                            lambda heap, v: (pushes.append(v), push(heap, v)))
        known_before = set(adv.known)
        adv._serve(1, sorted(adv.adj[1]))
        assert adv.known > known_before
        assert pushes == []

    def test_count_that_returns_is_filed_again(self):
        # Node x's unmatched count goes 2 -> 1 (a neighbor is matched) -> 2
        # (a new edge); each answer must agree with a scan of every node.
        adv = _AdversaryBase(3)
        x, a, b, c, d = adv._alloc(5)
        adv._add_edges([(x, a), (x, b), (a, c)])
        probes = (*PROBES, CATCH_ALL, Pattern(unmatched=1), Pattern(unmatched=2))

        def agree():
            for pat in probes:
                assert adv._first_live(pat) == _scan_first_live(adv, pat), pat

        agree()
        adv.observe_match(a, c)
        assert adv._n_unmatched[x] == 1
        agree()
        adv._add_edges([(x, d)])
        assert adv._n_unmatched[x] == 2
        agree()
        assert adv._first_live(Pattern(unmatched=2)) == x


def K3():
    return Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])


class TestServedListChecks:
    def test_truncated_list_is_a_game_error(self):
        class TruncatingAdversary(TruthfulAdversary):
            def _serve(self, node, neighbors):
                return super()._serve(node, neighbors[:-1])

        with pytest.raises(GameError, match="full final list"):
            play_game("mingreedy", TruncatingAdversary(K3()))

    def test_truncated_list_is_caught_under_optimize(self):
        # python -O strips asserts; the served-list check must survive it.
        script = textwrap.dedent("""
            from matchforge.adversary import GameError, TruthfulAdversary, play_game
            from matchforge.graphs import Graph

            class TruncatingAdversary(TruthfulAdversary):
                def _serve(self, node, neighbors):
                    return super()._serve(node, neighbors[:-1])

            g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
            try:
                play_game("mingreedy", TruncatingAdversary(g))
            except GameError as exc:
                print(f"error: {exc}")
        """)
        env = dict(os.environ)
        package_root = str(Path(matchforge.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "error: served list of node 0 is not its full final list" in proc.stdout


class TestEmittedArtifacts:
    def test_moves_roundtrip_and_replay(self):
        result, opt, _ = game_ratio("mingreedy", AdversaryB(5))
        assert save_moves(result) == "".join(f"p {u} {v}\n" for u, v in result.picks)
        standalone = trace_from_picks(result.graph, result.picks, "mingreedy")
        assert standalone.result.pairs == result.matching.pairs

    def test_make_adversary(self):
        assert isinstance(make_adversary("B", 3), AdversaryB)
        assert isinstance(make_adversary("Bprime", 3, 8), AdversaryBPrime)
        with pytest.raises(ValueError):
            make_adversary("Bprime", 3)
        with pytest.raises(ValueError):
            make_adversary("X", 3)

    def test_repeated_query_line_is_shared(self):
        # The 3t-1-pattern query is built once; every round holds that string.
        result = play_game("mingreedy", AdversaryBPrime(3, 20))
        lines = [line for line in result.transcript if line.startswith("q ")]
        assert len(lines) > 1 and all(line is lines[0] for line in lines)

    def test_transcript_records_moves(self):
        result, _, _ = game_ratio("mingreedy", AdversaryB(4))
        kinds = {line.split()[0] for line in result.transcript}
        assert {"q", "serve", "match", "build"} <= kinds

    def test_emit_hard_instance_files(self):
        from matchforge.graphs import load_graph

        result = play_game("mingreedy", make_adversary("B", 5))
        files = game_files(result)
        g = load_graph(files[".graph"])
        assert g.edge_set == result.graph.edge_set
        assert files[".moves"] == save_moves(result)
        standalone = trace_from_picks(g, result.picks, "mingreedy")
        assert standalone.result.pairs == result.matching.pairs
        assert len(maximum_matching(g)) == 7

    def test_emit_with_budget(self):
        result = play_game("mingreedy", make_adversary("Bprime", 3, 20))
        assert result.graph.n == 60
