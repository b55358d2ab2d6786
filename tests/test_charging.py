import csv
import io
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from matchforge.charging import (
    Report,
    TraceMismatchError,
    Transfer,
    build_ledger,
    target_ratio,
    theta,
    verify_all,
    verify_bounds,
    verify_lemma_predicates,
)
from matchforge.adversary import AdversaryBPrime, play_game
from matchforge.decomposition import Decomposition, canonicalize, decompose
from matchforge.graphs import Graph, gen_random_bounded, norm_edge
from matchforge.matchers import (
    FirstPolicy,
    RandomPolicy,
    ScriptedPolicy,
    load_trace,
    run_algorithm,
    save_trace,
    script_from_picks,
    trace_from_picks,
)
from matchforge.optimum import maximum_matching


def ledger_for(g, trace, delta=None):
    m_star = canonicalize(g, trace.result, maximum_matching(g))
    dec = decompose(g, trace.result, m_star)
    return build_ledger(trace, dec, delta or max(3, g.delta))


def game_ledger(delta, t):
    """The ledger of mingreedy's game against AdversaryBPrime(delta, t)."""
    result = play_game("mingreedy", AdversaryBPrime(delta, t))
    return ledger_for(result.graph, trace_from_picks(result.graph, result.picks, "mingreedy"))


class Counted:
    """Counts the walks over the collection it is mixed into."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


class CountedSet(Counted, frozenset):
    pass


class CountedList(Counted, list):
    pass


@pytest.fixture
def counted_endpoints(monkeypatch):
    """Decompositions hand out their endpoints as a CountedSet."""
    endpoints = Decomposition.endpoints.fget
    monkeypatch.setattr(Decomposition, "endpoints",
                        property(lambda dec: CountedSet(endpoints(dec))))


def random_ledger(seed, deltas=(3, 4, 5)):
    rng = random.Random(seed)
    delta = rng.choice(deltas)
    g = gen_random_bounded(rng.randint(4, 14), delta, rng.uniform(0.3, 0.9), seed)
    if g.m == 0:
        return None
    policy = [FirstPolicy(), RandomPolicy(seed)][seed % 2]
    trace = run_algorithm("one_two_mingreedy", g, policy)
    return ledger_for(g, trace, max(3, delta))


def test_theta_values():
    assert theta(3) == Fraction(1, 6)
    assert theta(4) == Fraction(1, 10)
    assert target_ratio(3) == Fraction(2, 3)
    assert target_ratio(8) == Fraction(7, 13)


def test_p3_empty_ledger():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    led = ledger_for(g, run_algorithm("mingreedy", g, FirstPolicy()))
    assert led.transfers == [] and led.donations == []
    rep = verify_bounds(led)
    assert rep.all_pass
    assert led.dec.global_ratio == 1


class TestThreeCreditCancellation:
    """An endpoint drawing three credits; the last one, arriving on the
    1 -> 0 degree drop, must be cancelled (degree bound 6)."""

    def build(self):
        edges = [
            (10, 11), (10, 12), (10, 13), (11, 13),
            (0, 6), (0, 1), (1, 2), (2, 3), (3, 9),
            (0, 12), (1, 12), (3, 12),
            (0, 4), (0, 5), (3, 7), (3, 8), (0, 2),
            (4, 5), (7, 8),
            (4, 6), (5, 6), (7, 9), (8, 9),
        ]
        g = Graph.from_edges(14, edges)
        assert g.delta == 6
        trace = run_algorithm("one_two_mingreedy", g, FirstPolicy())
        return g, trace, ledger_for(g, trace, 6)

    def test_third_credit_cancelled(self):
        _, _, led = self.build()
        cancelled = [t for t in led.transfers if t.cancelled]
        assert len(cancelled) == 1
        (t,) = cancelled
        assert t.endpoint == 12 and t.source == 3 and t.step == 3
        assert led.raw_credits[12] == 3
        assert led.credits[12] == 2

    def test_all_bounds_hold(self):
        _, _, led = self.build()
        assert verify_all(led).all_pass

    def test_no_donation_since_next_step_stays_in_path(self):
        _, _, led = self.build()
        assert led.donations == []


class TestDynamicDonation:
    """A free-mode creation paying two debits whose follow-up step selects a
    degree-1 singleton node in another component (degree bound 4)."""

    def build(self):
        g = Graph.from_edges(6, [(0, 1), (0, 2), (0, 4), (0, 5), (1, 2),
                                 (1, 4), (1, 5), (2, 3), (3, 4), (3, 5)])
        assert g.delta == 4
        trace = run_algorithm("one_two_mingreedy", g, FirstPolicy())
        return g, trace, ledger_for(g, trace, 4)

    def test_donation_recorded(self):
        _, _, led = self.build()
        (d,) = led.donations
        assert d.kind == "dynamic" and d.coins == 2
        assert d.source == 2 and d.recipient == 0

    def test_endpoint_classes(self):
        _, _, led = self.build()
        (info,) = [i for i in led.paths.values() if i.classes is not None]
        cls = info.classes
        assert cls.deg1_one_f == (4, 5)
        assert cls.deg1_two_f == () and cls.deg2 == ()
        assert len(cls.edges_to_adjacent) == 4

    def test_endpoint_classes_read_only_the_creation_step(self, counted_endpoints):
        _, _, led = self.build()
        assert led.endpoints.walks == 0

    def test_tight_singleton_balance(self):
        _, _, led = self.build()
        singleton = next(
            ci for ci, c in enumerate(led.dec.components) if c.kind == "singleton"
        )
        assert led.balance(singleton) == -4
        assert led.local_ratio(singleton) == target_ratio(4)
        assert verify_all(led).all_pass


class TestStaticDonation:
    """A degree-2 creation whose follow-up degree-1 node lives in another
    component: the donated amount is fixed by the degree bound.

    Frozen from a randomized run (degree bound 4): step 3 creates a path by
    selecting node 2 at degree 2, node 9 drops to degree 1 and is selected
    next inside another component, donating delta - 3 = 1 coin back.
    """

    def build(self):
        g = Graph.from_edges(14, [
            (0, 4), (0, 6), (0, 10), (0, 13), (1, 3), (1, 4), (1, 10),
            (1, 12), (2, 6), (2, 7), (2, 9), (2, 12), (3, 5), (3, 13),
            (4, 9), (4, 13), (5, 6), (5, 7), (5, 13), (6, 11), (7, 8),
            (8, 10), (8, 11), (8, 12), (9, 10), (9, 11), (11, 12),
        ])
        picks = [(0, 10), (8, 11), (2, 12), (4, 9), (5, 6), (1, 3)]
        trace = run_algorithm(
            "one_two_mingreedy", g, script_from_picks(g, picks, "one_two_mingreedy")
        )
        return g, trace, ledger_for(g, trace, 4)

    def test_static_donation(self):
        _, _, led = self.build()
        (d,) = [d for d in led.donations if d.kind == "static"]
        assert d.coins == led.delta - 3 == 1
        assert d.source == 9 and d.recipient == 2 and d.creation_step == 3
        assert verify_all(led).all_pass


class TestHardCoreWorstTrace:
    """The six-node core at degree bound 3: the worst adversarial run scores
    two of three, and every bound certifies that exact ratio."""

    def test_ledger_on_worst_trace(self):
        from matchforge.adversary import AdversaryB, play_game
        from matchforge.matchers import worst_case_size

        result = play_game("mingreedy", AdversaryB(3))
        g = result.graph
        size, witness = worst_case_size(g, "one_two_mingreedy")
        assert size == 2
        led = ledger_for(g, witness, 3)
        assert led.dec.global_ratio == Fraction(2, 3)
        assert verify_all(led).all_pass


class TestCorpusProperties:
    def test_random_runs_all_pass(self):
        for seed in range(800):
            led = random_ledger(seed)
            if led is None:
                continue
            rep = verify_all(led)
            assert rep.all_pass, rep.failures()

    def test_zero_sum_and_delta3_no_donations(self):
        for seed in range(300):
            led = random_ledger(seed)
            if led is None:
                continue
            assert sum(led.credits_in) == sum(led.debits_out)
            if led.delta == 3:
                assert led.donations == []

    def test_scripted_replays_verify_too(self):
        for seed in range(60):
            rng = random.Random(seed)
            g = gen_random_bounded(rng.randint(4, 12), 4, 0.6, seed)
            if g.m == 0:
                continue
            base = run_algorithm("one_two_mingreedy", g, RandomPolicy(seed))
            picks = [st.edge for st in base.steps]
            replay = run_algorithm(
                "one_two_mingreedy", g, script_from_picks(g, picks, "one_two_mingreedy")
            )
            assert verify_all(ledger_for(g, replay)).all_pass

    def test_implied_ratio_bound(self):
        for seed in range(300):
            led = random_ledger(seed)
            if led is None or not led.dec.m_star:
                continue
            assert led.dec.global_ratio >= target_ratio(led.delta)
            for ci in range(len(led.dec.components)):
                assert led.local_ratio(ci) >= target_ratio(led.delta)


class TestInputValidation:
    def test_non_heuristic_trace_rejected(self):
        # A greedy run that violates the minimum-degree rule.
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        trace = run_algorithm("greedy", g, ScriptedPolicy([1]))  # picks (1, 2), run ends
        m_star = canonicalize(g, trace.result, maximum_matching(g))
        dec = decompose(g, trace.result, m_star)
        with pytest.raises(TraceMismatchError, match="free step"):
            build_ledger(trace, dec, 3)

    def test_mismatched_decomposition_rejected(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        t1 = run_algorithm("mingreedy", g, FirstPolicy())
        t2 = run_algorithm("mingreedy", g, ScriptedPolicy([1, 0]))  # selects node 2
        m_star = canonicalize(g, t2.result, maximum_matching(g))
        dec = decompose(g, t2.result, m_star)
        with pytest.raises(TraceMismatchError, match="differs"):
            build_ledger(t1, dec, 3)

    def test_trace_on_another_graph_rejected(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        tri = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        t = run_algorithm("mingreedy", g, FirstPolicy())
        m_star = canonicalize(tri, t.result, maximum_matching(tri))
        dec = decompose(tri, t.result, m_star)
        with pytest.raises(TraceMismatchError, match="graph differs"):
            build_ledger(t, dec, 3)

    def test_stale_degree_rejected(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        t = run_algorithm("mingreedy", g, FirstPolicy())
        bad = replace(t, steps=(replace(t.steps[0], sel_degree=2),) + t.steps[1:])
        m_star = canonicalize(g, bad.result, maximum_matching(g))
        dec = decompose(g, bad.result, m_star)
        with pytest.raises(TraceMismatchError, match="step 1: .*stale"):
            build_ledger(bad, dec, 3)

    def test_ledger_reuses_the_loaded_replay(self):
        g = gen_random_bounded(12, 4, 0.6, 5)
        trace = load_trace(save_trace(run_algorithm("one_two_mingreedy", g, RandomPolicy(5))), g)
        led = ledger_for(g, trace)
        assert led.replay is trace.replay
        assert led.steps is trace.steps

    def test_delta_below_graph_degree_rejected(self):
        g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        t = run_algorithm("mingreedy", g, FirstPolicy())
        m_star = canonicalize(g, t.result, maximum_matching(g))
        dec = decompose(g, t.result, m_star)
        with pytest.raises(ValueError):
            build_ledger(t, dec, 3)


def test_transfers_recheck_from_trace_alone():
    for seed in range(150):
        led = random_ledger(seed)
        if led is None:
            continue
        for t in led.transfers:
            e = (min(t.source, t.endpoint), max(t.source, t.endpoint))
            assert e in led.dec.f_edges
            rec = led.step_record(t.step)
            assert t.source in (rec.selected, rec.partner)
            assert e in rec.removed
            after = led.replay.deg_after(t.step, t.endpoint)
            assert after is not None and after <= 1


def _transfer_recheck_verdict(led):
    (check,) = [c for c in verify_lemma_predicates(led).checks if c.name == "transfer_recheck"]
    return check.ok


def test_transfer_to_an_endpoint_left_at_degree_two_fails_the_recheck():
    # A corrupted ledger: one transfer more, over an F-edge removed in its
    # step from a node matched in it, to a path endpoint that still has
    # degree 2 after the step.  Only the degree bound makes it invalid.
    corrupted = 0
    for seed in range(150):
        led = random_ledger(seed)
        if led is None:
            continue
        for s in range(1, len(led.steps) + 1):
            rec = led.step_record(s)
            for source in (rec.selected, rec.partner):
                for w in led.dec.graph.adjacency[source]:
                    e = norm_edge(source, w)
                    if (e in led.dec.f_edges and e in rec.removed and w in led.endpoints
                            and led.replay.deg_after(s, w) == 2):
                        assert _transfer_recheck_verdict(led)
                        led.transfers.append(Transfer(source, w, s, cancelled=False))
                        assert not _transfer_recheck_verdict(led), (seed, s, source, w)
                        led.transfers.pop()
                        corrupted += 1
    assert corrupted > 0


def test_csv_keeps_a_list_side_in_one_field():
    # A failing row's list-valued side holds commas; it must read back as
    # one field, and a passing row stays plain comma-joined text.
    rep = Report()
    rep.require("donation_steps_disjoint", "global", [3, 5], "==", [])
    rep.require("one_donation_per_step", "global", 2, "==", 2)
    text = rep.csv()
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[1] == ["donation_steps_disjoint", "global", "[3, 5]", "==", "[]", "FAIL"]
    assert text.splitlines()[2] == "one_donation_per_step,global,2,==,2,PASS"


def test_checks_walk_the_endpoints_and_transfers_a_fixed_number_of_times(counted_endpoints):
    # Each path's checks read only its own creation step, so building and
    # verifying a game's ledger walks every endpoint and every transfer as
    # often at t = 80 as at t = 40, though there are more than twice as
    # many paths.
    walks = []
    paths = []
    for t in (40, 80):
        ledger = game_ledger(4, t)
        built = ledger.endpoints.walks
        ledger.transfers = CountedList(ledger.transfers)
        assert verify_all(ledger).all_pass
        walks.append((built, ledger.endpoints.walks, ledger.transfers.walks))
        paths.append(len(ledger.paths))
    assert paths[1] > 2 * paths[0]
    assert walks[0] == walks[1], walks


def _verdict(led, name, subject):
    """The verdict of the lemma check name on subject; None when it is not
    made."""
    return {c.subject: c.ok for c in verify_lemma_predicates(led).checks
            if c.name == name}.get(subject)


def _witness_ledger(i):
    """The ledger of one_two_mingreedy's worst-case run on a seeded graph of
    max degree 3..5."""
    from matchforge.matchers import worst_case_size

    rng = random.Random(1000 + i)
    g = gen_random_bounded(rng.randint(6, 12), rng.randint(3, 5), rng.uniform(0.4, 0.9), 1000 + i)
    return ledger_for(g, worst_case_size(g, "one_two_mingreedy")[1])


def test_triple_credits_on_other_steps_fail_the_shape_check():
    # A valid triple credit is two transfers on a 3 -> 1 drop and one on the
    # final 1 -> 0 drop.  The same endpoint with a transfer missing, or with
    # its second transfer booked on another step, must fail the shape check.
    corrupted = 0
    for i in range(230, 250):
        led = _witness_ledger(i)
        for w in sorted(led.endpoints):
            if led.raw_credits[w] != 3:
                continue
            tag = f"w{w}"
            assert _verdict(led, "endpoint_triple_credit_shape", tag) is True
            at = [k for k, t in enumerate(led.transfers) if t.endpoint == w]
            first, second, third = (led.transfers[k] for k in at)
            led.transfers = [t for k, t in enumerate(led.transfers) if k != at[2]]
            assert _verdict(led, "endpoint_triple_credit_shape", tag) is False, (i, w)
            led.transfers.insert(at[2], third)
            for step in range(1, len(led.steps) + 1):
                if step not in (first.step, third.step):
                    led.transfers[at[1]] = replace(second, step=step)
                    assert _verdict(led, "endpoint_triple_credit_shape", tag) is False, (i, w)
                    corrupted += 1
            led.transfers[at[1]] = second
    assert corrupted > 0


def test_extra_credit_check_follows_a_debit_count_of_2m_minus_1():
    # At delta = 3 a path that pays 2m - 1 debits over its m matched edges
    # needs three credits; one that pays 2m - 2 is not asked.  Paths with two
    # credits in mingreedy's game at delta = 3, their debit count set to each
    # value in turn.
    led = game_ledger(3, 20)
    corrupted = 0
    for ci, comp in enumerate(led.dec.components):
        if ci not in led.paths or sum(led.credits[w] for w in comp.endpoints) != 2:
            continue
        tag = f"comp{ci}"
        paid = led.debits_out[ci]
        led.debits_out[ci] = 2 * comp.m_count - 1
        assert _verdict(led, "extra_credit_path", tag) is False, ci
        led.debits_out[ci] = 2 * comp.m_count - 2
        assert _verdict(led, "extra_credit_path", tag) is None, ci
        led.debits_out[ci] = paid
        corrupted += 1
    assert corrupted > 0


class _Redegreed:
    """A replay whose degree of node w after step s reads as deg."""

    def __init__(self, replay, s, w, deg):
        self.replay, self.key, self.deg = replay, (s, w), deg

    def deg_after(self, s, w):
        return self.deg if (s, w) == self.key else self.replay.deg_after(s, w)

    def deg_before(self, s, w):
        return self.replay.deg_before(s, w)


def test_each_broken_part_of_the_degree_2_exception_fails_its_shape():
    # A degree-2 creation step that pays a debit and leaves no degree-1
    # endpoint has one shape.  Break one part at a time: a debit on the
    # selected node, a second debit on the partner, a recipient left with an
    # edge, or a recipient not joined to the selected node in M*.
    from matchforge.graphs import Matching

    corrupted = 0
    for seed in range(300):
        led = random_ledger(seed)
        if led is None:
            continue
        for ci, info in sorted(led.paths.items()):
            tag = f"comp{ci}"
            if not _verdict(led, "deg2_exception_shape", tag):
                continue
            u, v, s = info.selected, info.partner, info.creation_step
            for node in (u, v):
                led.raw_debits[node] += 1
                assert _verdict(led, "deg2_exception_shape", tag) is False, (seed, ci, node)
                led.raw_debits[node] -= 1
            (w,) = [end for source, end in led._step_transfers(led.step_record(s))
                    if source == v]
            replay = led.replay
            led.replay = _Redegreed(replay, s, w, 1)
            assert _verdict(led, "deg2_exception_shape", tag) is False, (seed, ci)
            led.replay = replay
            dec = led.dec
            led.dec = replace(dec, m_star=Matching.from_pairs(dec.m_star.pairs - {norm_edge(u, w)}))
            assert _verdict(led, "deg2_exception_shape", tag) is False, (seed, ci)
            led.dec = dec
            corrupted += 1
    assert corrupted > 0


def test_fallback_needs_a_non_creation_edge_under_the_cap():
    # A path left without a degree-1 endpoint and with fewer than three
    # credits passes only if a matched edge other than its creation edge
    # pays at most 2 (delta - 2) - 1 coins: one at exactly that passes, and
    # none under the cap fails.
    corrupted = 0
    for seed in range(300):
        led = random_ledger(seed)
        if led is None:
            continue
        cap = 2 * (led.delta - 2)
        for ci, info in sorted(led.paths.items()):
            tag = f"comp{ci}"
            comp = led.dec.components[ci]
            creation = norm_edge(info.selected, info.partner)
            others = [e for e in comp.m_edges if e != creation]
            if (_verdict(led, "no_deg1_path_fallback", tag) is None or not others
                    or sum(led.credits[w] for w in comp.endpoints) >= 3):
                continue
            paid = {x: led.paid[x] for e in others for x in e}
            for a, b in others:
                led.paid[a], led.paid[b] = cap, 0
            assert _verdict(led, "no_deg1_path_fallback", tag) is False, (seed, ci)
            a, b = others[-1]
            led.paid[a] = cap - 1
            assert _verdict(led, "no_deg1_path_fallback", tag) is True, (seed, ci)
            led.paid.update(paid)
            corrupted += 1
    assert corrupted > 0
