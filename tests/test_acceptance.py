"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line with
its elapsed time.  All numeric comparisons are exact (integers, Fractions,
byte equality); nothing is tolerance-calibrated at runtime.
"""

import itertools
import random
import time
from fractions import Fraction
from pathlib import Path

from matchforge.adversary import AdversaryB, AdversaryBPrime, TruthfulAdversary, play_game
from matchforge.charging import build_ledger, target_ratio, verify_all
from matchforge.cli import main as cli_main
from matchforge.decomposition import canonicalize, decompose
from matchforge.graphs import Graph, gen_random_bounded
from matchforge.matchers import (
    FirstPolicy,
    RandomPolicy,
    run_algorithm,
    script_from_picks,
    worst_case_size,
)
from matchforge.optimum import max_matching_bruteforce, maximum_matching


def _report(num, name, ok, t0, detail=""):
    verdict = "PASS" if ok else "FAIL"
    extra = f" {detail}" if detail else ""
    print(f"ACCEPT {num} {name}: {verdict} ({time.time() - t0:.1f}s){extra}", flush=True)
    assert ok, f"criterion {num} {name} failed: {detail}"


def test_criterion_1_tightness_reproduction():
    t0 = time.time()
    ok = True
    detail = []
    for delta in range(3, 9):
        result = play_game("mingreedy", AdversaryB(delta))
        opt = len(maximum_matching(result.graph))
        m = len(result.matching)
        detail.append(f"d{delta}:{m}/{opt}")
        if m != delta - 1 or opt != 2 * delta - 3:
            ok = False
    _report(1, "tightness-ladder", ok, t0, " ".join(detail))


def test_criterion_2_asymptotic_tightness():
    t0 = time.time()
    excesses = []
    for t in (20, 50, 100, 200, 500, 1000, 2000):
        result = play_game("mingreedy", AdversaryBPrime(3, t))
        opt = len(maximum_matching(result.graph))
        ratio = Fraction(len(result.matching), opt)
        excesses.append(ratio - Fraction(2, 3))
    ok = all(e >= 0 for e in excesses)
    ok = ok and all(a >= b for a, b in zip(excesses, excesses[1:]))
    ok = ok and excesses[-1] <= Fraction(2, 100)
    _report(2, "announced-budget-convergence", ok, t0,
            " ".join(f"{float(e):.4f}" for e in excesses))


def test_criterion_2_sibling_higher_delta():
    # Criterion 2's three checks at delta = 4, 5 and 6, against (d-1)/(2d-3).
    t0 = time.time()
    ok = True
    detail = []
    for delta in (4, 5, 6):
        excesses = []
        for t in (20, 50, 100, 200, 500):
            result = play_game("mingreedy", AdversaryBPrime(delta, t))
            opt = len(maximum_matching(result.graph))
            excesses.append(Fraction(len(result.matching), opt) - target_ratio(delta))
        ok = ok and all(e >= 0 for e in excesses)
        ok = ok and all(a >= b for a, b in zip(excesses, excesses[1:]))
        ok = ok and excesses[-1] <= Fraction(1, 100)
        detail.append(f"d{delta}: " + " ".join(f"{float(e):.4f}" for e in excesses))
    _report("2b", "announced-budget-convergence-delta456", ok, t0, "; ".join(detail))


def _connected_bounded_graphs(n, maxdeg):
    """All labeled connected graphs on exactly n nodes with degrees <= maxdeg."""
    pairs = list(itertools.combinations(range(n), 2))
    deg = [0] * n
    chosen = []

    def connected(edges):
        adj = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        seen = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == n

    def rec(i):
        if i == len(pairs):
            if chosen and connected(chosen):
                yield tuple(chosen)
            return
        yield from rec(i + 1)
        u, v = pairs[i]
        if deg[u] < maxdeg and deg[v] < maxdeg:
            deg[u] += 1
            deg[v] += 1
            chosen.append(pairs[i])
            yield from rec(i + 1)
            chosen.pop()
            deg[u] -= 1
            deg[v] -= 1

    yield from rec(0)


def test_criterion_3_lower_bound_delta3():
    t0 = time.time()
    bound = Fraction(2, 3)
    worst_seen = Fraction(1)
    count = 0
    ok = True
    for n in range(2, 8):
        for edges in _connected_bounded_graphs(n, 3):
            g = Graph(n, edges)
            size, _ = worst_case_size(g, "one_two_mingreedy")
            opt = len(maximum_matching(g))
            ratio = Fraction(size, opt)
            worst_seen = min(worst_seen, ratio)
            count += 1
            if ratio < bound:
                ok = False
    enumerated = count
    for i in range(10_000):
        rng = random.Random(1_000_000 + i)
        g = gen_random_bounded(rng.randint(4, 12), 3, rng.uniform(0.3, 1.0),
                               1_000_000 + i)
        if g.m == 0:
            continue
        size, _ = worst_case_size(g, "one_two_mingreedy")
        opt = len(maximum_matching(g))
        ratio = Fraction(size, opt)
        worst_seen = min(worst_seen, ratio)
        count += 1
        if ratio < bound:
            ok = False
    _report(3, "delta3-worst-case-floor", ok, t0,
            f"{enumerated} enumerated + random, total {count}, min ratio {worst_seen}")


def test_criterion_4_lower_bound_delta45():
    t0 = time.time()
    ok = True
    details = []
    for delta in (4, 5):
        bound = target_ratio(delta)
        worst_seen = Fraction(1)
        for i in range(10_000):
            seed = 2_000_000 * delta + i
            rng = random.Random(seed)
            g = gen_random_bounded(rng.randint(4, 12), delta,
                                   rng.uniform(0.3, 0.95), seed)
            if g.m == 0:
                continue
            size, _ = worst_case_size(g, "one_two_mingreedy")
            opt = len(maximum_matching(g))
            ratio = Fraction(size, opt)
            worst_seen = min(worst_seen, ratio)
            if ratio < bound:
                ok = False
        details.append(f"d{delta} min {worst_seen} >= {bound}")
    _report(4, "delta45-worst-case-floor", ok, t0, "; ".join(details))


def test_criterion_5_charging_verifier_never_fails():
    t0 = time.time()
    ok = True
    runs = 0
    bad = ""
    for i in range(10_000):
        seed = 3_000_000 + i
        rng = random.Random(seed)
        delta = rng.choice([3, 4, 5])
        g = gen_random_bounded(rng.randint(4, 14), delta,
                               rng.uniform(0.3, 0.9), seed)
        if g.m == 0:
            continue
        kind = i % 3
        if kind == 0:
            trace = run_algorithm("one_two_mingreedy", g, FirstPolicy())
        elif kind == 1:
            trace = run_algorithm("one_two_mingreedy", g, RandomPolicy(seed))
        else:
            base = run_algorithm("one_two_mingreedy", g, RandomPolicy(seed))
            picks = [st.edge for st in base.steps]
            trace = run_algorithm(
                "one_two_mingreedy", g, script_from_picks(g, picks, "one_two_mingreedy"))
        m_star = canonicalize(g, trace.result, maximum_matching(g))
        dec = decompose(g, trace.result, m_star)
        ledger = build_ledger(trace, dec, max(3, delta))
        report = verify_all(ledger)
        runs += 1
        if not report.all_pass:
            ok = False
            bad = f"seed {seed}: {report.failures()[:2]}"
            break
        if sum(ledger.credits_in) != sum(ledger.debits_out):
            ok = False
            bad = f"seed {seed}: conservation broken"
            break
        if dec.m_star and dec.global_ratio < target_ratio(ledger.delta):
            ok = False
            bad = f"seed {seed}: ratio below target"
            break
    _report(5, "charging-verifier-clean", ok, t0, bad or f"{runs} verified runs")


def test_criterion_6_oracle_equivalence():
    t0 = time.time()
    ok = True
    checked = 0
    seed = 0
    while checked < 10_000:
        seed += 1
        rng = random.Random(4_000_000 + seed)
        g = gen_random_bounded(rng.randint(2, 10), rng.randint(1, 5),
                               rng.uniform(0.2, 0.9), 4_000_000 + seed)
        if g.m > 24:
            continue
        if len(maximum_matching(g)) != max_matching_bruteforce(g):
            ok = False
            break
        checked += 1
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    petersen = Graph.from_edges(10, outer + spokes + inner)
    ok = ok and len(maximum_matching(petersen)) == 5
    _report(6, "oracle-equivalence", ok, t0, f"{checked} graphs + petersen")


def test_criterion_7_canonicalization():
    t0 = time.time()
    ok = True
    checked = 0
    for i in range(10_000):
        seed = 5_000_000 + i
        rng = random.Random(seed)
        g = gen_random_bounded(rng.randint(2, 12), rng.randint(1, 5),
                               rng.uniform(0.2, 0.9), seed)
        if g.m == 0:
            continue
        trace = run_algorithm("one_two_mingreedy", g, RandomPolicy(seed))
        m_prime = maximum_matching(g)
        m_star = canonicalize(g, trace.result, m_prime)
        if len(m_star) != len(m_prime):
            ok = False
            break
        dec = decompose(g, trace.result, m_star)  # raises on cycles/mixed paths
        if not all(c.kind in ("singleton", "path") for c in dec.components):
            ok = False
            break
        checked += 1
    _report(7, "canonicalization-clean", ok, t0, f"{checked} pairs")


def test_criterion_8_encoding_consistency():
    t0 = time.time()
    ok = True
    for i in range(1000):
        seed = 6_000_000 + i
        rng = random.Random(seed)
        g = gen_random_bounded(rng.randint(2, 12), rng.randint(1, 5),
                               rng.uniform(0.2, 0.9), seed)
        for algo in ("mingreedy", "karpsipser"):
            res = play_game(algo, TruthfulAdversary(g))
            direct = run_algorithm(algo, g, FirstPolicy())
            if res.matching.pairs != direct.result.pairs:
                ok = False
    _report(8, "encoding-consistency", ok, t0, "1000 graphs x 2 encodings")


def test_criterion_9_sweep_determinism(tmp_path: Path):
    t0 = time.time()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--deltas", "3,4", "--source", "random", "--count", "5",
            "--seed", "11", "--algos", "mingreedy,one_two_mingreedy",
            "--n", "10"]
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b)]) == 0
    ok = a.read_bytes() == b.read_bytes()
    _report(9, "sweep-determinism", ok, t0, f"{len(a.read_bytes())} bytes")
