"""The benchmark's workloads: seeded inputs, one item's call sequence, and
the output checks.

A workload has ``setup(seed, scale, gen)``, which builds its inputs through
``gen`` and returns (items, canary graph text); ``run_item(tr, item)``,
which returns (bytes for the output digest, a value for cross-item checks);
and ``failed_in_pass(items, values)``, which returns the indices of items
that break a cross-item check.  Every library call an item makes goes
through ``tr.call(<span name>, ...)`` so the traced run times it as its own
span; span names are the per-layer metric prefixes.  A failed output check
raises ``CheckError``.
"""

from __future__ import annotations

import random
from fractions import Fraction

from matchforge import adversary, charging, decomposition, graphs, matchers, optimum


class CheckError(Exception):
    """An item's output broke an invariant."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _ratio_ok(size: int, opt: int, delta: int) -> bool:
    """|M|·(2Δ−3) ≥ (Δ−1)·|M*|, the (Δ−1)/(2Δ−3) guarantee."""
    return size * (2 * delta - 3) >= (delta - 1) * opt


def _policy(spec: str, seed: int) -> matchers.Policy:
    return matchers.FirstPolicy() if spec == "first" else matchers.RandomPolicy(seed)


# -- counters recorded on spans in the traced run -----------------------------


def _graph_counts(g):
    return {"graphs.nodes": g.n, "graphs.edges": g.m}


def _run_counts(trace):
    free = sum(1 for st in trace.steps if st.mode == matchers.MODE_FREE)
    return {"matchers.run.steps": len(trace.steps), "matchers.run.free_steps": free}


def _opt_counts(m):
    return {"optimum.matched_pairs": len(m)}


def _dec_counts(dec):
    paths = sum(1 for c in dec.components if c.kind == decomposition.PATH)
    return {"decomposition.components": len(dec.components), "decomposition.paths": paths}


def _ledger_counts(ledger):
    return {
        "charging.transfers": len(ledger.transfers),
        "charging.cancelled": sum(1 for t in ledger.transfers if t.cancelled),
        "charging.donations": len(ledger.donations),
    }


def _report_counts(report):
    return {"charging.checks": len(report.checks),
            "charging.checks_failed": len(report.failures())}


def _game_counts(result):
    offered = sum(line.count(" | ") + 1 for line in result.transcript if line.startswith("q "))
    return {"adversary.rounds": len(result.served), "adversary.patterns_offered": offered}


# -- shared call chains ----------------------------------------------------------


def verify_chain(tr, g, trace, m_opt) -> tuple[str, str]:
    """The library calls of ``matchforge run --trace`` then ``matchforge
    verify``, after the run itself; returns (trace text, report text)."""
    delta = max(3, g.delta)
    trace_text = tr.call("matchers.trace_io", matchers.save_trace, trace)
    trace = tr.call("matchers.trace_io", matchers.load_trace, trace_text, g)
    m_star = tr.call("decomposition.canonicalize", decomposition.canonicalize,
                     g, trace.result, m_opt,
                     count=lambda ms: {"decomposition.swapped_pairs": len(m_opt.pairs - ms.pairs)})
    dec = tr.call("decomposition.decompose", decomposition.decompose, g, trace.result, m_star,
                  count=_dec_counts)
    ledger = tr.call("charging.build_ledger", charging.build_ledger, trace, dec, delta,
                     count=_ledger_counts)
    report = tr.call("charging.verify", charging.verify_all, ledger, count=_report_counts)
    check(report.all_pass, f"verify report fails: {report.failures()[:2]}")
    check(_ratio_ok(len(trace.result), len(m_opt), delta),
          f"|M|={len(trace.result)} below the bound for |M*|={len(m_opt)}, delta={delta}")
    return trace_text, report.text()


def canary(tr, text: str) -> None:
    """One small graph through every layer, once per pass and outside the
    measured items, so each layer's spans exist on every workload."""
    g = tr.call("graphs.load_graph", graphs.load_graph, text, count=_graph_counts)
    trace = tr.call("matchers.run", matchers.run_algorithm, "mingreedy", g,
                    matchers.FirstPolicy(), count=_run_counts)
    m_opt = tr.call("optimum.maximum_matching", optimum.maximum_matching, g, count=_opt_counts)
    verify_chain(tr, g, trace, m_opt)
    size, _ = tr.call("matchers.worst_case_size", matchers.worst_case_size, g, "mingreedy",
                      count=lambda r: {"matchers.worst_case_size.edge_bits": g.m})
    game = tr.call("adversary.play_game", adversary.play_game, "mingreedy",
                   adversary.TruthfulAdversary(g), count=_game_counts)
    check(game.matching.pairs == trace.result.pairs, "canary: truthful game differs from run")
    check(size <= len(trace.result), "canary: worst case above a run")


def _canary_text(gen, base: int) -> str:
    return gen(graphs.save_graph, gen(graphs.gen_random_bounded, 10, 4, 0.6, base - 1))


def _generate(gen, kind: str, n: int, d: int, seed: int):
    if kind == "regular":
        return gen(graphs.gen_regular, n, d, seed)
    return gen(graphs.gen_random_bounded, n, d, 0.6, seed)


class Workload:
    """Base of the workloads; by default no check spans several items."""

    name = ""

    def failed_in_pass(self, items, values) -> set[int]:
        return set()


# -- verify_large ----------------------------------------------------------------


class VerifyLarge(Workload):
    """``run`` then ``verify`` on a handful of large bounded-degree graphs."""

    name = "verify_large"
    # (kind, n, degree bound)
    GRAPHS = {
        "full": [("regular", 1500, 3), ("regular", 3000, 3), ("regular", 1500, 4),
                 ("regular", 2000, 4), ("random", 1500, 5), ("regular", 2000, 3)],
        "tiny": [("regular", 60, 3), ("regular", 40, 4), ("random", 40, 5)],
    }
    # (graph index, algorithm, policy); the tiny scale keeps the graphs that
    # exist.  Five of the seven items take about 0.7-1.4 s, so the median
    # item latency falls among several items rather than on a single one.
    RUNS = [(0, "mingreedy", "first"), (1, "one_two_mingreedy", "random"),
            (2, "one_two_mingreedy", "first"), (3, "mingreedy", "random"),
            (4, "one_two_mingreedy", "random"), (4, "mingreedy", "first"),
            (5, "one_two_mingreedy", "first")]

    def setup(self, seed: int, scale: str, gen):
        base = seed * 1_000_003
        texts = [gen(graphs.save_graph, _generate(gen, kind, n, d, base + i))
                 for i, (kind, n, d) in enumerate(self.GRAPHS[scale])]
        items = [(texts[gi], algo, pol, base + 100 + j)
                 for j, (gi, algo, pol) in enumerate(self.RUNS) if gi < len(texts)]
        return items, _canary_text(gen, base)

    def run_item(self, tr, item):
        text, algo, pol, pseed = item
        g = tr.call("graphs.load_graph", graphs.load_graph, text, count=_graph_counts)
        trace = tr.call("matchers.run", matchers.run_algorithm, algo, g, _policy(pol, pseed),
                        count=_run_counts)
        m_opt = tr.call("optimum.maximum_matching", optimum.maximum_matching, g,
                        count=_opt_counts)
        trace_text, report_text = verify_chain(tr, g, trace, m_opt)
        return (trace_text + report_text).encode(), None


# -- small_corpus ------------------------------------------------------------------


class SmallCorpus(Workload):
    """Exhaustive worst-case search plus the verify chain on many tiny graphs."""

    name = "small_corpus"
    COUNT = {"full": 3000, "tiny": 30}
    # Read the worst-case witness on every WITNESS_EVERY-th item only.
    WITNESS_EVERY = 100

    def setup(self, seed: int, scale: str, gen):
        base = seed * 1_000_003
        items = []
        i = 0
        while len(items) < self.COUNT[scale]:
            rng = random.Random(base + i)
            g = gen(graphs.gen_random_bounded, rng.randint(4, 12), rng.randint(3, 5),
                    rng.uniform(0.3, 0.95), base + i)
            i += 1
            if g.m:
                items.append((gen(graphs.save_graph, g), base + i,
                              len(items) % self.WITNESS_EVERY == 0))
        return items, _canary_text(gen, base)

    def run_item(self, tr, item):
        text, pseed, read_witness = item
        g = tr.call("graphs.load_graph", graphs.load_graph, text, count=_graph_counts)
        delta = max(3, g.delta)
        size, witness = tr.call(
            "matchers.worst_case_size", matchers.worst_case_size, g, "one_two_mingreedy",
            count=lambda r: {"matchers.worst_case_size.edge_bits": g.m})
        m_opt = tr.call("optimum.maximum_matching", optimum.maximum_matching, g,
                        count=_opt_counts)
        check(_ratio_ok(size, len(m_opt), delta),
              f"worst case {size} below the bound for |M*|={len(m_opt)}, delta={delta}")
        if read_witness:
            tr.add("matchers.worst_case_size.witness_read", 1)
            check(len(witness.result) == size, "witness size differs from the worst case")
            witness.verify_replay()
        trace = tr.call("matchers.run", matchers.run_algorithm, "one_two_mingreedy", g,
                        matchers.RandomPolicy(pseed), count=_run_counts)
        check(size <= len(trace.result), f"worst case {size} above a run of {len(trace.result)}")
        trace_text, report_text = verify_chain(tr, g, trace, m_opt)
        return f"{size}\n{trace_text}{report_text}".encode(), None


# -- adversary_games -----------------------------------------------------------------


class AdversaryGames(Workload):
    """Adaptive-priority games: both constructors and truthful serving.

    Single games take from milliseconds to seconds, and on a noisy host a
    short interval is timed far less steadily than a long one.  So an item
    is a rung of the AdversaryBPrime ladder (the Δ values at one t; the
    smallest rung also holds the AdversaryB ladder), or both truthful games
    on one graph.  Each game is still followed by ``maximum_matching`` on the
    graph it emitted.
    """

    name = "adversary_games"
    # t -> the Δ values played at that t
    # (t, the Δ values played at that t), in increasing t.  The t = 200 rung
    # is split into one item per Δ so that several items sit near the
    # median latency.
    RUNGS = {
        "full": [(20, (4, 5)), (50, (3, 4, 5)), (100, (3, 4, 5)),
                 (200, (3,)), (200, (4,)), (200, (5,)), (400, (3,))],
        "tiny": [(10, (3, 4)), (20, (3, 4))],
    }
    B_DELTAS = {"full": tuple(range(3, 9)), "tiny": (3, 4, 5)}
    # (kind, n, degree bound) of the graphs served truthfully
    TRUTHFUL = {"full": [("regular", 300, 3), ("random", 500, 4)],
                "tiny": [("regular", 30, 3)]}

    def setup(self, seed: int, scale: str, gen):
        base = seed * 1_000_003
        items = [("Bprime", t, deltas, self.B_DELTAS[scale] if i == 0 else ())
                 for i, (t, deltas) in enumerate(self.RUNGS[scale])]
        for i, (kind, n, d) in enumerate(self.TRUTHFUL[scale]):
            g = _generate(gen, kind, n, d, base + i)
            items.append(("truthful", gen(graphs.save_graph, g)))
        return items, _canary_text(gen, base)

    def _constructed(self, tr, adv):
        """Play mingreedy against a constructor; return (transcript, ratio)."""
        result = tr.call(
            "adversary.play_game", adversary.play_game, "mingreedy", adv,
            count=lambda r: {**_game_counts(r), "adversary.nodes_built": r.graph.n})
        opt = tr.call("optimum.maximum_matching", optimum.maximum_matching, result.graph,
                      count=_opt_counts)
        ratio = Fraction(len(result.matching), len(opt))
        return "\n".join(result.transcript) + f"\nratio {ratio}\n", ratio

    def run_item(self, tr, item):
        out = []
        if item[0] == "truthful":
            g = tr.call("graphs.load_graph", graphs.load_graph, item[1], count=_graph_counts)
            for algo in ("mingreedy", "karpsipser"):
                result = tr.call("adversary.play_game", adversary.play_game, algo,
                                 adversary.TruthfulAdversary(g), count=_game_counts)
                direct = tr.call("matchers.run", matchers.run_algorithm, algo, g,
                                 matchers.FirstPolicy(), count=_run_counts)
                check(result.matching.pairs == direct.result.pairs,
                      f"truthful {algo} game differs from the direct run")
                opt = tr.call("optimum.maximum_matching", optimum.maximum_matching,
                              result.graph, count=_opt_counts)
                out.append("\n".join(result.transcript) + f"\nopt {len(opt)}\n")
            return "".join(out).encode(), None
        _, t, deltas, b_deltas = item
        for delta in b_deltas:
            text, ratio = self._constructed(tr, adversary.AdversaryB(delta))
            check(ratio == charging.target_ratio(delta),
                  f"AdversaryB({delta}) ratio {ratio} is not (d-1)/(2d-3)")
            out.append(text)
        ratios = {}
        for delta in deltas:
            text, ratios[delta] = self._constructed(tr, adversary.AdversaryBPrime(delta, t))
            check(ratios[delta] >= charging.target_ratio(delta),
                  f"AdversaryBPrime({delta}, {t}) ratio {ratios[delta]} below the target")
            out.append(text)
        return "".join(out).encode(), ratios

    def failed_in_pass(self, items, ratios) -> set[int]:
        """Indices of rungs where some Δ's ratio does not fall as t grows."""
        bad = set()
        prev: dict[int, Fraction] = {}
        for i, (item, rung) in enumerate(zip(items, ratios)):
            if item[0] != "Bprime" or rung is None:
                continue
            for delta, ratio in rung.items():
                if delta in prev and not ratio < prev[delta]:
                    bad.add(i)
                prev[delta] = ratio
        return bad


WORKLOADS = {w.name: w for w in (VerifyLarge(), SmallCorpus(), AdversaryGames())}
