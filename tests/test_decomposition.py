import random
import re
from fractions import Fraction

import pytest

from matchforge.decomposition import (
    PATH,
    SINGLETON,
    CanonicalizationError,
    Component,
    NonCanonicalError,
    _union_components,
    canonicalize,
    decompose,
    format_components,
)
from matchforge.graphs import Graph, Matching, gen_random_bounded, norm_edge
from matchforge.matchers import FirstPolicy, RandomPolicy, run_algorithm
from matchforge.optimum import maximum_matching


def P3():
    return Graph.from_edges(3, [(0, 1), (1, 2)])


def P4():
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


def C4():
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def C6():
    return Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])


class TestCanonicalize:
    def test_p3_mixed_path_collapses_to_singleton(self):
        m = Matching.from_pairs([(0, 1)])
        m_prime = Matching.from_pairs([(1, 2)])
        m_star = canonicalize(P3(), m, m_prime)
        assert m_star.pairs == {(0, 1)}
        dec = decompose(P3(), m, m_star)
        assert [c.kind for c in dec.components] == ["singleton"]

    def test_c4_cycle_elimination(self):
        m = Matching.from_pairs([(0, 1), (2, 3)])
        m_prime = Matching.from_pairs([(1, 2), (0, 3)])
        m_star = canonicalize(C4(), m, m_prime)
        assert m_star.pairs == m.pairs
        dec = decompose(C4(), m, m_star)
        assert [c.kind for c in dec.components] == ["singleton", "singleton"]

    def test_p4_already_canonical(self):
        m = Matching.from_pairs([(1, 2)])
        m_prime = Matching.from_pairs([(0, 1), (2, 3)])
        m_star = canonicalize(P4(), m, m_prime)
        assert m_star.pairs == m_prime.pairs
        (comp,) = decompose(P4(), m, m_star).components
        assert comp.kind == "path"
        assert comp.m_count == 1 and comp.opt_count == 2
        assert Fraction(comp.m_count, comp.opt_count) == Fraction(1, 2)
        assert comp.endpoints == (0, 3)

    def test_non_maximum_rejected(self):
        with pytest.raises(CanonicalizationError, match="not maximum"):
            canonicalize(P4(), Matching.from_pairs([(1, 2)]),
                         Matching.from_pairs([(0, 1)]))

    def test_idempotent_and_size_preserving(self):
        for seed in range(80):
            rng = random.Random(seed)
            g = gen_random_bounded(rng.randint(2, 12), rng.randint(1, 4),
                                   rng.uniform(0.2, 0.9), seed)
            if g.m == 0:
                continue
            m = run_algorithm("one_two_mingreedy", g, RandomPolicy(seed)).result
            m_prime = maximum_matching(g)
            m_star = canonicalize(g, m, m_prime)
            assert len(m_star) == len(m_prime)
            again = canonicalize(g, m, m_star)
            assert again.pairs == m_star.pairs


class TestDecompose:
    def test_rejects_cycles(self):
        m = Matching.from_pairs([(0, 1), (2, 3)])
        other = Matching.from_pairs([(1, 2), (0, 3)])
        with pytest.raises(NonCanonicalError, match="cycle"):
            decompose(C4(), m, other)

    def test_rejects_mixed_paths(self):
        m = Matching.from_pairs([(0, 1)])
        other = Matching.from_pairs([(1, 2)])
        with pytest.raises(NonCanonicalError, match="mixed"):
            decompose(P3(), m, other)

    def test_lost_component_is_reported(self, monkeypatch):
        # The partition checks are exceptions, so python -O keeps them.
        from matchforge import decomposition

        walk = decomposition._union_components
        monkeypatch.setattr(decomposition, "_union_components",
                            lambda m, m2: list(walk(m, m2))[1:])
        # The walk's only component is the path 0-1-2-3; dropping it loses
        # the m-edge (1, 2).
        m = Matching.from_pairs([(1, 2)])
        m_star = Matching.from_pairs([(0, 1), (2, 3)])
        with pytest.raises(NonCanonicalError, match="partition the heuristic"):
            decompose(P4(), m, m_star)

    def test_counts_partition_the_matchings(self):
        for seed in range(120):
            rng = random.Random(seed)
            g = gen_random_bounded(rng.randint(2, 14), rng.randint(1, 5),
                                   rng.uniform(0.2, 0.9), seed)
            if g.m == 0:
                continue
            m = run_algorithm("one_two_mingreedy", g, RandomPolicy(seed)).result
            m_star = canonicalize(g, m, maximum_matching(g))
            dec = decompose(g, m, m_star)
            assert sum(c.m_count for c in dec.components) == len(m)
            assert sum(c.opt_count for c in dec.components) == len(m_star)
            assert all(c.kind in ("singleton", "path") for c in dec.components)
            for comp in dec.components:
                if comp.kind == "path":
                    assert comp.opt_count == comp.m_count + 1
                    assert comp.nodes[0] == min(comp.endpoints)
                else:
                    assert Fraction(comp.m_count, comp.opt_count) == 1
            # Edge classes partition the graph's edges.
            assert dec.f_edges.isdisjoint(m.pairs)
            assert dec.f_edges.isdisjoint(m_star.pairs)
            assert dec.f_edges | m.pairs | m_star.pairs == g.edge_set
            assert m.pairs & m_star.pairs == {
                c.m_edges[0] for c in dec.components if c.kind == "singleton"
            }

    def test_global_ratio_matches_component_sums(self):
        g = C6()
        m = run_algorithm("one_two_mingreedy", g, FirstPolicy()).result
        m_star = canonicalize(g, m, maximum_matching(g))
        dec = decompose(g, m, m_star)
        assert dec.global_ratio == Fraction(len(m), len(m_star))

    def test_global_ratio_of_an_edgeless_graph_is_one(self):
        g = Graph.from_edges(3, [])
        m = run_algorithm("mingreedy", g, FirstPolicy()).result
        dec = decompose(g, m, canonicalize(g, m, maximum_matching(g)))
        assert not dec.components and len(dec.m_star) == 0
        ratio = dec.global_ratio
        assert type(ratio) is Fraction and ratio == 1


class TestEndpointDegrees:
    def test_p4_handmade_matching_flagged_low(self):
        # This 1/2-path comes from a hand-made matching, not a run of the
        # heuristic, so endpoint degrees of one are possible here.
        m = Matching.from_pairs([(1, 2)])
        m_star = Matching.from_pairs([(0, 1), (2, 3)])
        dec = decompose(P4(), m, m_star)
        assert {w: P4().degree(w) for w in dec.endpoints} == {0: 1, 3: 1}

    def test_c6_run_has_no_endpoints(self):
        g = C6()
        m = run_algorithm("one_two_mingreedy", g, FirstPolicy()).result
        m_star = canonicalize(g, m, maximum_matching(g))
        dec = decompose(g, m, m_star)
        assert dec.endpoints == frozenset()

    def test_traced_runs_have_endpoint_degree_at_least_two(self):
        for seed in range(200):
            rng = random.Random(seed)
            g = gen_random_bounded(rng.randint(3, 14), rng.randint(2, 5),
                                   rng.uniform(0.3, 0.9), seed)
            if g.m == 0:
                continue
            m = run_algorithm("one_two_mingreedy", g, RandomPolicy(seed)).result
            m_star = canonicalize(g, m, maximum_matching(g))
            dec = decompose(g, m, m_star)
            assert all(g.degree(w) >= 2 for w in dec.endpoints)


def test_format_components():
    m = Matching.from_pairs([(1, 2)])
    m_star = Matching.from_pairs([(0, 1), (2, 3)])
    dec = decompose(P4(), m, m_star)
    assert format_components(dec) == "c path 1 2 0 1 2 3\n"


# -- the decomposition against the full-union walk ----------------------------


def full_union_components(m: Matching, m2: Matching):
    """Each component of (V, m union m2), shared edges included (shape
    "both"), in least-node order: a walk of every node either matching
    covers, with path ends first."""
    mate1: dict[int, int] = {}
    mate2: dict[int, int] = {}
    for mate, pairs in ((mate1, m), (mate2, m2)):
        for u, v in pairs:
            mate[u] = v
            mate[v] = u
    covered = sorted(set(mate1) | set(mate2))
    ends = [v for v in covered if (v in mate1) != (v in mate2)]
    seen: set[int] = set()
    comps = []
    for start in ends + covered:
        if start in seen:
            continue
        if mate1.get(start) == mate2.get(start):
            other = mate1[start]
            seen.update((start, other))
            comps.append(("both", [start, other], ["both"], [norm_edge(start, other)]))
            continue
        nodes, labels, edges = [start], [], []
        cur, via = start, None
        while True:
            if via != "m" and cur in mate1:
                nxt, via = mate1[cur], "m"
            elif via != "opt" and cur in mate2:
                nxt, via = mate2[cur], "opt"
            else:
                break
            labels.append(via)
            edges.append(norm_edge(cur, nxt))
            if nxt == start:
                break
            nodes.append(nxt)
            cur = nxt
        seen.update(nodes)
        shape = "cycle" if len(edges) == len(nodes) else f"{labels[0]}-{labels[-1]}"
        comps.append((shape, nodes, labels, edges))
    return sorted(comps, key=lambda c: min(c[1]))


def full_union_decomposition(m: Matching, m_star: Matching) -> tuple[Component, ...]:
    """The components decompose lists, classified from the full-union walk;
    raises NonCanonicalError at the first cycle or mixed path."""
    components = []
    for shape, nodes, labels, edges in full_union_components(m, m_star):
        if shape == "both":
            components.append(Component(SINGLETON, tuple(nodes), tuple(edges), tuple(edges), ()))
        elif shape == "cycle":
            raise NonCanonicalError(f"cycle through node {min(nodes)} in the matching graph")
        elif shape != "opt-opt":
            raise NonCanonicalError(
                f"mixed alternating path through node {min(nodes)}; canonicalize first"
            )
        else:
            m_edges = tuple(e for e, lab in zip(edges, labels) if lab == "m")
            opt_edges = tuple(e for e, lab in zip(edges, labels) if lab == "opt")
            components.append(
                Component(PATH, tuple(nodes), m_edges, opt_edges, (nodes[0], nodes[-1])))
    return tuple(components)


def random_matching(g: Graph, rng: random.Random) -> Matching:
    """A matching of g: its edges in random order, each kept when both ends
    are free and a coin says so."""
    edges = list(g.edges)
    rng.shuffle(edges)
    used: set[int] = set()
    pairs = []
    for u, v in edges:
        if u not in used and v not in used and rng.random() < 0.8:
            used.update((u, v))
            pairs.append((u, v))
    return Matching(frozenset(pairs))


def test_a_matching_against_itself_has_nothing_to_walk():
    m = Matching.from_pairs([(0, 1), (2, 3)])
    assert _union_components(m, m) == []


def test_decompose_lists_what_the_full_union_walk_lists():
    # Half the pairs are a run against its canonical optimum, half two
    # random matchings, whose cycles and mixed paths must raise alike.
    outcomes = set()
    for seed in range(3000):
        rng = random.Random(seed)
        g = gen_random_bounded(rng.randint(2, 30), rng.randint(1, 5), rng.uniform(0.1, 1.0), seed)
        if seed % 2:
            m = run_algorithm("one_two_mingreedy", g, RandomPolicy(seed)).result
            m_star = canonicalize(g, m, maximum_matching(g))
        else:
            m, m_star = random_matching(g, rng), random_matching(g, rng)
        try:
            expect = full_union_decomposition(m, m_star)
        except NonCanonicalError as exc:
            with pytest.raises(NonCanonicalError, match=f"^{re.escape(str(exc))}$"):
                decompose(g, m, m_star)
            outcomes.add(str(exc).split()[0])
        else:
            assert decompose(g, m, m_star).components == expect
            outcomes.update(c.kind for c in expect)
    assert outcomes == {"cycle", "mixed", SINGLETON, PATH}
