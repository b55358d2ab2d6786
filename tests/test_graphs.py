import pytest
from hypothesis import given, settings, strategies as st

from matchforge.graphs import (
    Graph,
    GraphFormatError,
    GenerationError,
    Matching,
    ResidualView,
    connected_components,
    gen_random_bounded,
    gen_regular,
    load_graph,
    load_matching,
    save_graph,
    save_matching,
)


def P3():
    return load_graph("graph 3 2\ne 0 1\ne 1 2\n")


def C4():
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def K4():
    return Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


class TestLoadGraph:
    def test_smallest_path(self):
        g = P3()
        assert g.n == 3 and g.edges == ((0, 1), (1, 2)) and g.delta == 2

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError, match="line 2.*self-loop"):
            load_graph("graph 2 1\ne 0 0\n")

    def test_four_cycle(self):
        g = load_graph("graph 4 4\ne 0 1\ne 1 2\ne 2 3\ne 0 3\n")
        assert g.edge_set == C4().edge_set and g.delta == 2

    def test_node_out_of_range(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            load_graph("graph 2 1\ne 0 5\n")

    def test_duplicate_edge(self):
        with pytest.raises(GraphFormatError, match="line 3.*duplicate"):
            load_graph("graph 3 2\ne 0 1\ne 0 1\n")

    def test_malformed_line(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            load_graph("graph 2 1\nedge 0 1\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphFormatError, match="announced 3"):
            load_graph("graph 3 3\ne 0 1\n")

    def test_comments_and_roundtrip(self):
        g = load_graph("# a comment\ngraph 4 2\ne 0 2\ne 1 3\n")
        assert load_graph(save_graph(g)).edge_set == g.edge_set

    def test_matching_roundtrip(self):
        g = C4()
        m = Matching.from_pairs([(0, 1), (2, 3)])
        assert load_matching(save_matching(m), g).pairs == m.pairs

    def test_matching_disjointness(self):
        with pytest.raises(GraphFormatError):
            load_matching("m 0 1\nm 1 2\n")


class TestRemovePair:
    def test_c4(self):
        view = ResidualView(C4())
        removed = view.remove_pair(0, 1)
        assert removed == [(0, 1), (0, 3), (1, 2)]
        assert view.deg == [0, 0, 1, 1]

    def test_p3_isolates_tail(self):
        view = ResidualView(P3())
        assert view.remove_pair(0, 1) == [(0, 1), (1, 2)]
        assert view.deg[2] == 0

    def test_k4_leaves_opposite_edge(self):
        view = ResidualView(K4())
        removed = view.remove_pair(0, 1)
        assert len(removed) == 5
        assert view.alive_edges() == [(2, 3)]

    def test_dead_edge_rejected(self):
        view = ResidualView(P3())
        view.remove_pair(0, 1)
        with pytest.raises(ValueError):
            view.remove_pair(0, 1)

    def test_restore_is_inverse(self):
        view = ResidualView(K4())
        removed = view.remove_pair(0, 1)
        view.restore_edges(removed)
        view.check_consistency()
        assert view.alive_edges() == list(K4().edges)


    def test_consistency_check_reports_drift(self):
        view = ResidualView(K4())
        view.deg[0] += 1
        with pytest.raises(ValueError, match="degrees drifted"):
            view.check_consistency()

    def test_consistency_check_reports_misplaced_bucket(self):
        view = ResidualView(K4())
        view._buckets[3].discard(0)
        view._buckets.setdefault(2, set()).add(0)
        with pytest.raises(ValueError, match="bucket of another degree"):
            view.check_consistency()


class TestMinDegreeNodes:
    def test_p3(self):
        assert ResidualView(P3()).min_degree_nodes() == [0, 2]

    def test_c4(self):
        assert ResidualView(C4()).min_degree_nodes() == [0, 1, 2, 3]

    def test_star(self):
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert ResidualView(star).min_degree_nodes() == [1, 2, 3]

    def test_empty_residual(self):
        g = Graph.from_edges(2, [(0, 1)])
        view = ResidualView(g)
        view.remove_pair(0, 1)
        with pytest.raises(ValueError):
            view.min_degree_nodes()


class TestGenerators:
    def test_single_node_is_edgeless(self):
        assert gen_random_bounded(1, 3, 1.0, 0).m == 0

    def test_deterministic(self):
        a = gen_random_bounded(20, 3, 1.0, 7)
        b = gen_random_bounded(20, 3, 1.0, 7)
        assert a.edges == b.edges

    def test_degree_bound_many_seeds(self):
        for seed in range(1000):
            g = gen_random_bounded(20, 3, 0.5, seed)
            assert g.delta <= 3

    def test_k4_is_forced(self):
        assert gen_regular(4, 3, 0).edge_set == K4().edge_set

    def test_two_regular_covers_cycles(self):
        g = gen_regular(6, 2, 0)
        assert all(g.degree(v) == 2 for v in range(6))

    def test_regular_degrees(self):
        g = gen_regular(10, 3, 1)
        assert all(g.degree(v) == 3 for v in range(10))

    def test_infeasible(self):
        with pytest.raises(ValueError):
            gen_regular(5, 3, 0)

    def test_rejection_budget(self):
        with pytest.raises(GenerationError):
            gen_regular(4, 3, 0, max_attempts=0)


class TestConnectedComponents:
    def test_p3(self):
        assert connected_components(P3()) == [[0, 1, 2]]

    def test_two_disjoint_edges(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert connected_components(g) == [[0, 1], [2, 3]]

    def test_edgeless(self):
        assert connected_components(Graph.from_edges(3, [])) == [[0], [1], [2]]


@st.composite
def graphs(draw, max_n=10, max_delta=4):
    n = draw(st.integers(min_value=2, max_value=max_n))
    delta = draw(st.integers(min_value=1, max_value=max_delta))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    p = draw(st.floats(min_value=0.1, max_value=1.0))
    return gen_random_bounded(n, delta, p, seed)


@settings(max_examples=60, deadline=None)
@given(graphs(), st.randoms(use_true_random=False))
def test_removal_sequences_keep_view_consistent(g, rng):
    view = ResidualView(g)
    while view.has_alive():
        # Cross-check the bucket answer against a brute scan.
        degs = [view.degree_of(v) for v in range(g.n)]
        mind = min(d for d in degs if d > 0)
        assert view.min_degree_nodes() == [v for v in range(g.n) if degs[v] == mind]
        edges = view.alive_edges()
        u, v = edges[rng.randrange(len(edges))]
        view.remove_pair(u, v)
        view.check_consistency()


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_save_load_roundtrip(g):
    assert load_graph(save_graph(g)).edge_set == g.edge_set
