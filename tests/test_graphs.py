import re

import pytest
from hypothesis import example, given, settings, strategies as st

from matchforge.adversary import load_moves
from matchforge.graphs import (
    MAX_NODES,
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
from matchforge.matchers import MODE_DEGREE, MODE_FREE, load_trace


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

    def test_header_above_node_bound(self):
        with pytest.raises(GraphFormatError, match=f"line 1: {MAX_NODES + 1} nodes exceed"):
            load_graph(f"graph {MAX_NODES + 1} 0\n")

    def test_negative_node_count(self):
        with pytest.raises(ValueError, match="node count -1 is negative"):
            Graph(-1, ())

    def test_edge_rules_match_the_constructor(self):
        # Self-loop, range, order, duplicate: one wording, plus the line.
        for edges in ([(1, 1)], [(0, 5)], [(1, 0)], [(0, 1), (0, 1)]):
            with pytest.raises(ValueError) as direct:
                Graph(3, tuple(edges))
            text = f"graph 3 {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in edges)
            with pytest.raises(GraphFormatError) as loaded:
                load_graph(text)
            assert str(loaded.value) == f"line {len(edges) + 1}: {direct.value}"

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


# Every record form of the four readers.  The property below builds lines
# from these tags (and some that no reader knows), with fields either shaped
# by a form (its count, each field mostly of its kind) or drawn at random.
FORMS = {
    "graph": "graph <n> <m>", "e": "e <u> <v>", "m": "m <u> <v>",
    "s": "s <i> <u> <d> <v> <mode>", "r": "r <a> <b>", "p": "p <u> <v>",
}
MODES = (MODE_DEGREE, MODE_FREE)
INTS = ("0", "1", "2", "3", "4", "-1")
READERS = {
    "graph": (load_graph, ("graph", "e")),
    "matching": (load_matching, ("m",)),
    "matching_on_K4": (lambda text: load_matching(text, K4()), ("m",)),
    "trace_on_K4": (lambda text: load_trace(text, K4()), ("s", "r")),
    "moves": (load_moves, ("p",)),
}


@st.composite
def record_lines(draw):
    tag = draw(st.sampled_from([*FORMS, "#", "x", "7"]))
    if tag in FORMS and draw(st.booleans()):
        slots = FORMS[tag].split()[1:]
        fields = [draw(st.sampled_from([*MODES, "x"] if slot == "<mode>" else [*INTS, "x"]))
                  for slot in slots]
    else:
        fields = draw(st.lists(st.sampled_from([*INTS, "x", *MODES]), max_size=6))
    return " ".join([tag, *fields])


def first_bad_line(text: str, tags) -> int | None:
    """The first line a reader of these tags must reject on its own: an
    unknown tag, a wrong field count, a non-integer field or a bad mode."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        names = FORMS[parts[0]].split() if parts[0] in tags else []
        if len(parts) != len(names) or any(
                value not in MODES if name == "<mode>" else not re.fullmatch(r"-?\d+", value)
                for name, value in zip(names[1:], parts[1:])):
            return lineno
    return None


@pytest.mark.parametrize("reader", READERS)
@settings(max_examples=200, deadline=None)
@given(st.lists(record_lines(), max_size=8).map("\n".join))
@example("p 0 x")
@example("s 0 1 3 1 degree_rule")  # a step whose pick is a self-pair
@example("s 0 0 3 1 degree_rule\nr 0 4")  # a removed edge outside the graph
def test_readers_raise_only_format_errors(reader, text):
    load, tags = READERS[reader]
    bad = first_bad_line(text, tags)
    try:
        load(text)
    except GraphFormatError as exc:
        if bad is not None:
            # Lines are read in order, so no later line can be blamed.
            found = re.match(r"line (\d+): ", str(exc))
            assert found and int(found.group(1)) <= bad, str(exc)
    else:
        assert bad is None, f"line {bad} was accepted"
