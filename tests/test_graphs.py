import re
import tracemalloc
from array import array
from itertools import chain, islice

import pytest
from hypothesis import example, given, settings, strategies as st

from matchforge.graphs import (
    _PAIR_TYPECODE,
    MAX_NODES,
    MAX_RANDOM_NODES,
    PAIRING_ATTEMPTS,
    Graph,
    GraphFormatError,
    GenerationError,
    Matching,
    gen_random_bounded,
    gen_regular,
    load_graph,
    load_matching,
    save_graph,
    save_matching,
)
from matchforge import matchers
from matchforge.matchers import (
    MODE_DEGREE,
    MODE_FREE,
    RULES,
    AliveEdges,
    FirstPolicy,
    RandomPolicy,
    _fenwick,
    load_trace,
    run_algorithm,
)

from reference_runs import Recorder, check_against_oracle, iter_all_pick_sequences


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

    @pytest.mark.parametrize("edges, message", [
        # In sorted order (0, 12) would come first.
        (((2, 3), (2, 3), (0, 12)), "duplicate edge (2, 3)"),
        (((4, 5), (0, 1), (4, 5), (3, 3)), "duplicate edge (4, 5)"),
        (((5, 6), (1, 0), (5, 6)), "edge (1, 0) not in canonical (min, max) order"),
        ([[0, 1], [0, 1]], "duplicate edge (0, 1)"),
    ])
    def test_constructor_names_the_first_faulty_edge_in_input_order(self, edges, message):
        with pytest.raises(ValueError) as exc:
            Graph(10, edges)
        assert str(exc.value) == message

    # One faulty edge line per rule, as load_graph names it.
    EDGE_FAULTS = [
        ("e 2 2", "self-loop at node 2"),
        ("e 1 9", r"edge \(1, 9\) has node id outside 0..3"),
        ("e 3 1", r"edge \(3, 1\) not in canonical \(min, max\) order"),
        ("e 0 1", r"duplicate edge \(0, 1\)"),
    ]

    @pytest.mark.parametrize("line, message", EDGE_FAULTS)
    @pytest.mark.parametrize("later", ["e 3 3", "e 0 7", "e 2 0", "e 1 2", "x 1"])
    def test_first_of_two_faulty_lines_is_named(self, line, message, later):
        # The second faulty line breaks an edge rule too, or is no record.
        text = f"graph 4 3\ne 0 1\n# a comment\n{line}\ne 1 2\n{later}\n"
        with pytest.raises(GraphFormatError, match=rf"^line 4: {message}$"):
            load_graph(text)

    # The reader takes node ids from a table of n ints only after checking
    # 0 <= u < v < n, so a negative id cannot alias node n - 1 and each of
    # these lines still fails with the constructor's wording.
    @pytest.mark.parametrize("text, message", [
        ("graph 4 2\ne 0 1\ne -1 2\n", "line 3: edge (-1, 2) has node id outside 0..3"),
        ("graph 4 2\ne 0 1\ne 2 -1\n", "line 3: edge (2, -1) has node id outside 0..3"),
        ("graph 4 2\ne 0 1\ne 2 4\n", "line 3: edge (2, 4) has node id outside 0..3"),
        ("graph 4 2\ne 0 1\ne 3 2\n", "line 3: edge (3, 2) not in canonical (min, max) order"),
        ("graph 0 1\ne 0 1\n", "line 2: edge (0, 1) has node id outside 0..-1"),
        ("# c\ne 0 1\ngraph 4 1\n", "line 2: edge before header"),
    ])
    def test_node_table_faults_keep_their_message(self, text, message):
        with pytest.raises(GraphFormatError) as exc:
            load_graph(text)
        assert str(exc.value) == message

    def test_loaded_graph_holds_one_int_per_node(self):
        g = load_graph(save_graph(gen_regular(3000, 3, 1)))
        held: dict[int, int] = {}
        ids = [*chain.from_iterable(g.edges), *chain.from_iterable(g.adjacency)]
        assert all(held.setdefault(x, x) is x for x in ids)
        assert len(held) == 3000

    def test_incident_reuses_the_edge_id_ints(self):
        g = load_graph(save_graph(gen_regular(3000, 3, 1)))
        held = {i: i for i in g.edge_id.values()}
        assert all(held[i] is i for row in g.incident for i in row)

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

    def test_matching_faults_name_their_line(self):
        with pytest.raises(GraphFormatError, match=r"^line 2: self-pair at node 1$"):
            load_matching("m 0 2\nm 1 1\n")
        with pytest.raises(GraphFormatError,
                           match=r"^line 3: pair \(1, 3\) shares a node with an earlier pair$"):
            load_matching("m 0 3\n# comment\nm 3 1\nm 1 2\n", K4())
        with pytest.raises(GraphFormatError,
                           match=r"^line 2: matching pair \(1, 3\) is not an edge of the graph$"):
            load_matching("# the diagonals of C4 are not edges\nm 3 1\nm 0 2\n", C4())

    def test_matching_fields_split_on_any_whitespace(self):
        # \f and \x85 separate fields; only \n, \r\n and \r end a line.
        text = "m 0\f3\n# c\x85d\r\nm\x852 1\n"
        assert load_matching(text, K4()).pairs == {(0, 3), (1, 2)}

    def test_validate_names_the_smallest_bad_pair(self):
        m = Matching.from_pairs([(6, 7), (0, 2), (4, 5), (1, 3)])
        with pytest.raises(ValueError, match=r"matching pair \(0, 2\) is not an edge"):
            m.validate(Graph.from_edges(8, [(4, 5)]))


def first_steps(g, algo):
    """The slots a first-policy run of algo on g offers, and its steps."""
    recorder = Recorder(FirstPolicy())
    trace = run_algorithm(algo, g, recorder)
    return recorder.log, trace.steps


class TestRemovePair:
    """What one step of a run removes, and the degrees it leaves."""

    def test_c4(self):
        log, steps = first_steps(C4(), "mingreedy")
        assert steps[0].removed == ((0, 1), (0, 3), (1, 2))
        # Nodes 2 and 3 are left at degree 1, nodes 0 and 1 at 0.
        assert log[2] == (2, "node", [2, 3], 2)
        assert steps[1].sel_degree == 1

    def test_p3_isolates_tail(self):
        log, steps = first_steps(P3(), "mingreedy")
        assert [st.removed for st in steps] == [((0, 1), (1, 2))]

    def test_k4_leaves_opposite_edge(self):
        log, steps = first_steps(K4(), "greedy")
        assert len(steps[0].removed) == 5
        assert log[1] == (2, "edge", [(2, 3)], (2, 3))

    def test_dead_edge_rejected(self):
        # At a degree step the policy answers node 0 and neighbor 1 each
        # time; at step 2 edge (0, 1) is dead.
        class Stubborn(matchers.Policy):
            def choose(self, step, slot, candidates):
                return 0 if slot == "node" else 1

        p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError, match=r"^edge \(0, 1\) is not alive$"):
            run_algorithm("mingreedy", p4, Stubborn())

    def test_consistency_check_reports_index_drift(self):
        alive = AliveEdges(K4())
        alive._tree[2] += 1
        with pytest.raises(ValueError, match="alive-edge index drifted"):
            check_alive_index(alive)


class TestMinDegreeNodes:
    """The nodes a min-degree step offers: every node of minimum degree."""

    def test_p3(self):
        assert first_steps(P3(), "mingreedy")[0][0][2] == [0, 2]

    def test_c4(self):
        assert first_steps(C4(), "mingreedy")[0][0][2] == [0, 1, 2, 3]

    def test_star(self):
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert first_steps(star, "mingreedy")[0][0][2] == [1, 2, 3]


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

    def test_small_dense_parameters_exhaust_the_budget(self):
        # 5-regular graphs on 8 nodes exist, but nearly every pairing has
        # a loop or a repeated edge, and whole pairings are rejected.
        with pytest.raises(GenerationError, match="rejected 1000 attempts for n=8, d=5"):
            gen_regular(8, 5, 9)

    def test_regular_matches_a_reference_pairing_model(self):
        import random

        def paired(n, d, seed):
            rng = random.Random(seed)
            for _ in range(PAIRING_ATTEMPTS):
                stubs = [v for v in range(n) for _ in range(d)]
                rng.shuffle(stubs)
                pairs = {(min(u, v), max(u, v)) for u, v in zip(stubs[::2], stubs[1::2])}
                if len(pairs) == n * d // 2 and all(u != v for u, v in pairs):
                    return tuple(sorted(pairs))
            return f"pairing model rejected {PAIRING_ATTEMPTS} attempts for n={n}, d={d}"

        def generated(n, d, seed):
            try:
                return gen_regular(n, d, seed).edges
            except GenerationError as exc:
                return str(exc)

        # Rejection-heavy small dense cases (many exhaust every attempt),
        # stub counts on both sides of 100 and some above 4096.
        cases = [(8, 5, 9), (10, 5, 3), (12, 5, 1), (9, 4, 2), (7, 4, 5), (6, 5, 0),
                 (32, 3, 4), (34, 3, 4), (25, 4, 8), (20, 5, 6), (1400, 3, 2), (1100, 4, 3)]
        rng = random.Random(16)
        while len(cases) < 200:
            d = rng.randint(3, 5)
            n = rng.randint(d + 1, 10 if d == 5 else 40)
            if n * d % 2 == 0:
                cases.append((n, d, rng.randrange(10**6)))
        for n, d, seed in cases:
            assert generated(n, d, seed) == paired(n, d, seed), (n, d, seed)

    def test_random_bounded_matches_a_shuffle_of_pair_tuples(self):
        import random

        def shuffled_tuples(n, delta, p, seed):
            rng = random.Random(seed)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            rng.shuffle(pairs)
            deg = [0] * n
            edges = []
            for u, v in pairs:
                if deg[u] < delta and deg[v] < delta and rng.random() < p:
                    deg[u] += 1
                    deg[v] += 1
                    edges.append((u, v))
            return tuple(sorted(edges))

        rng = random.Random(2024)
        cases = [(n, 3, 0.7, n) for n in (0, 1, 2)]
        # From 256 nodes up the pair codes are shuffled in an array.
        cases += [(255, 4, 0.5, 3), (256, 3, 0.9, 1), (257, 6, 0.2, 2), (300, 5, 0.6, 11),
                  (400, 3, 1.0, 7), (512, 5, 0.05, 12)]
        cases += [(rng.randint(0, 40), rng.randint(1, 6), rng.random(), rng.randrange(10**6))
                  for _ in range(500)]
        for n, delta, p, seed in cases:
            assert gen_random_bounded(n, delta, p, seed).edges == shuffled_tuples(n, delta, p, seed)

    def test_generators_refuse_more_than_max_nodes(self):
        # Degree 0 keeps a generator without the check from allocating.
        with pytest.raises(ValueError, match=f"{MAX_NODES + 1} nodes exceed the bound"):
            gen_regular(MAX_NODES + 1, 0, 1)
        with pytest.raises(ValueError, match=f"{MAX_NODES + 1} nodes exceed the bound"):
            gen_random_bounded(MAX_NODES + 1, 0, 0.5, 1)

    def test_random_generator_refuses_more_than_its_bound(self):
        n = MAX_RANDOM_NODES + 1
        with pytest.raises(ValueError, match=f"{n} nodes exceed the random generator's bound"):
            gen_random_bounded(n, 3, 0.5, 1)

    def test_largest_pair_code_fits_the_shuffled_array(self):
        top = MAX_RANDOM_NODES - 1
        assert (top << 20 | top).bit_length() <= 8 * array(_PAIR_TYPECODE).itemsize

    def test_random_bounded_shuffles_a_compact_buffer(self):
        # 79,800 pairs: 0.3 MB as 4-byte codes, over 3 MB as a list of ints.
        tracemalloc.start()
        try:
            gen_random_bounded(400, 5, 0.6, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


@st.composite
def graphs(draw, max_n=10, max_delta=4):
    n = draw(st.integers(min_value=2, max_value=max_n))
    delta = draw(st.integers(min_value=1, max_value=max_delta))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    p = draw(st.floats(min_value=0.1, max_value=1.0))
    return gen_random_bounded(n, delta, p, seed)


@settings(max_examples=60, deadline=None)
@given(graphs(), st.integers(min_value=0, max_value=10**6))
def test_removal_sequences_keep_view_consistent(g, seed):
    # Random runs of every rule offer, at every slot, what the oracle
    # recomputes from a plain set of alive edges.
    for algo in RULES:
        check_against_oracle(g, algo, RandomPolicy(seed))


def check_alive_index(seq: AliveEdges) -> None:
    """Rebuild the sequence's Fenwick tree and count from its flags; raise on drift."""
    if seq._synced() != _fenwick(seq.flags) or len(seq) != sum(seq.flags):
        raise ValueError("alive-edge index drifted from alive edges")


def check_alive_sequence(seq: AliveEdges, alive: set, edges) -> None:
    """seq against sorted(alive), an independent model; edges are the graph's."""
    expect = sorted(alive)
    size = len(expect)
    assert len(seq) == size
    assert [seq[k] for k in range(size)] == expect
    assert [seq[k] for k in range(-size, 0)] == expect
    assert list(seq) == expect
    assert [seq.index(e) for e in expect] == list(range(size))
    for e in edges:
        assert (e in seq) == (e in alive)
        if e not in alive:
            with pytest.raises(ValueError):
                seq.index(e)
    for k in (size, -size - 1, size + 7):
        with pytest.raises(IndexError):
            seq[k]
    check_alive_index(seq)


class ModelAlive(AliveEdges):
    """AliveEdges that keeps the alive edges as a plain set too and checks
    the sequence against that set after every kill."""

    def __init__(self, graph):
        super().__init__(graph)
        self.edges = graph.edges
        self.model = set(graph.edges)
        check_alive_sequence(self, self.model, self.edges)

    def kill(self, ids):
        super().kill(ids)
        self.model -= {self.edges[i] for i in ids}
        check_alive_sequence(self, self.model, self.edges)


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=14, max_delta=5), st.integers(min_value=0, max_value=10**6))
def test_alive_sequence_follows_random_runs_of_every_rule(g, seed):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matchers, "AliveEdges", ModelAlive)
        for algo in RULES:
            matchers.run_algorithm(algo, g, matchers.RandomPolicy(seed))


@settings(max_examples=30, deadline=None)
@given(graphs(max_n=7, max_delta=4))
def test_alive_sequence_follows_pick_enumeration(g):
    # The enumeration runs the heuristic once per choice path, each run with
    # fresh alive edges that are only ever killed.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matchers, "AliveEdges", ModelAlive)
        for algo in RULES:
            for _ in islice(iter_all_pick_sequences(g, algo), 100):
                pass


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=40, max_delta=5), st.randoms(use_true_random=False))
def test_alive_sequence_catches_up_after_unread_removals(g, rng):
    # Reads at random steps only, so the index catches up on several
    # kills at once, flip by flip or by a rebuild.
    alive = AliveEdges(g)
    model = set(g.edges)
    while model:
        u, v = rng.choice(sorted(model))
        ids = sorted(g.edge_id[e] for e in model if u in e or v in e)
        alive.kill(ids)
        model -= {g.edges[i] for i in ids}
        if rng.random() < 0.3:
            check_alive_sequence(alive, model, g.edges)
    check_alive_sequence(alive, model, g.edges)


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_save_load_roundtrip(g):
    assert load_graph(save_graph(g)).edge_set == g.edge_set


# Every record form of the three readers.  The property below builds lines
# from these tags (and some that no reader knows), with fields either shaped
# by a form (its count, each field mostly of its kind) or drawn at random.
FORMS = {
    "graph": "graph <n> <m>", "e": "e <u> <v>", "m": "m <u> <v>",
    "s": "s <i> <u> <d> <v> <mode>", "r": "r <a> <b>",
}
MODES = (MODE_DEGREE, MODE_FREE)
INTS = ("0", "1", "2", "3", "4", "-1")
READERS = {
    "graph": (load_graph, ("graph", "e")),
    "matching": (load_matching, ("m",)),
    "matching_on_K4": (lambda text: load_matching(text, K4()), ("m",)),
    "trace_on_K4": (lambda text: load_trace(text, K4()), ("s", "r")),
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


def _spelled(field: str, rng) -> str:
    """An integer field in another spelling that int() reads as the same value."""
    if not re.fullmatch(r"\d+", field):
        return field
    spellings = [field, "+" + field, "0" + field, "٠" + field]
    if len(field) > 1:
        spellings.append(field[0] + "_" + field[1:])
    return rng.choice(spellings)


# Spaces and tabs, and the characters that separate fields for str.split
# but end a line for str.splitlines.
FIELD_SEPARATORS = (" ", " ", "\t", "  ", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85")


@st.composite
def documents(draw, valid_texts):
    """A document as a reader may meet it: a valid one or random records,
    with blank lines, comments, other spellings of integers, other spacing
    (including the whitespace that str.splitlines takes for a line break)
    and mixed line endings, and at times one random record line."""
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        lines = draw(st.sampled_from(valid_texts)).splitlines()
    else:
        lines = draw(st.lists(record_lines(), max_size=8))
    out = []
    for line in lines:
        parts = [_spelled(p, rng) for p in line.split()]
        out.append(rng.choice(FIELD_SEPARATORS).join(parts))
        if rng.random() < 0.1:
            out.append(rng.choice(["", "   ", "# note", "#", "#e 0 1"]))
    if draw(st.booleans()) and out:
        out.insert(rng.randrange(len(out) + 1), draw(record_lines()))
    ends = [rng.choice(["\n", "\r\n", "\n", "\r"]) for _ in out]
    return "".join(line + end for line, end in zip(out, ends))


def _valid_texts():
    """Valid documents of every kind; each reader also meets the others'."""
    graphs = [save_graph(gen_random_bounded(n, d, 0.7, seed))
              for n, d, seed in [(2, 1, 0), (5, 2, 1), (7, 3, 2), (9, 4, 3), (4, 3, 4)]]
    traces = [matchers.save_trace(matchers.run_algorithm(algo, K4(), matchers.RandomPolicy(seed)))
              for algo in RULES for seed in range(3)]
    pairings = [save_matching(Matching.from_pairs(pairs))
                for pairs in ([(0, 1), (2, 3)], [(1, 3)], [(0, 2), (1, 3)], [(3, 2)])]
    return [*graphs, "graph 0 0\n", "graph 3 0\n", "graph 4 2\ne 0 1\ne 2 3\n",
            *traces, *pairings]


def _is_int(field: str) -> bool:
    try:
        int(field)
    except ValueError:
        return False
    return True


def document_lines(text: str) -> list[str]:
    r"""The lines of a document: only \n, \r\n and \r end one."""
    return re.split(r"\r\n|\r|\n", text)


def first_bad_line(text: str, tags) -> int | None:
    """The first line a reader of these tags must reject on its own: an
    unknown tag, a wrong field count, a non-integer field or a bad mode."""
    for lineno, raw in enumerate(document_lines(text), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        names = FORMS[parts[0]].split() if parts[0] in tags else []
        if len(parts) != len(names) or any(
                value not in MODES if name == "<mode>" else not _is_int(value)
                for name, value in zip(names[1:], parts[1:])):
            return lineno
    return None


# The graph each matching reader checks its pairs against, if any.
PAIR_GRAPHS = {"matching": None, "matching_on_K4": K4()}


def first_bad_pair(text: str, g: Graph | None) -> int | None:
    """The first line a matching reader must reject: a grammar fault, a
    self-pair, a pair sharing a node with an earlier pair or, against g, a
    pair that is not an edge of g."""
    grammar = first_bad_line(text, ("m",))
    covered: set[int] = set()
    for lineno, raw in enumerate(document_lines(text), start=1):
        if lineno == grammar:
            return lineno
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        u, v = sorted(map(int, parts[1:]))
        if u == v or {u, v} & covered or (g is not None and (u, v) not in g.edge_set):
            return lineno
        covered |= {u, v}
    return None


# The errors of a line that first_bad_line rejects.
GRAMMAR_FAULTS = "unknown record|record must be|non-integer field|unknown mode"


@pytest.mark.parametrize("reader", READERS)
@settings(max_examples=300, deadline=None)
@given(documents(_valid_texts()))
@example("p 0 x")
@example("s 0 1 3 1 degree_rule")  # a step whose pick is a self-pair
@example("s 1 0 3 1 degree_rule\nr 0 4")  # a removed edge outside the graph
@example("m 0 1\nm 2 2")  # a self-pair
@example("m 0 1\n\nm 2 1")  # a pair sharing a node with an earlier one
@example("graph 3 1\r\ne +0 1_0\r\n")
@example("graph 3 1\n# c\n\ne 0 1\n")
@example("e 0 1\ngraph 3 1\n")
@example("graph 3 1\ngraph 3 1\ne 0 1\n")
@example("r 0 1\ns 1 0 3 1 degree_rule\n")
@example("s 1 0 3 1 degree_rule\r\n#x\r\nr 0 1\r\nr +0 0_2\r\nr 0 3\r\nr 1 2\r\nr 1 3\r\n"
         "s 2 2 1 3 degree_rule\r\nr 2 3\r\n")
@example("s 1 0 3 1 first\n")
def test_readers_raise_only_format_errors(reader, text):
    load, tags = READERS[reader]
    bad = first_bad_line(text, tags)
    if reader in PAIR_GRAPHS:
        # A matching reader rejects the first faulty line, of any kind.
        bad = first_bad_pair(text, PAIR_GRAPHS[reader])
    try:
        load(text)
    except GraphFormatError as exc:
        found = re.match(r"line (\d+): ", str(exc))
        if reader in PAIR_GRAPHS:
            assert found and int(found.group(1)) == bad, str(exc)
        elif bad is not None:
            # Lines are read in order, so no later line can be blamed.
            assert found and int(found.group(1)) <= bad, str(exc)
        else:
            # The grammar finds no faulty line, so the fault is one it
            # cannot see.
            assert not re.search(GRAMMAR_FAULTS, str(exc)), str(exc)
    else:
        assert bad is None, f"line {bad} was accepted"


# Documents in other spellings, spacings and line endings, with what each
# reader makes of them.
@pytest.mark.parametrize("text, outcome", [
    ("graph 3 1\r\ne +0 1_0\r\n", "line 2: edge (0, 10) has node id outside 0..2"),
    ("graph 3 1\n# c\n\ne 0 1\n", ((0, 1),)),
    ("graph\t٠3  01\re 0\t+1\n", ((0, 1),)),
    ("e 0 1\ngraph 3 1\n", "line 1: edge before header"),
    ("graph 3 1\ngraph 3 1\ne 0 1\n", "line 2: duplicate header"),
    ("graph 2 1\ne 0\x0b1\n", ((0, 1),)),
    ("graph 2 1\x1ce 0 1\n", "line 1: record must be 'graph <n> <m>'"),
])
def test_graph_reader_outcome(text, outcome):
    try:
        assert load_graph(text).edges == outcome
    except GraphFormatError as exc:
        assert str(exc) == outcome


@pytest.mark.parametrize("text, outcome", [
    ("r 0 1\ns 1 0 3 1 degree_rule\n", "line 1: removed edge before any step"),
    ("s 1 0 3 1 degree_rule\r\n#x\r\nr 0 1\r\nr +0 0_2\r\nr 0 3\r\nr 1 2\r\nr 1 3\r\n"
     "s 2 2 1 3 degree_rule\r\nr 2 3\r\n", [(0, 1), (2, 3)]),
    ("s 1 0 3 1 first\n", "line 1: unknown mode 'first'"),
    ("s 1 0\f3 1 degree_rule\nr 0 1\nr 0\x852\nr 0 3\nr 1 2\nr 1 3\n"
     "s 2\f2 1 3\x85degree_rule\nr 2\f3\n", [(0, 1), (2, 3)]),
])
def test_trace_reader_outcome(text, outcome):
    try:
        trace = load_trace(text, K4())
    except GraphFormatError as exc:
        assert str(exc) == outcome
    else:
        assert sorted(trace.result) == outcome
        assert trace.replay.died.tolist() == [1, 1, 1, 1, 1, 2]
