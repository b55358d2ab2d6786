"""The exact text of every error the three document readers raise.

Each row is (reader, document, message).  A message names the first faulty
line; the rows marked "first" hold a second, later fault that must not be
the one reported.
"""

import pytest

from matchforge.graphs import MAX_NODES, Graph, GraphFormatError, load_graph, load_matching
from matchforge.matchers import load_trace

K4 = Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
P3 = Graph(3, ((0, 1), (1, 2)))

READERS = {
    "graph": load_graph,
    "trace": lambda text: load_trace(text, K4),
    "matching": load_matching,
    "matching_on_P3": lambda text: load_matching(text, P3),
}

GRAPH_FORM = "'graph <n> <m>'"
EDGE_FORM = "'e <u> <v>'"
STEP_FORM = "'s <i> <u> <d> <v> <mode>'"
REMOVED_FORM = "'r <a> <b>'"
PAIR_FORM = "'m <u> <v>'"

MESSAGES = [
    # -- graph documents: the grammar, for each form
    ("graph", "graph 2 1\nedge 0 1\n", "line 2: unknown record 'edge'"),
    ("graph", "graph 2\n", f"line 1: record must be {GRAPH_FORM}"),
    ("graph", "graph 2 1 0\n", f"line 1: record must be {GRAPH_FORM}"),
    ("graph", "graph 2 1\ne 0\n", f"line 2: record must be {EDGE_FORM}"),
    ("graph", "graph 2 1\ne 0 1 1\n", f"line 2: record must be {EDGE_FORM}"),
    ("graph", "graph x 1\n", f"line 1: non-integer field in {GRAPH_FORM}"),
    ("graph", "graph 2 1.0\n", f"line 1: non-integer field in {GRAPH_FORM}"),
    ("graph", "graph 2 1\ne 0 x\n", f"line 2: non-integer field in {EDGE_FORM}"),
    ("graph", "graph 2 1\ne 0.0 1\n", f"line 2: non-integer field in {EDGE_FORM}"),
    # -- graph documents: the header
    ("graph", "# c\ne 0 1\ngraph 2 1\n", "line 2: edge before header"),
    ("graph", "graph 2 0\ngraph 2 0\n", "line 2: duplicate header"),
    ("graph", "graph -1 0\n", "line 1: negative header field"),
    ("graph", "graph 2 -1\n", "line 1: negative header field"),
    ("graph", f"graph {MAX_NODES + 1} -1\n", "line 1: negative header field"),
    ("graph", f"graph {MAX_NODES + 1} 0\n",
     f"line 1: {MAX_NODES + 1} nodes exceed the bound of {MAX_NODES}"),
    ("graph", "", "missing 'graph <n> <m>' header"),
    ("graph", "# only a comment\n\n", "missing 'graph <n> <m>' header"),
    ("graph", "graph 3 2\ne 0 1\n", "header announced 2 edges, found 1"),
    ("graph", "graph 3 0\ne 0 1\n", "header announced 0 edges, found 1"),
    # -- graph documents: the four edge rules
    ("graph", "graph 3 1\ne 1 1\n", "line 2: self-loop at node 1"),
    ("graph", "graph 3 1\ne 0 3\n", "line 2: edge (0, 3) has node id outside 0..2"),
    ("graph", "graph 3 1\ne -1 2\n", "line 2: edge (-1, 2) has node id outside 0..2"),
    ("graph", "graph 3 1\ne 2 1\n", "line 2: edge (2, 1) not in canonical (min, max) order"),
    ("graph", "graph 3 2\ne 0 1\ne 0 1\n", "line 3: duplicate edge (0, 1)"),
    ("graph", "graph 3 2\n\n# c\ne 0 1\n\ne 0 1\n", "line 6: duplicate edge (0, 1)"),
    ("graph", "graph 3 2\r\ne 0 1\r\n\r\ne +0 0_1\r\n", "line 4: duplicate edge (0, 1)"),
    # -- graph documents: the first faulty line wins
    ("graph", "graph 2 0\ngraph x 1\n", f"line 2: non-integer field in {GRAPH_FORM}"),
    ("graph", "graph 2 0\ngraph 2\n", f"line 2: record must be {GRAPH_FORM}"),
    ("graph", "e x 1\ngraph 2 1\n", f"line 1: non-integer field in {EDGE_FORM}"),
    ("graph", "graph 3 3\ne 0 1\ne 0 1\nx\n", "line 3: duplicate edge (0, 1)"),
    ("graph", "graph 3 3\ne 0 1\ne 0 1\ne 2 2\n", "line 3: duplicate edge (0, 1)"),
    ("graph", "graph 3 3\ne 0 1\ne 0 1\ngraph 3 3\n", "line 3: duplicate edge (0, 1)"),
    ("graph", "graph 3 9\ne 1 2\ne 0 1\ne 1 2\ne 0 1\n", "line 4: duplicate edge (1, 2)"),
    # -- trace documents: the grammar, for each form
    ("trace", "x 1\n", "line 1: unknown record 'x'"),
    ("trace", "s 1 0 3 1 degree_rule\nr 0 1\ne 0 2\n", "line 3: unknown record 'e'"),
    ("trace", "s 1 0 3 1\n", f"line 1: record must be {STEP_FORM}"),
    ("trace", "s 1 0 3 1 degree_rule\nr 0\n", f"line 2: record must be {REMOVED_FORM}"),
    ("trace", "s 1 0 x 1 degree_rule\n", f"line 1: non-integer field in {STEP_FORM}"),
    ("trace", "s 1 0 3 1 degree_rule\nr 0 y\n", f"line 2: non-integer field in {REMOVED_FORM}"),
    # -- trace documents: orphans and modes
    ("trace", "# c\nr 0 1\ns 1 0 3 1 degree_rule\n", "line 2: removed edge before any step"),
    ("trace", "\nr 0 1\nx\n", "line 2: removed edge before any step"),
    ("trace", "s 1 0 3 1 first\n", "line 1: unknown mode 'first'"),
    ("trace", "s 1 0 3 1 degree_rule\nr 0 1\ns 2 2 1 3 Free_edge\n",
     "line 3: unknown mode 'Free_edge'"),
    # -- trace documents: the first faulty line wins
    ("trace", "s x 0 3 1 first\n", f"line 1: non-integer field in {STEP_FORM}"),
    ("trace", "r x 1\ns 1 0 3 1 degree_rule\n", f"line 1: non-integer field in {REMOVED_FORM}"),
    ("trace", "r 0 1\ns 1 0 3 1 first\n", "line 1: removed edge before any step"),
    ("trace", "s 1 0 3 1 first\nx\n", "line 1: unknown mode 'first'"),
    # -- matching documents
    ("matching", "m 0 1\nx 0 1\n", "line 2: unknown record 'x'"),
    ("matching", "m 0 1 2\n", f"line 1: record must be {PAIR_FORM}"),
    ("matching", "m 0 a\n", f"line 1: non-integer field in {PAIR_FORM}"),
    ("matching", "m 2 2\n", "line 1: self-pair at node 2"),
    ("matching", "m 0 1\n# c\nm 2 1\n", "line 3: pair (1, 2) shares a node with an earlier pair"),
    ("matching_on_P3", "m 2 0\n", "line 1: matching pair (0, 2) is not an edge of the graph"),
    ("matching_on_P3", "m 1 1\n", "line 1: self-pair at node 1"),
    ("matching_on_P3", "m 0 1\nm 1 2\n", "line 2: pair (1, 2) shares a node with an earlier pair"),
    ("matching_on_P3", "m 0 2\nm 0 x\n", "line 1: matching pair (0, 2) is not an edge of the graph"),
]


@pytest.mark.parametrize("reader, text, message", MESSAGES)
def test_reader_message(reader, text, message):
    with pytest.raises(GraphFormatError) as err:
        READERS[reader](text)
    assert str(err.value) == message
