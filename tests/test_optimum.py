import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import matchforge
from matchforge import optimum
from matchforge.graphs import (
    Graph,
    Matching,
    SearchBudgetExceededError,
    gen_random_bounded,
    gen_regular,
)
from matchforge.optimum import (
    has_augmenting_path,
    max_matching_bruteforce,
    maximum_matching,
)


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


def test_triangle():
    tri = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    assert len(maximum_matching(tri)) == 1


def test_petersen_is_perfect():
    assert len(maximum_matching(petersen())) == 5
    assert max_matching_bruteforce(petersen()) == 5


def test_single_edge():
    assert max_matching_bruteforce(Graph.from_edges(2, [(0, 1)])) == 1


def test_odd_cycle():
    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert max_matching_bruteforce(c5) == 2
    assert len(maximum_matching(c5)) == 2


def test_blossom_needs_contraction():
    # Two triangles joined by a path: augmenting paths must pass through
    # odd cycles.
    g = Graph.from_edges(8, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4),
                             (4, 5), (5, 6), (4, 6), (6, 7)])
    assert len(maximum_matching(g)) == max_matching_bruteforce(g)


def test_agreement_on_random_graphs():
    for seed in range(400):
        rng = random.Random(seed)
        g = gen_random_bounded(rng.randint(2, 9), rng.randint(1, 4),
                               rng.uniform(0.2, 0.9), seed)
        if g.m > 24:
            continue
        m = maximum_matching(g)
        m.validate(g)
        assert len(m) == max_matching_bruteforce(g)


def _maximum_matching_by_search(g: Graph) -> Matching:
    """maximum_matching's loop without the free-neighbor shortcut: a blossom
    search from every node still unmatched, in ascending id."""
    match = [-1] * g.n
    for v in range(g.n):
        if match[v] == -1:
            optimum._blossom_search(g, match, v)
    return Matching.from_pairs((v, match[v]) for v in range(g.n) if v < match[v])


def test_free_neighbor_shortcut_keeps_the_searched_optimum():
    # Random graphs of 3 to 40 nodes, each with a triangle, so that searches
    # contract blossoms; the edge sets must agree, not only the sizes.
    for seed in range(600):
        rng = random.Random(seed)
        n = rng.randint(3, 40)
        a, b, c = rng.sample(range(n), 3)
        pairs = [(a, b), (b, c), (a, c)]
        pairs += ((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n)))
        g = Graph.from_edges(n, {(u, v) for u, v in pairs if u != v})
        assert maximum_matching(g) == _maximum_matching_by_search(g), seed


def test_no_augmenting_path_certificate():
    for seed in range(100):
        g = gen_random_bounded(10, 3, 0.7, seed)
        m = maximum_matching(g)
        assert not has_augmenting_path(g, m)


# The search skips its first two roots, so on two disjoint edges it stops
# at (2, 3) and the certificate must find the augmenting path 0-1.
CRIPPLED_SEARCH = textwrap.dedent("""
    from matchforge import optimum
    from matchforge.graphs import Graph

    real = optimum._find_augmenting_path
    calls = []

    def crippled(g, match, root):
        calls.append(root)
        return len(calls) > 2 and real(g, match, root)

    optimum._find_augmenting_path = crippled
    try:
        optimum.maximum_matching(Graph.from_edges(4, [(0, 1), (2, 3)]))
    except optimum.CertificateError as exc:
        print(f"error: {exc}")
""")


def test_certificate_rejects_a_non_maximum_result(monkeypatch, capsys):
    # Restores the real search after the script swaps it out.
    monkeypatch.setattr(optimum, "_find_augmenting_path", optimum._find_augmenting_path)
    exec(CRIPPLED_SEARCH, {})
    assert capsys.readouterr().out == (
        "error: augmenting path found after termination; matching not maximum\n"
    )


def test_certificate_survives_optimize():
    env = dict(os.environ)
    package_root = str(Path(matchforge.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", CRIPPLED_SEARCH], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "error: augmenting path found after termination" in proc.stdout


def test_submaximal_matching_admits_augmenting_path():
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert not has_augmenting_path(p3, Matching.from_pairs([(0, 1)]))
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert has_augmenting_path(p4, Matching.from_pairs([(1, 2)]))


def test_bruteforce_budget():
    g = gen_random_bounded(30, 4, 1.0, 0)
    assert g.m > 24
    with pytest.raises(SearchBudgetExceededError, match="budget of 24 edges") as exc:
        max_matching_bruteforce(g)
    assert exc.value.bound is None
    # The bound itself: 24 edges are answered, 25 refused.
    at_bound = Graph.from_edges(g.n, g.edges[:24])
    assert max_matching_bruteforce(at_bound) == len(maximum_matching(at_bound))
    with pytest.raises(SearchBudgetExceededError, match="budget of 24 edges"):
        max_matching_bruteforce(Graph.from_edges(g.n, g.edges[:25]))


def _nx_size(nx, g: Graph) -> int:
    other = nx.Graph()
    other.add_nodes_from(range(g.n))
    other.add_edges_from(g.edges)
    return len(nx.max_weight_matching(other, maxcardinality=True))


def test_size_matches_networkx_on_blossom_rich_graphs():
    # Up to 60 nodes and 3n random edges: many nested blossoms, past the
    # brute-force oracle's 24 edges.
    nx = pytest.importorskip("networkx")
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(2, 60)
        pairs = ((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3 * n)))
        g = Graph.from_edges(n, {(u, v) for u, v in pairs if u != v})
        assert len(maximum_matching(g)) == _nx_size(nx, g), seed


def test_size_matches_networkx_at_n_1000():
    # An oracle at the size of the benchmark's graphs, where brute force
    # cannot go: three dense graphs with near-perfect matchings and three
    # sparse ones (paths, trees and odd cycles) without a perfect matching.
    nx = pytest.importorskip("networkx")
    graphs = [gen_regular(1000, 3, 1), gen_regular(1000, 4, 2),
              gen_random_bounded(1000, 5, 0.6, 3), gen_random_bounded(1000, 2, 0.002, 4),
              gen_random_bounded(1000, 3, 0.003, 5), gen_random_bounded(1000, 4, 0.004, 6)]
    imperfect = 0
    for g in graphs:
        m = maximum_matching(g)
        m.validate(g)
        assert len(m) == _nx_size(nx, g)
        imperfect += 2 * len(m) < g.n
    assert imperfect >= 3
