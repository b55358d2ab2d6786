"""Matching-graph decomposition.

Given a heuristic matching M and a maximum matching, canonicalize the
optimum so that every component of (V, M union M*) is either a singleton
(one shared edge) or an alternating path that starts and ends with an
M*-edge, then classify the components.  Only the symmetric difference of
the two matchings is walked; the shared edges are the singletons, taken by
set intersection.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import Edge, Graph, Matching, norm_edge
from . import optimum

SINGLETON = "singleton"
PATH = "path"


class CanonicalizationError(ValueError):
    """A component shape that a maximal matching cannot produce was found."""


class NonCanonicalError(ValueError):
    """decompose() was handed a non-canonicalized optimum matching."""


@dataclass(frozen=True)
class Component:
    """One component of the matching graph.

    nodes are listed along the alternating structure; for a path the first
    and last node are the two endpoints (no incident M-edge), and the walk
    starts at the endpoint with the smaller id.
    """

    kind: str
    nodes: tuple[int, ...]
    m_edges: tuple[Edge, ...]
    opt_edges: tuple[Edge, ...]
    endpoints: tuple[int, ...]

    @property
    def m_count(self) -> int:
        return len(self.m_edges)

    @property
    def opt_count(self) -> int:
        return len(self.opt_edges)


@dataclass(frozen=True)
class Decomposition:
    graph: Graph
    matching: Matching
    m_star: Matching
    components: tuple[Component, ...]
    f_edges: frozenset[Edge]

    @property
    def component_of(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for i, comp in enumerate(self.components):
            for v in comp.nodes:
                out[v] = i
        return out

    @property
    def endpoints(self) -> frozenset[int]:
        return frozenset(w for c in self.components for w in c.endpoints)

    @property
    def global_ratio(self) -> Fraction:
        if len(self.m_star) == 0:
            return Fraction(1)
        return Fraction(len(self.matching), len(self.m_star))


def _union_components(m: Matching, m2: Matching):
    """List each component of (V, m symmetric-difference m2) once, in
    least-node order, as (shape, nodes, labels, edges).

    These are the components of (V, m union m2) other than its shared edges,
    which are singletons that a caller takes from ``m.pairs & m2.pairs``.
    Every node touches at most one edge of each matching, so a component is
    a cycle ("cycle") or a path, whose shape names its two end labels, e.g.
    "opt-opt".  labels[i] ("m" or "opt") belongs to edges[i]; both follow
    the walk.  A path is walked from its smaller-id end; a cycle from its
    least node, m-edge first, closing edge included.
    """
    mate1: dict[int, int] = {}
    mate2: dict[int, int] = {}
    for mate, pairs in ((mate1, m.pairs - m2.pairs), (mate2, m2.pairs - m.pairs)):
        for u, v in pairs:
            mate[u] = v
            mate[v] = u
    covered = sorted(mate1.keys() | mate2.keys())
    ends = [v for v in covered if (v in mate1) != (v in mate2)]
    seen: set[int] = set()
    comps = []
    # Path ends first, so every path is entered at its smaller end; nodes
    # left over after that lie on cycles.
    for start in ends + covered:
        if start in seen:
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


def canonicalize(g: Graph, m: Matching, m_prime: Matching) -> Matching:
    """Transform a maximum matching so the matching graph has only singletons
    and alternating paths that start and end with an optimum edge.

    Mixed paths and cycles have their optimum edges replaced by the heuristic
    edges of the same component, which preserves cardinality.  A component
    bounded by heuristic edges on both ends cannot occur for a maximal m
    against a maximum m_prime and is reported as an internal error.  That
    m_prime is maximum is certified first by Berge's criterion: it must admit
    no augmenting path.
    """
    m.validate(g)
    m_prime.validate(g)
    if optimum.has_augmenting_path(g, m_prime):
        raise CanonicalizationError("second matching is not maximum: it has an augmenting path")

    new_star: set[Edge] = set(m_prime.pairs)
    for shape, _, labels, edges in _union_components(m, m_prime):
        if shape == "m-m":
            raise CanonicalizationError(
                "component bounded by two heuristic edges: the first matching "
                "is larger there, so the second was not maximum"
            )
        if shape in ("cycle", "m-opt", "opt-m"):
            # Swap: drop this component's optimum edges, adopt its m-edges.
            for e, lab in zip(edges, labels):
                if lab == "opt":
                    new_star.discard(e)
                else:
                    new_star.add(e)
    result = Matching(frozenset(new_star))
    if len(result) != len(m_prime):
        raise CanonicalizationError("canonicalization changed the matching size")
    return result


def decompose(g: Graph, m: Matching, m_star: Matching) -> Decomposition:
    """Classify every component of (V, m union m_star).

    Requires a canonicalized m_star; any cycle or mixed path is an error.
    """
    m.validate(g)
    m_star.validate(g)
    # Each shared edge is a singleton; the walk lists the other components.
    components = [Component(SINGLETON, e, (e,), (e,), ()) for e in m.pairs & m_star.pairs]
    for shape, nodes, labels, edges in _union_components(m, m_star):
        if shape == "cycle":
            raise NonCanonicalError(f"cycle through node {min(nodes)} in the matching graph")
        if shape != "opt-opt":
            raise NonCanonicalError(
                f"mixed alternating path through node {min(nodes)}; canonicalize first"
            )
        m_edges = tuple(e for e, lab in zip(edges, labels) if lab == "m")
        opt_edges = tuple(e for e, lab in zip(edges, labels) if lab == "opt")
        components.append(Component(PATH, tuple(nodes), m_edges, opt_edges, (nodes[0], nodes[-1])))
    # Components are node-disjoint, so their least nodes order them fully.
    components.sort(key=lambda c: min(c.nodes))

    if sum(c.m_count for c in components) != len(m):
        raise NonCanonicalError("components do not partition the heuristic matching")
    if sum(c.opt_count for c in components) != len(m_star):
        raise NonCanonicalError("components do not partition the optimum matching")
    f_edges = frozenset(g.edge_set - m.pairs - m_star.pairs)
    return Decomposition(g, m, m_star, tuple(components), f_edges)


def format_components(dec: Decomposition) -> str:
    """Text dump: one line per component 'c <kind> <m_X> <m*_X> <node list>'."""
    lines = []
    for comp in dec.components:
        nodes = " ".join(str(v) for v in comp.nodes)
        lines.append(f"c {comp.kind} {comp.m_count} {comp.opt_count} {nodes}")
    return "\n".join(lines) + "\n"
