"""Matching-graph decomposition.

Given a heuristic matching M and a maximum matching, canonicalize the
optimum so that every component of (V, M union M*) is either a singleton
(one shared edge) or an alternating path that starts and ends with an
M*-edge, then classify components and their local ratios.
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

    @property
    def local_ratio(self) -> Fraction:
        return Fraction(self.m_count, self.opt_count)


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
    """List each component of (V, m union m2) once, in least-node order, as
    (shape, nodes, labels, edges).

    Every node touches at most one edge of each matching, so a component is
    a shared edge (shape "both"), a cycle ("cycle") or a path, whose shape
    names its two end labels, e.g. "opt-opt".  labels[i] ("m" or "opt")
    belongs to edges[i]; both follow the walk.  A path is walked from its
    smaller-id end; a cycle from its least node, m-edge first, closing edge
    included.
    """
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
    # Path ends first, so every path is entered at its smaller end; nodes
    # left over after that lie on shared edges or cycles.
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
    components: list[Component] = []
    for shape, nodes, labels, edges in _union_components(m, m_star):
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
                Component(PATH, tuple(nodes), m_edges, opt_edges, (nodes[0], nodes[-1]))
            )

    if sum(c.m_count for c in components) != len(m):
        raise NonCanonicalError("components do not partition the heuristic matching")
    if sum(c.opt_count for c in components) != len(m_star):
        raise NonCanonicalError("components do not partition the optimum matching")
    f_edges = frozenset(g.edge_set - m.pairs - m_star.pairs)
    return Decomposition(g, m, m_star, tuple(components), f_edges)


def endpoint_degrees(dec: Decomposition) -> dict[int, int]:
    """Original-graph degree of every path endpoint."""
    return {w: dec.graph.degree(w) for w in sorted(dec.endpoints)}


def format_components(dec: Decomposition) -> str:
    """Text dump: one line per component 'c <kind> <m_X> <m*_X> <node list>'."""
    lines = []
    for comp in dec.components:
        nodes = " ".join(str(v) for v in comp.nodes)
        lines.append(f"c {comp.kind} {comp.m_count} {comp.opt_count} {nodes}")
    return "\n".join(lines) + "\n"
