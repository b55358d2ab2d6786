"""Exact maximum-cardinality matching oracles.

``maximum_matching`` runs Edmonds' blossom search (1965) from each node
still unmatched, in ascending id, and matches a node with an unmatched
neighbor to the first one without a search, as the search would; it is
deterministic and self-certifying:
a final failed search from every unmatched node witnesses optimality.  Each
search keeps state only for the nodes it reaches and relabels only the
members of the blossoms it contracts, so it costs what it visits, not O(n)
per root and per blossom as with arrays over all nodes.
``max_matching_bruteforce`` is the independent cross-validation oracle.
"""

from __future__ import annotations

from collections import deque

from .graphs import Graph, Matching, SearchBudgetExceededError


class CertificateError(RuntimeError):
    """The optimality certificate found an augmenting path in a result."""


def _find_augmenting_path(g: Graph, match: list[int], root: int) -> bool:
    """Augment match in place along a path from the unmatched root.

    Returns True if an augmenting path from root was found and applied; a
    failed search leaves match untouched.  A root with an unmatched neighbor
    is matched to the first one without a search: ``_blossom_search`` scans
    the root's neighbors in order, and a matched one leads it to no
    unmatched node before that neighbor does, so it would augment exactly
    this edge.
    """
    for w in g.adjacency[root]:
        if match[w] == -1:
            match[root] = w
            match[w] = root
            return True
    return _blossom_search(g, match, root)


def _blossom_search(g: Graph, match: list[int], root: int) -> bool:
    """One BFS phase with blossom contraction; augments match in place.

    Returns as ``_find_augmenting_path`` does.  ``parent`` and ``used`` hold
    only reached nodes, and a node missing from ``base`` or ``members`` is a
    blossom of its own.
    """
    parent: dict[int, int] = {}
    base: dict[int, int] = {}              # node -> its blossom's base
    members: dict[int, list[int]] = {}     # base -> the nodes with that base
    used = {root}
    queue = deque([root])

    def lca(a: int, b: int) -> int:
        hit = set()
        x = a
        while True:
            x = base.get(x, x)
            hit.add(x)
            if match[x] == -1:
                break
            x = parent[match[x]]
        y = b
        while True:
            y = base.get(y, y)
            if y in hit:
                return y
            y = parent[match[y]]

    def mark_path(v: int, b: int, child: int, marked: set[int]) -> None:
        while (v_base := base.get(v, v)) != b:
            mate = match[v]
            marked.add(v_base)
            marked.add(base.get(mate, mate))
            parent[v] = child
            child = mate
            v = parent[mate]

    while queue:
        v = queue.popleft()
        mate = match[v]
        v_base = base.get(v, v)   # changes only when a blossom is contracted
        for to in g.adjacency[v]:
            if to == mate or v_base == base.get(to, to):
                continue
            if to == root or (match[to] != -1 and match[to] in parent):
                # Odd cycle: contract the blossom around the common base.
                cur_base = lca(v, to)
                marked: set[int] = set()
                mark_path(v, cur_base, to, marked)
                mark_path(to, cur_base, v, marked)
                # Every member of a marked base joins cur_base (never marked
                # itself: both walks stop at it); unused ones are queued in
                # ascending id.
                moved, fresh = [], []
                for b in marked:
                    for x in members.pop(b, (b,)):
                        base[x] = cur_base
                        moved.append(x)
                        if x not in used:
                            fresh.append(x)
                fresh.sort()
                used.update(fresh)
                queue.extend(fresh)
                members.setdefault(cur_base, [cur_base]).extend(moved)
                v_base = base.get(v, v)
            elif to not in parent:
                parent[to] = v
                if match[to] == -1:
                    # Augment along the alternating path back to the root.
                    while to != -1:
                        prev = parent[to]
                        nxt = match[prev]
                        match[prev] = to
                        match[to] = prev
                        to = nxt
                    return True
                used.add(match[to])
                queue.append(match[to])
    return False


def maximum_matching(g: Graph) -> Matching:
    """A maximum-cardinality matching (the size is unique, the edge set is not).

    ``has_augmenting_path`` then searches again from every unmatched node and
    must fail, which certifies maximality by Berge's criterion; a found path
    raises CertificateError.
    """
    match = [-1] * g.n
    for v in range(g.n):
        if match[v] == -1:
            _find_augmenting_path(g, match, v)
    result = Matching.from_pairs((v, match[v]) for v in range(g.n) if v < match[v])
    if has_augmenting_path(g, result):
        raise CertificateError("augmenting path found after termination; matching not maximum")
    return result


def has_augmenting_path(g: Graph, m: Matching) -> bool:
    """Independent Berge check for an arbitrary matching of g.

    A failed search leaves ``match`` untouched and the first found path ends
    the check, so every search runs on the matching m itself.
    """
    match = [-1] * g.n
    for u, v in m.pairs:
        match[u] = v
        match[v] = u
    for v in range(g.n):
        if match[v] == -1 and _find_augmenting_path(g, match, v):
            return True
    return False


_MAX_BRUTEFORCE_EDGES = 24


def max_matching_bruteforce(g: Graph) -> int:
    """Exact maximum matching size by exhaustive branching.

    Branches on the lowest-id node that still has an available edge:
    either it stays unmatched or it pairs with one of its available
    neighbors.  Refuses a graph of more than ``_MAX_BRUTEFORCE_EDGES`` edges.
    """
    if g.m > _MAX_BRUTEFORCE_EDGES:
        raise SearchBudgetExceededError(None, _MAX_BRUTEFORCE_EDGES, "edges")
    adj_mask = [0] * g.n
    for u, v in g.edges:
        adj_mask[u] |= 1 << v
        adj_mask[v] |= 1 << u
    memo: dict[int, int] = {}

    def rec(free: int) -> int:
        best = memo.get(free)
        if best is not None:
            return best
        pick = -1
        rest = free
        while rest:
            v = (rest & -rest).bit_length() - 1
            if adj_mask[v] & free:
                pick = v
                break
            rest &= rest - 1
        if pick == -1:
            memo[free] = 0
            return 0
        # Leave pick unmatched (drop it), or match it to each available neighbor.
        best = rec(free & ~(1 << pick))
        nbrs = adj_mask[pick] & free
        while nbrs:
            w = (nbrs & -nbrs).bit_length() - 1
            best = max(best, 1 + rec(free & ~(1 << pick) & ~(1 << w)))
            nbrs &= nbrs - 1
        memo[free] = best
        return best

    return rec((1 << g.n) - 1)
