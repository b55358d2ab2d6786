"""Exact maximum-cardinality matching oracles.

``maximum_matching`` is a blossom-style repeated augmenting-path search,
O(n^3), deterministic (ascending-id search order), and self-certifying: a
final failed search from every unmatched node witnesses optimality.
``max_matching_bruteforce`` is the independent cross-validation oracle.
"""

from __future__ import annotations

from collections import deque

from .graphs import Graph, Matching


class BudgetExceededError(RuntimeError):
    """Raised when an exact search exceeds its configured budget."""


class CertificateError(RuntimeError):
    """The optimality certificate found an augmenting path in a result."""


def _find_augmenting_path(g: Graph, match: list[int], root: int) -> bool:
    """One BFS phase with blossom contraction; augments match in place.

    Returns True if an augmenting path from root was found and applied.
    """
    n = g.n
    parent = [-1] * n
    base = list(range(n))
    used = [False] * n
    used[root] = True
    queue = deque([root])

    def lca(a: int, b: int) -> int:
        hit = [False] * n
        x = a
        while True:
            x = base[x]
            hit[x] = True
            if match[x] == -1:
                break
            x = parent[match[x]]
        y = b
        while True:
            y = base[y]
            if hit[y]:
                return y
            y = parent[match[y]]

    def mark_path(v: int, b: int, child: int, in_blossom: list[bool]) -> None:
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    while queue:
        v = queue.popleft()
        for to in g.adjacency[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and parent[match[to]] != -1):
                # Odd cycle: contract the blossom around the common base.
                cur_base = lca(v, to)
                in_blossom = [False] * n
                mark_path(v, cur_base, to, in_blossom)
                mark_path(to, cur_base, v, in_blossom)
                for i in range(n):
                    if in_blossom[base[i]]:
                        base[i] = cur_base
                        if not used[i]:
                            used[i] = True
                            queue.append(i)
            elif parent[to] == -1:
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
                used[match[to]] = True
                queue.append(match[to])
    return False


def maximum_matching(g: Graph, certify: bool = True) -> Matching:
    """A maximum-cardinality matching (the size is unique, the edge set is not).

    With certify=True (default) ``has_augmenting_path`` searches again from
    every unmatched node and must fail, which certifies maximality by Berge's
    criterion; a found path raises CertificateError.
    """
    match = [-1] * g.n
    for v in range(g.n):
        if match[v] == -1:
            _find_augmenting_path(g, match, v)
    result = Matching.from_pairs((v, match[v]) for v in range(g.n) if v < match[v])
    if certify and has_augmenting_path(g, result):
        raise CertificateError("augmenting path found after termination; matching not maximum")
    return result


def has_augmenting_path(g: Graph, m: Matching) -> bool:
    """Independent Berge check for an arbitrary matching of g."""
    match = [-1] * g.n
    for u, v in m:
        match[u] = v
        match[v] = u
    for v in range(g.n):
        if match[v] == -1:
            if _find_augmenting_path(g, list(match), v):
                return True
    return False


def max_matching_bruteforce(g: Graph, max_edges: int = 24) -> int:
    """Exact maximum matching size by exhaustive branching.

    Branches on the lowest-id node that still has an available edge:
    either it stays unmatched or it pairs with one of its available
    neighbors.  Guarded by an edge-count budget.
    """
    if g.m > max_edges:
        raise BudgetExceededError(f"{g.m} edges exceeds brute-force budget of {max_edges}")
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
