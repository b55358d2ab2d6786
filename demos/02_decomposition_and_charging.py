#!/usr/bin/env python3
"""From a traced run to a verified coin ledger.

Walks the full analysis pipeline on a 14-node instance built so that one
endpoint draws three credits: the optimum is canonicalized, the matching
graph is decomposed, and the ledger shows the third credit being
cancelled while every balance bound still holds.
"""

from matchforge import (
    FirstPolicy,
    Graph,
    build_ledger,
    canonicalize,
    decompose,
    maximum_matching,
    run_algorithm,
)
from matchforge.charging import verify_all
from matchforge.decomposition import format_components


def main():
    # Endpoint 12 is adjacent to three matched nodes over extra edges; its
    # degree falls 3 -> 1 at step 2 (two credits) and 1 -> 0 at step 3.
    g = Graph.from_edges(14, [
        (10, 11), (10, 12), (10, 13), (11, 13),
        (0, 6), (0, 1), (1, 2), (2, 3), (3, 9),
        (0, 12), (1, 12), (3, 12),
        (0, 4), (0, 5), (3, 7), (3, 8), (0, 2),
        (4, 5), (7, 8),
        (4, 6), (5, 6), (7, 9), (8, 9),
    ])
    print(f"graph: n={g.n} m={g.m} max degree {g.delta}")

    trace = run_algorithm("one_two_mingreedy", g, FirstPolicy())
    print("picked edges:", [st.edge for st in trace.steps])

    m_star = canonicalize(g, trace.result, maximum_matching(g))
    dec = decompose(g, trace.result, m_star)
    print("\nmatching-graph components:")
    print(format_components(dec), end="")
    print(f"global ratio |M|/|M*| = {dec.global_ratio}")

    ledger = build_ledger(trace, dec, delta=6)
    print(f"\ncoin value theta = {ledger.theta}")
    for t in ledger.transfers:
        note = "  (cancelled: third credit)" if t.cancelled else ""
        print(f"  transfer {t.source} -> {t.endpoint} at step {t.step}{note}")
    for d in ledger.donations:
        print(f"  donation {d.source} -> {d.recipient}: {d.coins} coins ({d.kind})")

    for ci, comp in enumerate(dec.components):
        print(f"  component {ci} ({comp.kind}{comp.nodes}): "
              f"credits {ledger.credits_in[ci]}, debits {ledger.debits_out[ci]}, "
              f"certified local ratio {ledger.local_ratio(ci)}")

    report = verify_all(ledger)
    print(f"\n{sum(c.ok for c in report.checks)}/{len(report.checks)} checks pass; "
          f"all green: {report.all_pass}")


if __name__ == "__main__":
    main()
