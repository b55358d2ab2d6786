#!/usr/bin/env python3
"""Tour of the greedy heuristics and their trace records.

Runs every heuristic on a few tiny graphs under different policies and
prints the step-by-step traces, showing how nondeterminism is resolved
and recorded.
"""

from matchforge import (
    FirstPolicy,
    Graph,
    RandomPolicy,
    ScriptedPolicy,
    run_algorithm,
    run_shuffle,
)


def show(title, trace):
    print(f"\n== {title} ==")
    for st in trace.steps:
        print(f"  step {st.index}: select {st.selected} (degree {st.sel_degree}) "
              f"match {st.partner}  [{st.mode}]  removes {list(st.removed)}")
    print(f"  matching: {sorted(trace.result.pairs)}  size {len(trace.result)}")


def main():
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    k4 = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])

    show("minimum-degree greedy on the 4-path (first policy)",
         run_algorithm("mingreedy", p4, FirstPolicy()))
    show("minimum-degree greedy on the 6-cycle (seeded random policy)",
         run_algorithm("mingreedy", c6, RandomPolicy(7)))

    # On K4 every degree is 3, so the free variant may open with any edge.
    show("free variant on K4 (scripted: first edge, then forced tail)",
         run_algorithm("one_two_mingreedy", k4, ScriptedPolicy([0, 0, 0])))

    show("degree-1-preferring edge greedy on the 4-path",
         run_algorithm("karpsipser", p4, FirstPolicy()))
    show("plain edge greedy on K4", run_algorithm("greedy", k4, FirstPolicy()))
    show("permutation matcher on the 4-path with order (1, 0, 2, 3)",
         run_shuffle(p4, (1, 0, 2, 3)))


if __name__ == "__main__":
    main()
