#!/usr/bin/env python3
"""Exhaustive worst-case adversaries over heuristic nondeterminism.

For a batch of random degree-bounded graphs, searches all choice
sequences of the plain and free-variant minimum-degree heuristics and
confirms the worst ratios stay at or above (delta - 1) / (2 delta - 3).
"""

import random
import sys
from fractions import Fraction

from matchforge import gen_random_bounded, maximum_matching, worst_case_size
from matchforge.charging import target_ratio


def main():
    for delta in (3, 4, 5):
        floor = target_ratio(delta)
        worst = Fraction(1)
        hits = 0
        for seed in range(400):
            rng = random.Random(seed)
            g = gen_random_bounded(rng.randint(4, 11), delta,
                                   rng.uniform(0.3, 1.0), seed)
            if g.m == 0:
                continue
            free, _ = worst_case_size(g, "one_two_mingreedy")
            plain, _ = worst_case_size(g, "mingreedy")
            if free > plain:
                sys.exit(f"delta {delta}, seed {seed}: free variant worst case {free} "
                         f"above the plain {plain}, but it reaches every plain run")
            opt = len(maximum_matching(g))
            ratio = Fraction(free, opt)
            worst = min(worst, ratio)
            if ratio == floor:
                hits += 1
            if ratio < floor:
                sys.exit(f"delta {delta}, seed {seed}: worst ratio {ratio} "
                         f"below the floor {floor}")
        print(f"delta {delta}: worst observed ratio {worst} "
              f"(floor {floor}, met exactly on {hits} instances)")


if __name__ == "__main__":
    main()
