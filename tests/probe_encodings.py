"""Hand-written priority encodings that steer the constructors into the
branches the ``ENCODINGS`` table does not reach.

``Explorer`` ranks lists with one known neighbor first, so a constructor
extends a frontier; against ``AdversaryBPrime`` it also meets a saturated
center on a frontier (the 4c endgame).  ``Deg2First`` asks for a fresh
degree-2 list before a frontier list, so plain triangles saturate each
center and a degree-2 list closes it (the 4b endgame).  ``Switch(delta)``
takes degree-2 lists until it has matched delta - 3 pairs, then asks for a
degree-delta list first, which meets a saturated center (the 4a endgame).
"""

from __future__ import annotations

from matchforge.adversary import CATCH_ALL, Pattern, PriorityAlgorithm, RuleEncoding

DEG2 = Pattern(unmatched=2)
FRONTIER = Pattern(total=3, unmatched=2, known=1)


class Explorer(RuleEncoding):
    """Prefers lists with one known neighbor, which makes a constructor
    extend a frontier."""

    def start(self, announced_nodes):
        super().start(announced_nodes)
        self.patterns = (FRONTIER, DEG2, CATCH_ALL)


class Deg2First(PriorityAlgorithm):
    """deg=2, then a frontier list, then any list."""

    def start(self, announced_nodes):
        super().start(announced_nodes)
        self.patterns = (DEG2, FRONTIER, CATCH_ALL)


class Switch(PriorityAlgorithm):
    """deg=2, then any list, until delta - 3 pairs are matched; from then on
    deg=delta first."""

    def __init__(self, delta: int):
        self.delta = delta

    def start(self, announced_nodes):
        super().start(announced_nodes)
        self.early = (DEG2, CATCH_ALL)
        self.late = (Pattern(unmatched=self.delta), DEG2, CATCH_ALL)

    def query(self):
        return self.late if len(self.matched) // 2 >= self.delta - 3 else self.early


# Each probe encoding by name, built for a degree bound.
PROBE_ENCODINGS = {
    "explorer": lambda delta: Explorer("mingreedy"),
    "deg2first": lambda delta: Deg2First(),
    "switch": Switch,
}
