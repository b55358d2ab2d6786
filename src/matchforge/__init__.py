"""matchforge: worst-case analysis of greedy maximum-matching heuristics.

Library layout:

- ``graphs``: immutable graphs, generators, file I/O
- ``matchers``: the heuristics (one runner loop), policies, traces, and
  exhaustive worst-case search
- ``optimum``: exact maximum matching (augmenting search with blossom
  contraction) plus an independent brute-force oracle
- ``decomposition``: matching-graph components and canonicalization
- ``charging``: transfers, cancellations, donations, and the balance verifier
- ``adversary``: adaptive-priority games, algorithm encodings, hard-instance
  constructors
- ``cli``: the ``matchforge`` command
"""

from .graphs import (
    Graph,
    Matching,
    gen_random_bounded,
    gen_regular,
    load_graph,
    load_matching,
    save_graph,
    save_matching,
)
from .matchers import (
    FirstPolicy,
    RandomPolicy,
    RunTrace,
    ScriptedPolicy,
    TraceStep,
    load_trace,
    run_algorithm,
    run_shuffle,
    save_trace,
    worst_case_size,
)
from .optimum import max_matching_bruteforce, maximum_matching
from .decomposition import Decomposition, canonicalize, decompose
from .charging import build_ledger, theta, target_ratio, verify_bounds, verify_lemma_predicates
from .adversary import (
    AdversaryB,
    AdversaryBPrime,
    GameResult,
    TruthfulAdversary,
    encode_priority,
    make_adversary,
    play_game,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
