"""No layer of the pipeline leaves reference cycles behind.

Each layer is called once on a small seeded graph with the cyclic collector
off; everything the call made must then be freed by reference counting, so
that ``gc.collect()`` finds nothing.
"""

import gc

import pytest

from matchforge.adversary import AdversaryBPrime, TruthfulAdversary, play_game
from matchforge.charging import build_ledger, verify_all
from matchforge.decomposition import canonicalize, decompose
from matchforge.graphs import SearchBudgetExceededError, gen_random_bounded, load_graph, save_graph
from matchforge.matchers import RandomPolicy, load_trace, run_algorithm, save_trace, worst_case_size
from matchforge.optimum import maximum_matching

G = gen_random_bounded(10, 4, 0.6, 3)
TRACE = run_algorithm("mingreedy", G, RandomPolicy(5))
M_OPT = maximum_matching(G)
M_STAR = canonicalize(G, TRACE.result, M_OPT)
DEC = decompose(G, TRACE.result, M_STAR)
LEDGER = build_ledger(TRACE, DEC, max(3, G.delta))


def _search_over_budget():
    # Not pytest.raises: its ExceptionInfo would hold the traceback of the
    # frame that holds it, a cycle of the test's own making.
    try:
        worst_case_size(G, "mingreedy", budget=3)
    except SearchBudgetExceededError:
        return
    raise AssertionError("the search finished within 3 states")


def _read_witness():
    _, witness = worst_case_size(G, "one_two_mingreedy")
    witness.verify_replay()
    return save_trace(witness)


LAYERS = {
    "load_graph": lambda: load_graph(save_graph(G)),
    "run_algorithm": lambda: run_algorithm("mingreedy", G, RandomPolicy(5)),
    "save_trace/load_trace": lambda: load_trace(save_trace(TRACE), G),
    "maximum_matching": lambda: maximum_matching(G),
    "canonicalize": lambda: canonicalize(G, TRACE.result, M_OPT),
    "decompose": lambda: decompose(G, TRACE.result, M_STAR),
    "build_ledger": lambda: build_ledger(TRACE, DEC, max(3, G.delta)),
    "verify_all": lambda: verify_all(LEDGER).text(),
    "worst_case_size": lambda: worst_case_size(G, "one_two_mingreedy"),
    "worst_case_size, witness read": _read_witness,
    "worst_case_size over budget": _search_over_budget,
    "play_game truthful": lambda: play_game("mingreedy", TruthfulAdversary(G)),
    "play_game constructed": lambda: play_game("mingreedy", AdversaryBPrime(3, 8)),
}


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_leaves_no_garbage(layer):
    call = LAYERS[layer]
    gc.collect()
    gc.disable()
    try:
        call()
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0, f"{layer} left {found} objects for the cyclic collector"
