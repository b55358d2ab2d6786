"""Byte-level golden digests of every reproducible output.

Each section renders one family of outputs (traces, choice enumerations
sorted and in the order they are yielded, worst-case witnesses, sweep
CSVs, game transcripts, optima, every rule's runs and free-step runs on
benchmark-size graphs, and the constructor games) for
fixed seeds and compares the
sha256 of the rendering with a pinned digest.  The ledger
sections render the decomposition, the verification report and every
transfer, donation, tally and path record of the coin ledger.  A refactor
that keeps behaviour keeps every digest; any change in a trace byte, a
choice order or an RNG draw shows up here.

To inspect a failing section, print ``SECTIONS[name]()`` before and after
the change and diff the two texts.
"""

from __future__ import annotations

import hashlib
import random
from functools import lru_cache

import pytest

from matchforge import adversary
from matchforge.adversary import (
    AdversaryB,
    AdversaryBPrime,
    GameError,
    Pattern,
    TruthfulAdversary,
    game_files,
    play_game,
)
from matchforge.charging import build_ledger, verify_all
from matchforge.cli import main
from matchforge.decomposition import canonicalize, decompose, format_components
from matchforge.graphs import Graph, gen_random_bounded, gen_regular, save_graph, save_matching
from matchforge.matchers import (
    ALGORITHMS,
    FirstPolicy,
    PolicyError,
    RandomPolicy,
    run_algorithm,
    run_shuffle,
    save_trace,
    script_from_picks,
    worst_case_size,
)
from matchforge.optimum import maximum_matching

from reference_runs import iter_all_pick_sequences

RULE_ALGOS = ("mingreedy", "one_two_mingreedy", "karpsipser", "greedy", "mrg")
ENCODINGS = ("mingreedy", "karpsipser", "greedy", "mrg", "shuffle", "vertex_iterative")
RANDOM_SEEDS = (1, 2, 3)
LEDGER_ALGOS = ("mingreedy", "one_two_mingreedy")


def _run_graphs() -> list[Graph]:
    """About twenty seeded graphs with n in 4..40 and max degree 3..5."""
    graphs = []
    for i in range(12):
        rng = random.Random(100 + i)
        graphs.append(gen_random_bounded(rng.randint(4, 40), rng.randint(3, 5),
                                         rng.uniform(0.3, 0.9), 100 + i))
    for n, d, seed in ((4, 3, 1), (6, 3, 2), (10, 3, 3), (16, 3, 4), (40, 3, 5),
                       (6, 4, 6), (12, 4, 7), (30, 4, 8), (12, 5, 9), (24, 5, 10)):
        graphs.append(gen_regular(n, d, seed))
    return graphs


def _small_graphs(n_max: int, count: int, seed0: int) -> list[Graph]:
    graphs = []
    for i in range(count):
        rng = random.Random(seed0 + i)
        graphs.append(gen_random_bounded(rng.randint(4, n_max), rng.randint(3, 4),
                                         rng.uniform(0.4, 0.9), seed0 + i))
    return graphs


def _traces(algo: str) -> str:
    out = []
    for gi, g in enumerate(_run_graphs()):
        if algo == "shuffle":
            perms = [list(range(g.n))]
            for seed in RANDOM_SEEDS:
                perm = list(range(g.n))
                random.Random(seed).shuffle(perm)
                perms.append(perm)
            traces = [run_shuffle(g, perm) for perm in perms]
        else:
            policies = [FirstPolicy()] + [RandomPolicy(s) for s in RANDOM_SEEDS]
            traces = [run_algorithm(algo, g, pol) for pol in policies]
        for ti, trace in enumerate(traces):
            out.append(f"# graph {gi} run {ti}\n{save_trace(trace)}")
    return "".join(out)


def _choices(algo: str) -> str:
    out = []
    for gi, g in enumerate(_small_graphs(6, 6, 500)):
        seqs = sorted(iter_all_pick_sequences(g, algo, limit=5000))
        out.append(f"# graph {gi}: {len(seqs)} sequences\n")
        for picks in seqs:
            choices = script_from_picks(g, picks, algo).choices
            out.append(f"{picks} -> {list(choices)}\n")
    return "".join(out)


def _choice_order(algo: str) -> str:
    """The runs in the order the enumeration yields them, unsorted."""
    out = []
    for gi, g in enumerate(_small_graphs(6, 6, 500)):
        out.append(f"# graph {gi}\n")
        out += [f"{picks}\n" for picks in iter_all_pick_sequences(g, algo, limit=5000)]
    return "".join(out)


def _worst(algo: str) -> str:
    out = []
    for gi, g in enumerate(_small_graphs(10, 10, 700)):
        size, witness = worst_case_size(g, algo)
        out.append(f"# graph {gi}: {size}\n{save_trace(witness)}")
    return "".join(out)


def _sweep(mode: str, tmp_path) -> str:
    out = tmp_path / f"sweep_{mode}.csv"
    code = main(["sweep", "--deltas", "3,4", "--source", "random", "--count", "4",
                 "--seed", "11", "--algos", ",".join(RULE_ALGOS), "--n", "9",
                 "--mode", mode, "--out", str(out)])
    assert code == 0
    return out.read_text()


def _games() -> str:
    out = []
    graphs = _run_graphs()[:8] + _small_graphs(8, 4, 900)
    for algo in ENCODINGS:
        for gi, g in enumerate(graphs):
            result = play_game(algo, TruthfulAdversary(g))
            out.append(f"# {algo} graph {gi}\n" + "\n".join(result.transcript) + "\n")
    return "".join(out)


def _constructor_game(algo, make) -> str:
    """The .graph, .moves and .transcript files of one constructor game, or
    the error that rejects the encoding."""
    try:
        result = play_game(algo, make())
    except (PolicyError, GameError) as exc:
        return f"rejected: {type(exc).__name__}: {exc}\n"
    return "".join(game_files(result).values())


def _games_b() -> str:
    return "".join(f"# B({delta}) {algo}\n" + _constructor_game(algo, lambda: AdversaryB(delta))
                   for delta in range(3, 9) for algo in adversary.ENCODINGS)


def _games_bprime() -> str:
    return "".join(f"# Bprime({delta}, {t}) {algo}\n"
                   + _constructor_game(algo, lambda: AdversaryBPrime(delta, t))
                   for delta in (3, 4, 5) for t in (20, 50, 100)
                   for algo in adversary.ENCODINGS)


def _games_explorer() -> str:
    """A mingreedy encoding that ranks lists with one known neighbor first,
    so AdversaryB(5) extends a frontier (as in tests/test_adversary.py)."""

    class Explorer(adversary.RuleEncoding):
        def query(self):
            return [Pattern(total=3, unmatched=2, known=1), Pattern(unmatched=2),
                    Pattern(unmatched_min=1)]

    return _constructor_game(Explorer("mingreedy"), lambda: AdversaryB(5))


def _ledger_text(g: Graph, trace) -> str:
    """Components, reports, transfers, donations, tallies and path records of
    one run's ledgers at delta = max(3, max degree) and one above."""
    out = []
    for delta in (max(3, g.delta), max(3, g.delta) + 1):
        m_star = canonicalize(g, trace.result, maximum_matching(g))
        dec = decompose(g, trace.result, m_star)
        led = build_ledger(trace, dec, delta)
        rep = verify_all(led)
        paths = [(ci, p.creation_step, p.selected, p.partner, p.sel_degree,
                  p.k_coins, p.raw_debits, p.deg1_after) for ci, p in sorted(led.paths.items())]
        classes = [(ci, c.creation_step, c.deg1_two_f, c.deg1_one_f, c.deg2, c.edges_to_adjacent)
                   for ci, c in ((ci, p.classes) for ci, p in sorted(led.paths.items()))
                   if c is not None]
        out += [f"## delta {delta}\n", format_components(dec), rep.text(), rep.csv(),
                f"{led.transfers!r}\n{led.donations!r}\n{led.credits_in!r}\n"
                f"{led.debits_out!r}\n{paths!r}\n{classes!r}\n"]
    return "".join(out)


def _ledgers(algo: str) -> str:
    out = []
    for gi, g in enumerate(_run_graphs()):
        policies = [FirstPolicy()] + [RandomPolicy(s) for s in RANDOM_SEEDS]
        for ti, pol in enumerate(policies):
            trace = run_algorithm(algo, g, pol)
            out.append(f"# graph {gi} run {ti}\n" + _ledger_text(g, trace))
    return "".join(out)


def _witness_ledgers() -> str:
    """Worst-case witnesses at degree bound 4..5: the runs that pay donations
    and fill endpoint classes."""
    out = []
    for i in range(300):
        rng = random.Random(1000 + i)
        g = gen_random_bounded(rng.randint(6, 12), rng.randint(4, 5),
                               rng.uniform(0.4, 0.9), 1000 + i)
        size, witness = worst_case_size(g, "one_two_mingreedy")
        out.append(f"# graph {i}: {size}\n" + _ledger_text(g, witness))
    return "".join(out)


@lru_cache(maxsize=1)
def _bench_graphs() -> tuple[Graph, ...]:
    """Graphs of the benchmark's sizes at two seeds each: 3-regular with
    n = 1500 and 3000, 4-regular with n = 2000, and Δ = 5 with n = 1500."""
    graphs = []
    for seed in (1, 2):
        graphs += [gen_regular(1500, 3, seed), gen_regular(3000, 3, seed),
                   gen_regular(2000, 4, seed), gen_random_bounded(1500, 5, 0.6, seed)]
    return tuple(graphs)


def _bench_optima() -> str:
    return "".join(f"# graph {gi}\n{save_matching(maximum_matching(g))}"
                   for gi, g in enumerate(_bench_graphs()))


def _bench_free_traces() -> str:
    """one_two_mingreedy random runs on the Δ = 5 graphs, which take free
    steps (any alive edge) while every degree is at least 3."""
    out = []
    for gi, g in enumerate(_bench_graphs()):
        if g.delta == 5:
            for seed in RANDOM_SEEDS:
                trace = run_algorithm("one_two_mingreedy", g, RandomPolicy(seed))
                out.append(f"# graph {gi} seed {seed}\n{save_trace(trace)}")
    return "".join(out)


def _bench_traces() -> str:
    """Every rule under the first policy and RandomPolicy(1) on the seed-1
    benchmark-size graphs."""
    out = []
    for gi, g in enumerate(_bench_graphs()[:4]):
        for algo in RULE_ALGOS:
            for pol in (FirstPolicy(), RandomPolicy(1)):
                out.append(f"# graph {gi} {algo} {pol!r}\n{save_trace(run_algorithm(algo, g, pol))}")
    return "".join(out)


SECTIONS = {
    **{f"trace:{a}": (lambda a=a: _traces(a)) for a in ALGORITHMS},
    **{f"choices:{a}": (lambda a=a: _choices(a)) for a in RULE_ALGOS},
    **{f"choice_order:{a}": (lambda a=a: _choice_order(a)) for a in RULE_ALGOS},
    **{f"worst:{a}": (lambda a=a: _worst(a)) for a in RULE_ALGOS},
    **{f"ledger:{a}": (lambda a=a: _ledgers(a)) for a in LEDGER_ALGOS},
    "ledger:witnesses": _witness_ledgers,
    "games": _games,
    "games:B": _games_b,
    "games:Bprime": _games_bprime,
    "games:explorer": _games_explorer,
    "optimum:bench": _bench_optima,
    "trace:bench": _bench_traces,
    "trace:bench_free": _bench_free_traces,
}

GOLDEN = {
    "choice_order:greedy": "24cd073bf2b34d23012bc08c15d7f01f42c44595fabfdd2c2464cbdd22e411c5",
    "choice_order:karpsipser": "a103712eb480a4bfcf54c1dbe1c91d206f89a16ceb7d885cb21f2a2426141e89",
    "choice_order:mingreedy": "732edcfffd140b825229d6ca9337dece465aa76fea62676e7d606044429b4435",
    "choice_order:mrg": "1dad8015d4e69c0c4ba53aeea717ad069e3fbd4507be1b480d978042494f74e8",
    "choice_order:one_two_mingreedy": "44eae197dba0de8181609261bea805a7f5f83ecd94746ff97b1abceb2bc9796d",
    "choices:greedy": "d6b817bb87ac5688f30323802e8f9f99283acf848bb14c0206346b8ca01f9b14",
    "choices:karpsipser": "64b2e500ef7a4586e9cb9c5abdb398a56bf0499eba56395be3a0ccea42deec9a",
    "choices:mingreedy": "795ecddcbf132bd70278745a3f9b325caa562310a8a35db62df8904dbce52c83",
    "choices:mrg": "2d292d68f94133ea3a5e27e537735e9f314bc053b9fb797088af14e77354173c",
    "choices:one_two_mingreedy": "d8ef81dac3ae9484efaba49560bc3bb1b2b78ca585b1faba51efcc38af952c22",
    "games": "a9bf943ffe32939d94bbc1032c0520256556a445baaf9c275d97689844f74b2b",
    "games:B": "a89b60134da792a58df475e84081d17ad726498cfd35b8c65ed1096e98fcd2c4",
    "games:Bprime": "f5770493ea24641c895b187f0df400a19a2e9e878b1cc78e9993e882c0b5c00c",
    "games:explorer": "32883c084fb7978d1ed2f7d3414af8674c2fcfd9b97833618e1a3dfec57dbe17",
    "inputs": "05e4880299b6fd5569e9c5c85538d3a3b4b9ac495ddd4d080cfa371b8976292f",
    "ledger:mingreedy": "83d447a96b65fe9cd5f2f3a854966815050dfb81aee95347f3db6651c7ce7235",
    "ledger:one_two_mingreedy": "8e96aaad8885139ab1ba199da6039b3be44d923042bb68ee666d6eb2886cd209",
    "ledger:witnesses": "eb6160650e4b63a181f34ca69f7c1641e054018af49057da1d1cc11374c00d61",
    "optimum:bench": "622641732ae47fabf708a2297874c6679ca1c91a339848778b1aab1576a0723b",
    "sweep:run": "dc95fdbdee0231efc711cf71e24c8bbb2ba044809e3fc68db6277afdd9de77b3",
    "sweep:worst": "7226cabe54d060773b19a06ba2a309106d9ebcef5739182c058a67aed50bd30a",
    "trace:bench": "09110b4a3e60470e52574432abb94d39cfae92e1f8acd21607d44e6079bc1064",
    "trace:bench_free": "ec90f49db769121e544291c1ee820c0332b390df1d1b94fc2b2d378ce11b14d5",
    "trace:greedy": "54394de455fa63c2bd59261e8fbe396a5636ab1165d9a61942bd20a6bed804aa",
    "trace:karpsipser": "f1ee2f42496dafba79382af1554fffe9875b970f38a415711a40ef2cf4506008",
    "trace:mingreedy": "70ed90ea4d75806ad0baf25982211324fc0179a97004ff1105d77695e2767280",
    "trace:mrg": "45f291e4eeea97eb5504b3029b884bc5994070f2ea37f87fdd41dc62e8782f17",
    "trace:one_two_mingreedy": "fc7137d3019b3430b4f62beba8f31dc84c36eec213c9bc55ece061c26cc5c334",
    "trace:shuffle": "2720a2f22ebffa8ad85140f16bcb8700316536f76d315e1ec0fdfe7d885a0203",
    "worst:greedy": "557460e342b95ed01ab5fb8f23d60fc6a4fb671fbae30628f4d4e1907693a83a",
    "worst:karpsipser": "2b854bc6800aabc643c2a51bf8180ccc34c4a48370f489a899f9c29f6d319740",
    "worst:mingreedy": "68adae24cd6458a3babc27b989c4b2a40a9ec8da68471c5f9e39533fdd3998d7",
    "worst:mrg": "193d739c228ddab0aaaf31e3f700c292fd0b8af31e2bb14a62cd6aeb5212b35a",
    "worst:one_two_mingreedy": "dde5c5325b07f1889ab54703a5e8e9d2c932ce1246a6e7653d5f44558b51ca87",
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_inputs_are_stable():
    graphs = _run_graphs() + _small_graphs(6, 6, 500) + _small_graphs(10, 10, 700)
    assert _digest("".join(save_graph(g) for g in graphs)) == GOLDEN["inputs"]


@pytest.mark.parametrize("name", sorted(SECTIONS))
def test_section_digest(name):
    assert _digest(SECTIONS[name]()) == GOLDEN[name]


# The save_trace sha256 of each rule under FirstPolicy() and RandomPolicy(1),
# and of run_shuffle under the identity and a random.Random(1) shuffle, on
# gen_regular(10**4, 3, 1): sizes where a runner that rebuilt a candidate
# list at every step would show.
TEN_THOUSAND = {
    "mingreedy": ("81987e1264f80883a15c124ec364362d925f6f13049eb00e056ab78b5cae30bd",
                  "47e7fa1290702974adac804aad8a6ab40b732395115e4278973f98111d7b26a0"),
    "one_two_mingreedy": ("981ebc83f301f53ae09fedaf955876514a76d3f3ddbb5fb98016254eb0239002",
                          "5ce099dc5e985193a5ca05a1a73d21c093713a83f089d866a1a70e6d9d1b12c7"),
    "karpsipser": ("6ae64d824c3eb1b9baad82a8e20a581afa40b700f2d168c1638a3464e8170a39",
                   "d5075fc81d8809cad96474041042a6a1038a52f9be9599c86ec9918b87ea8156"),
    "greedy": ("da087f48f6a499e44eea6424734738260e9a6fcad06199d5447a7924dfe88572",
               "6591198b88e409d1ee741d797419cacd3c328111f8c757cfcd9ca14988dfbe55"),
    "mrg": ("4d08755f70196e18e3fc1a42453aaf92259a9325b536cd78ce511058a315d985",
            "2c7d6fbddb86b583bc9dba7967e134530223db0b66fdf727ef8a24fcf1d1c5b4"),
    "shuffle": ("4d08755f70196e18e3fc1a42453aaf92259a9325b536cd78ce511058a315d985",
                "60199e70e2f8c7a9125f49a1f0a22a3c41b13781da43ed4913bddec9a4da34f8"),
}


@lru_cache(maxsize=1)
def _ten_thousand() -> Graph:
    return gen_regular(10**4, 3, 1)


@pytest.mark.parametrize("algo", sorted(TEN_THOUSAND))
def test_runs_at_ten_thousand_nodes(algo):
    g = _ten_thousand()
    if algo == "shuffle":
        perm = list(range(g.n))
        shuffled = perm[:]
        random.Random(1).shuffle(shuffled)
        traces = (run_shuffle(g, perm), run_shuffle(g, shuffled))
    else:
        traces = (run_algorithm(algo, g, FirstPolicy()), run_algorithm(algo, g, RandomPolicy(1)))
    assert tuple(_digest(save_trace(t)) for t in traces) == TEN_THOUSAND[algo]


@pytest.mark.parametrize("mode", ["run", "worst"])
def test_sweep_csv_digest(mode, tmp_path):
    assert _digest(_sweep(mode, tmp_path)) == GOLDEN[f"sweep:{mode}"]
