"""The matchforge command.

Subcommands: gen, run, opt, decompose, verify, worstcase, game, sweep.
Exit codes: 0 success / all checks pass, 1 verification failure (a ledger
check or the optimum's certificate fails), 2 input error (unreadable or
malformed input, an output that cannot be written, or generator parameters
no graph can meet), 3 search budget exceeded.

All randomness flows from --seed through a documented per-run derivation
(the run index is mixed into the seed), so repeating any invocation
reproduces its output byte for byte.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path

from . import adversary as adv_mod
from . import charging, decomposition, matchers, optimum
from .graphs import (
    GenerationError,
    GraphFormatError,
    SearchBudgetExceededError,
    gen_random_bounded,
    gen_regular,
    load_graph,
    save_graph,
    save_matching,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


class CliError(ValueError):
    """An input error of the command line; main maps it to exit 2."""


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from None


def _load(path: str, loader, *args):
    """Read a document with loader(text, *args); format errors name the path."""
    try:
        return loader(Path(path).read_text(), *args)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    except GraphFormatError as exc:
        raise CliError(f"{path}: {exc}") from None


def parse_policy(spec: str) -> matchers.Policy:
    """Policy specs: 'first', 'random:<seed>', 'scripted:<i,i,...>'."""
    if spec == "first":
        return matchers.FirstPolicy()
    if spec.startswith("random:"):
        return matchers.RandomPolicy(int(spec.split(":", 1)[1]))
    if spec.startswith("scripted:"):
        body = spec.split(":", 1)[1]
        idxs = [int(x) for x in body.split(",") if x != ""]
        return matchers.ScriptedPolicy(idxs)
    raise CliError(f"bad policy spec '{spec}'")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _generate(kind: str, n: int, delta: int, p: float, seed: int):
    """A regular graph of degree delta, or a random one of max degree delta."""
    if kind == "regular":
        return gen_regular(n, delta, seed)
    return gen_random_bounded(n, delta, p, seed)


def _decompose_traced(args):
    """(graph, trace, decomposition of M ∪ M*) for the --in and --trace files."""
    g = _load(args.input, load_graph)
    trace = _load(args.trace, matchers.load_trace, g)
    m_star = decomposition.canonicalize(g, trace.result, optimum.maximum_matching(g))
    return g, trace, decomposition.decompose(g, trace.result, m_star)


def cmd_gen(args) -> int:
    g = _generate(args.kind, args.n, args.delta, args.p, args.seed)
    _write(args.out, save_graph(g))
    print(f"gen {args.kind} n={g.n} m={g.m} delta={g.delta} -> {args.out}")
    return EXIT_OK


def cmd_run(args) -> int:
    g = _load(args.input, load_graph)
    if args.algo == "shuffle":
        if not args.perm:
            raise CliError("shuffle needs --perm")
        perm = [int(x) for x in args.perm.split(",")]
        trace = matchers.run_shuffle(g, perm)
    else:
        trace = matchers.run_algorithm(args.algo, g, parse_policy(args.policy))
    if args.trace:
        _write(args.trace, matchers.save_trace(trace))
    print(f"run {args.algo}: |M|={len(trace.result)} steps={len(trace.steps)}")
    return EXIT_OK


def cmd_opt(args) -> int:
    g = _load(args.input, load_graph)
    m = optimum.maximum_matching(g)
    if args.out:
        _write(args.out, save_matching(m))
    print(f"opt: |M*|={len(m)}")
    return EXIT_OK


def cmd_decompose(args) -> int:
    _, _, dec = _decompose_traced(args)
    sys.stdout.write(decomposition.format_components(dec))
    ratio = dec.global_ratio
    print(f"ratio {ratio} = {float(ratio):.6f}")
    return EXIT_OK


def cmd_verify(args) -> int:
    g, trace, dec = _decompose_traced(args)
    delta = args.delta if args.delta is not None else max(3, g.delta)
    ledger = charging.build_ledger(trace, dec, delta)
    report = charging.verify_all(ledger)
    sys.stdout.write(report.csv() if args.csv else report.text())
    if dec.m_star:
        ratio = dec.global_ratio
        print(f"ratio {ratio} = {float(ratio):.6f}")
    return EXIT_OK if report.all_pass else EXIT_FAIL


def cmd_worstcase(args) -> int:
    g = _load(args.input, load_graph)
    try:
        size, witness = matchers.worst_case_size(g, args.algo, budget=args.budget)
    except SearchBudgetExceededError as exc:
        bound = "unknown" if exc.bound is None else str(exc.bound)
        print(f"budget exceeded; best bound so far: {bound} (incomplete)")
        return EXIT_BUDGET
    opt = len(optimum.maximum_matching(g))
    if args.trace:
        _write(args.trace, matchers.save_trace(witness))
    ratio = Fraction(size, opt) if opt else Fraction(1)
    print(f"worstcase {args.algo}: {size} opt: {opt} ratio {ratio} = {float(ratio):.6f}")
    return EXIT_OK


def cmd_game(args) -> int:
    adversary = adv_mod.make_adversary(args.adversary, args.delta, args.t)
    result = adv_mod.play_game(args.algo, adversary)
    opt = len(optimum.maximum_matching(result.graph))
    m = len(result.matching)
    ratio = Fraction(m, opt)
    print(f"game {args.algo} vs {args.adversary} delta={args.delta}: "
          f"|M|={m} |M*|={opt} ratio {ratio} = {float(ratio):.6f} "
          f"n={result.graph.n}")
    if args.emit:
        for suffix, text in adv_mod.game_files(result).items():
            _write(args.emit + suffix, text)
        print(f"emitted {args.emit}.graph / .moves / .transcript")
    return EXIT_OK


# -- sweep -------------------------------------------------------------------


def _sweep_row(job) -> tuple:
    delta, source, seed, algo, n, p, t, mode, budget = job
    if source in ("hard", "bprime"):
        adversary = adv_mod.make_adversary("B" if source == "hard" else "Bprime", delta, t)
        result = adv_mod.play_game(algo, adversary)
        g, m_size = result.graph, len(result.matching)
    else:
        g = _generate(source, n, delta, p, seed)
        if mode == "worst":
            m_size, _ = matchers.worst_case_size(g, algo, budget=budget)
        else:
            m_size = len(matchers.run_algorithm(algo, g, matchers.FirstPolicy()).result)
    opt = len(optimum.maximum_matching(g))
    return delta, source, seed, algo, m_size, opt


def cmd_sweep(args) -> int:
    if args.mode == "worst" and args.source in ("hard", "bprime"):
        raise CliError(f"--mode worst searches generated graphs; --source {args.source} "
                       "plays adversary games")
    deltas = [int(d) for d in args.deltas.split(",")]
    algos = args.algos.split(",")
    runs = [(delta, algo) for delta in deltas for algo in algos for _ in range(args.count)]
    # Per-run seed derivation: run index mixed into the base seed.
    jobs = [(delta, args.source, args.seed * 1_000_003 + idx, algo,
             args.n, args.p, args.t, args.mode, args.budget)
            for idx, (delta, algo) in enumerate(runs)]
    # The pool forks all its workers at the first submit, so it gets no more
    # than there are rows or cores; map yields the rows in job order.
    workers = min(args.jobs, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_row, jobs))
    else:
        rows = [_sweep_row(j) for j in jobs]

    lines = ["delta,source,seed,algo,m_size,opt_size,ratio,ratio_frac"]
    worst: dict[tuple[int, str], Fraction] = {}
    for delta, source, seed, algo, m_size, opt in rows:
        ratio = Fraction(m_size, opt) if opt else Fraction(1)
        worst[delta, algo] = min(ratio, worst.get((delta, algo), ratio))
        lines.append(f"{delta},{source},{seed},{algo},{m_size},{opt},"
                     f"{float(ratio):.6f},{ratio.numerator}/{ratio.denominator}")
    for (delta, algo) in sorted(worst):
        r = worst[(delta, algo)]
        lines.append(f"{delta},{args.source},min,{algo},,,"
                     f"{float(r):.6f},{r.numerator}/{r.denominator}")
    csv = "\n".join(lines) + "\n"
    if args.out:
        _write(args.out, csv)
    else:
        sys.stdout.write(csv)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="matchforge", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen", help="generate a graph file")
    p.add_argument("--kind", choices=["random", "regular"], default="random")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=int, default=3, help="max degree, or a regular graph's degree")
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("run", help="run a heuristic, write a trace")
    p.add_argument("--algo", choices=matchers.ALGORITHMS, required=True)
    p.add_argument("--policy", default="first")
    p.add_argument("--perm", help="node permutation for shuffle, comma-separated")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--trace")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("opt", help="exact maximum matching")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_opt)

    p = sub.add_parser("decompose", help="matching-graph components of a traced run")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--trace", required=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="coin-accounting verification of a traced run")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--delta", type=int, help="degree bound (default: graph max degree)")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("worstcase", help="exhaustive adversarial-choice minimum")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--algo", default="one_two_mingreedy",
                   choices=list(matchers.RULES))
    p.add_argument("--budget", type=int, default=matchers.SEARCH_BUDGET)
    p.add_argument("--trace", help="write the witness trace here")
    p.set_defaults(func=cmd_worstcase)

    p = sub.add_parser("game", help="play an adaptive-priority game")
    p.add_argument("--algo", default="mingreedy", choices=list(adv_mod.ENCODINGS))
    p.add_argument("--adversary", choices=["B", "Bprime"], default="B")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--t", type=int)
    p.add_argument("--emit", help="prefix for .graph/.moves/.transcript files")
    p.set_defaults(func=cmd_game)

    p = sub.add_parser("sweep", help="ratio sweeps with CSV output")
    p.add_argument("--deltas", default="3", help="comma-separated degree bounds")
    p.add_argument("--source", choices=["random", "regular", "hard", "bprime"],
                   default="random")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--algos", default="mingreedy")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--t", type=int, default=20)
    p.add_argument("--mode", choices=["run", "worst"], default="run",
                   help="worst: exhaustive search, for random and regular sources")
    p.add_argument("--budget", type=int, default=matchers.SEARCH_BUDGET)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SearchBudgetExceededError as exc:
        error, code = exc, EXIT_BUDGET
    except optimum.CertificateError as exc:
        error, code = exc, EXIT_FAIL
    except (adv_mod.GameError, GenerationError, ValueError) as exc:
        error, code = exc, EXIT_INPUT
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
