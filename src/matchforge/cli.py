"""The matchforge command.

Subcommands: gen, run, opt, decompose, verify, worstcase, game, sweep.
Exit codes: 0 success / all checks pass, 1 verification failure, 2 input
error (unreadable or malformed input, an output that cannot be written, or
generator parameters no graph can meet), 3 search budget exceeded.

All randomness flows from --seed through a documented per-run derivation
(the run index is mixed into the seed), so repeating any invocation
reproduces its output byte for byte.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path

from . import adversary as adv_mod
from . import charging, decomposition, matchers, optimum
from .graphs import (
    GenerationError,
    GraphFormatError,
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


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


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


def cmd_gen(args) -> int:
    if args.kind == "random":
        g = gen_random_bounded(args.n, args.delta, args.p, args.seed)
    else:
        g = gen_regular(args.n, args.degree, args.seed)
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
    g = _load(args.input, load_graph)
    trace = _load(args.trace, matchers.load_trace, g)
    m_star = decomposition.canonicalize(g, trace.result, optimum.maximum_matching(g))
    dec = decomposition.decompose(g, trace.result, m_star)
    sys.stdout.write(decomposition.format_components(dec))
    ratio = dec.global_ratio
    print(f"ratio {ratio} = {float(ratio):.6f}")
    return EXIT_OK


def cmd_verify(args) -> int:
    g = _load(args.input, load_graph)
    trace = _load(args.trace, matchers.load_trace, g)
    delta = args.delta if args.delta else max(3, g.delta)
    m_star = decomposition.canonicalize(g, trace.result, optimum.maximum_matching(g))
    dec = decomposition.decompose(g, trace.result, m_star)
    ledger = charging.build_ledger(trace, dec, delta)
    report = charging.verify_all(ledger)
    sys.stdout.write(report.csv() if args.csv else report.text())
    if dec.m_star:
        ratio = Fraction(len(dec.matching), len(dec.m_star))
        print(f"ratio {ratio} = {float(ratio):.6f}")
    return EXIT_OK if report.all_pass else EXIT_FAIL


def cmd_worstcase(args) -> int:
    g = _load(args.input, load_graph)
    try:
        size, witness = matchers.worst_case_size(g, args.algo, budget=args.budget)
    except matchers.SearchBudgetExceededError as exc:
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
    idx, delta, source, seed, algo, n, p, t, mode, budget = job
    if source in ("hard", "bprime"):
        adversary = adv_mod.make_adversary("B" if source == "hard" else "Bprime", delta, t)
        result = adv_mod.play_game(algo, adversary)
        g, m_size = result.graph, len(result.matching)
    else:
        if source == "regular":
            g = gen_regular(n, delta, seed)
        else:
            g = gen_random_bounded(n, delta, p, seed)
        if mode == "worst":
            m_size, _ = matchers.worst_case_size(g, algo, budget=budget)
        else:
            m_size = len(matchers.run_algorithm(algo, g, matchers.FirstPolicy()).result)
    opt = len(optimum.maximum_matching(g))
    return idx, delta, source, seed, algo, m_size, opt


def cmd_sweep(args) -> int:
    deltas = [int(d) for d in args.deltas.split(",")]
    algos = args.algos.split(",")
    jobs = []
    idx = 0
    for delta in deltas:
        for algo in algos:
            for i in range(args.count):
                # Per-run seed derivation: run index mixed into the base seed.
                seed = args.seed * 1_000_003 + idx
                jobs.append((idx, delta, args.source, seed, algo,
                             args.n, args.p, args.t, args.mode, args.budget))
                idx += 1
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_sweep_row, jobs))
    else:
        rows = [_sweep_row(j) for j in jobs]
    rows.sort(key=lambda r: r[0])

    lines = ["delta,source,seed,algo,m_size,opt_size,ratio,ratio_frac"]
    worst: dict[tuple[int, str], Fraction] = {}
    for _, delta, source, seed, algo, m_size, opt in rows:
        ratio = Fraction(m_size, opt) if opt else Fraction(1)
        key = (delta, algo)
        if key not in worst or ratio < worst[key]:
            worst[key] = ratio
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
    ap.add_argument("--seed", type=int, default=None, dest="global_seed",
                    help="default seed for subcommands")
    ap.add_argument("--jobs", type=int, default=None, dest="global_jobs",
                    help="default worker count for subcommands")
    ap.add_argument("--budget", type=int, default=None, dest="global_budget",
                    help="default search budget for subcommands")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen", help="generate a graph file")
    p.add_argument("--kind", choices=["random", "regular"], default="random")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=int, default=3)
    p.add_argument("--degree", type=int, default=3, help="degree for regular graphs")
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=None)
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
    p.add_argument("--budget", type=int, default=None)
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
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--algos", default="mingreedy")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--t", type=int, default=20)
    p.add_argument("--mode", choices=["run", "worst"], default="run")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)
    return ap


def _apply_global_defaults(args) -> None:
    # Subcommand flags win; global flags fill the gaps; then hard defaults.
    if getattr(args, "seed", None) is None:
        args.seed = args.global_seed if args.global_seed is not None else 0
    if getattr(args, "jobs", None) is None:
        args.jobs = args.global_jobs if args.global_jobs is not None else 1
    if getattr(args, "budget", None) is None:
        args.budget = args.global_budget if args.global_budget is not None else 2_000_000


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _apply_global_defaults(args)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except matchers.SearchBudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (matchers.PolicyError, adv_mod.GameError, GenerationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
