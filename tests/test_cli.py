import re
from pathlib import Path

import shlex

import pytest

from matchforge import cli, optimum
from matchforge.cli import main
from matchforge.graphs import (
    MAX_NODES,
    MAX_RANDOM_NODES,
    Graph,
    load_graph,
    load_matching,
    save_graph,
)

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(*argv):
    return main(list(argv))


def test_gen_run_opt_verify_pipeline(tmp_path: Path):
    g = tmp_path / "g.graph"
    t = tmp_path / "t.trace"
    assert run_cli("gen", "--kind", "random", "--n", "12", "--delta", "4",
                   "--p", "0.6", "--seed", "5", "--out", str(g)) == 0
    assert run_cli("run", "--algo", "one_two_mingreedy", "--policy", "random:3",
                   "--in", str(g), "--trace", str(t)) == 0
    assert run_cli("opt", "--in", str(g)) == 0
    assert run_cli("decompose", "--in", str(g), "--trace", str(t)) == 0
    assert run_cli("verify", "--in", str(g), "--trace", str(t)) == 0
    assert run_cli("verify", "--in", str(g), "--trace", str(t), "--csv") == 0


def test_verify_rejects_corrupted_trace(tmp_path: Path):
    g = tmp_path / "g.graph"
    t = tmp_path / "t.trace"
    run_cli("gen", "--n", "8", "--delta", "3", "--p", "0.9", "--seed", "1",
            "--out", str(g))
    run_cli("run", "--algo", "mingreedy", "--policy", "first",
            "--in", str(g), "--trace", str(t))
    body = t.read_text().splitlines()
    removed = [ln for ln in body if ln.startswith("r")]
    t.write_text("\n".join(ln for ln in body if ln != removed[0]) + "\n")
    assert run_cli("verify", "--in", str(g), "--trace", str(t)) == 2


def test_verify_rejects_renumbered_steps(tmp_path: Path, capsys):
    # In this run the ledger reads a step's successor by its index, which a
    # shifted index would take past the last step.
    g = tmp_path / "g.graph"
    t = tmp_path / "t.trace"
    run_cli("gen", "--n", "8", "--delta", "4", "--p", "0.5", "--seed", "5", "--out", str(g))
    run_cli("run", "--algo", "one_two_mingreedy", "--policy", "random:5",
            "--in", str(g), "--trace", str(t))
    t.write_text(re.sub(r"^s (\d+)", lambda m: f"s {int(m.group(1)) + 5}",
                        t.read_text(), flags=re.M))
    assert run_cli("verify", "--in", str(g), "--trace", str(t)) == 2
    assert "trace does not replay: step 6: index is not its position 1" in capsys.readouterr().err


@pytest.mark.parametrize("delta", ["0", "2"])
def test_verify_rejects_a_delta_below_three(tmp_path: Path, capsys, delta):
    g = tmp_path / "g.graph"
    t = tmp_path / "t.trace"
    run_cli("gen", "--n", "8", "--delta", "3", "--p", "0.5", "--seed", "5", "--out", str(g))
    run_cli("run", "--algo", "mingreedy", "--in", str(g), "--trace", str(t))
    capsys.readouterr()
    assert run_cli("verify", "--in", str(g), "--trace", str(t), "--delta", delta) == 2
    assert "delta must be at least" in capsys.readouterr().err


def test_missing_file_is_input_error(tmp_path: Path):
    assert run_cli("opt", "--in", str(tmp_path / "nope.graph")) == 2


def test_unmeetable_regular_degree_is_input_error(tmp_path: Path, capsys):
    # K8 is the only 7-regular graph on 8 nodes; the pairing model never hits it.
    assert run_cli("gen", "--kind", "regular", "--n", "8", "--delta", "7",
                   "--out", str(tmp_path / "g.graph")) == 2
    assert capsys.readouterr().err.startswith("error: pairing model rejected")


def test_unwritable_output_is_input_error(tmp_path: Path, capsys):
    out = tmp_path / "missing" / "g.graph"
    assert run_cli("gen", "--n", "5", "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}")


def test_negative_node_count_is_input_error(tmp_path: Path, capsys):
    out = tmp_path / "g.graph"
    assert run_cli("gen", "--n", "-1", "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: node count -1 is negative\n"
    assert not out.exists()


def test_node_bound_is_input_error(tmp_path: Path, capsys):
    g = tmp_path / "big.graph"
    g.write_text(f"graph {MAX_NODES + 1} 0\n")
    assert run_cli("run", "--algo", "greedy", "--in", str(g)) == 2
    assert capsys.readouterr().err.startswith(f"error: {g}: line 1: ")


def test_trace_steps_sharing_a_node_are_input_error(tmp_path: Path, capsys):
    g = tmp_path / "p3.graph"
    t = tmp_path / "bad.trace"
    g.write_text("graph 3 2\ne 0 1\ne 1 2\n")
    t.write_text("s 1 1 1 1 degree_rule\n")
    assert run_cli("verify", "--in", str(g), "--trace", str(t)) == 2
    assert capsys.readouterr().err.startswith(f"error: {t}: trace does not replay: ")


def test_worstcase_and_budget(tmp_path: Path, capsys):
    g = tmp_path / "g.graph"
    run_cli("gen", "--n", "6", "--delta", "3", "--p", "1.0", "--seed", "2",
            "--out", str(g))
    assert run_cli("worstcase", "--in", str(g), "--algo", "one_two_mingreedy") == 0
    out = capsys.readouterr().out
    assert "ratio" in out
    assert run_cli("worstcase", "--in", str(g), "--budget", "1") == 3


def test_worst_case_refuses_runs_longer_than_the_search_recurses(tmp_path: Path, capsys):
    # The search recurses once per step; a 3000-node path has runs of 1500.
    g = tmp_path / "path.graph"
    g.write_text(save_graph(Graph.from_edges(3000, [(i, i + 1) for i in range(2999)])))
    assert run_cli("worstcase", "--in", str(g), "--algo", "mingreedy") == 3
    assert capsys.readouterr().out == "budget exceeded; best bound so far: unknown (incomplete)\n"
    out = tmp_path / "s.csv"
    assert run_cli("sweep", "--deltas", "3", "--source", "regular", "--n", "4000",
                   "--mode", "worst", "--out", str(out)) == 3
    assert capsys.readouterr().err == "error: search budget of 500 steps exceeded\n"
    assert not out.exists()


def test_sweep_budget_overrun_in_a_worker_exits_3(tmp_path: Path, monkeypatch, capsys):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    out = tmp_path / "s.csv"
    assert run_cli("sweep", "--deltas", "3", "--count", "2", "--n", "8", "--mode", "worst",
                   "--budget", "1", "--jobs", "2", "--out", str(out)) == 3
    assert capsys.readouterr().err == "error: search budget of 1 states exceeded\n"
    assert not out.exists()


def test_game_emit_and_reload(tmp_path: Path, capsys):
    prefix = str(tmp_path / "h3")
    assert run_cli("game", "--algo", "mingreedy", "--adversary", "B",
                   "--delta", "3", "--emit", prefix) == 0
    out = capsys.readouterr().out
    assert "ratio 2/3" in out
    g = load_graph(Path(prefix + ".graph").read_text())
    assert g.n == 6 and g.m == 7
    assert Path(prefix + ".moves").read_text().startswith("p ")
    assert "serve" in Path(prefix + ".transcript").read_text()


def test_verify_on_emitted_core_worst_trace(tmp_path: Path, capsys):
    prefix = str(tmp_path / "h3")
    assert run_cli("game", "--algo", "mingreedy", "--adversary", "B",
                   "--delta", "3", "--emit", prefix) == 0
    trace = str(tmp_path / "worst.trace")
    assert run_cli("worstcase", "--in", prefix + ".graph",
                   "--algo", "one_two_mingreedy", "--trace", trace) == 0
    capsys.readouterr()
    assert run_cli("verify", "--in", prefix + ".graph", "--trace", trace) == 0
    assert "ratio 2/3" in capsys.readouterr().out


def test_game_rule_encoding_from_table(capsys):
    assert run_cli("game", "--algo", "one_two_mingreedy", "--adversary", "B",
                   "--delta", "4") == 0
    assert "ratio 3/5" in capsys.readouterr().out


def test_game_node_order_encoding_needs_node_count(capsys):
    # AdversaryB announces no node count, which a node order needs.
    assert run_cli("game", "--algo", "shuffle", "--adversary", "B", "--delta", "3") == 2
    assert capsys.readouterr().err.startswith("error:")


def test_game_bprime(capsys):
    assert run_cli("game", "--algo", "mingreedy", "--adversary", "Bprime",
                   "--delta", "3", "--t", "20") == 0
    assert "n=60" in capsys.readouterr().out


def test_game_bprime_node_bound_is_input_error(capsys):
    t = MAX_NODES // 3 + 1
    assert run_cli("game", "--algo", "mingreedy", "--adversary", "Bprime",
                   "--delta", "3", "--t", str(t)) == 2
    assert capsys.readouterr().err == (f"error: t*delta = {3 * t} announced nodes exceed "
                                       f"the bound of {MAX_NODES}\n")


def test_game_b_node_bound_is_input_error(capsys):
    delta = (MAX_NODES + 6) // 4 + 1
    assert run_cli("game", "--algo", "mingreedy", "--adversary", "B",
                   "--delta", str(delta)) == 2
    assert capsys.readouterr().err == (f"error: 4*delta - 6 = {4 * delta - 6} nodes exceed "
                                       f"the bound of {MAX_NODES}\n")


def test_sweep_bprime_node_bound_is_input_error(tmp_path: Path, capsys):
    out = tmp_path / "s.csv"
    t = MAX_NODES // 4 + 1
    assert run_cli("sweep", "--deltas", "4", "--source", "bprime", "--t", str(t),
                   "--out", str(out)) == 2
    assert capsys.readouterr().err == (f"error: t*delta = {4 * t} announced nodes exceed "
                                       f"the bound of {MAX_NODES}\n")
    assert not out.exists()


@pytest.mark.parametrize("source", ["hard", "bprime"])
def test_sweep_refuses_worst_mode_on_adversary_sources(tmp_path: Path, capsys, source):
    out = tmp_path / "s.csv"
    assert run_cli("sweep", "--deltas", "3", "--source", source, "--mode", "worst",
                   "--out", str(out)) == 2
    assert capsys.readouterr().err == (f"error: --mode worst searches generated graphs; "
                                       f"--source {source} plays adversary games\n")
    assert not out.exists()


def test_gen_node_bound_is_input_error(tmp_path: Path, capsys):
    out = tmp_path / "big.graph"
    assert run_cli("gen", "--kind", "regular", "--n", str(MAX_NODES + 2), "--delta", "0",
                   "--seed", "1", "--out", str(out)) == 2
    assert capsys.readouterr().err == (f"error: {MAX_NODES + 2} nodes exceed "
                                       f"the bound of {MAX_NODES}\n")
    assert not out.exists()


def test_random_node_bound_is_input_error(tmp_path: Path, capsys):
    out = tmp_path / "out"
    n = str(MAX_RANDOM_NODES + 1)
    for argv in (["gen", "--kind", "random", "--n", n, "--delta", "3"],
                 ["sweep", "--deltas", "1", "--source", "random", "--n", n]):
        assert run_cli(*argv, "--out", str(out)) == 2
        assert capsys.readouterr().err == (f"error: {n} nodes exceed the random generator's "
                                           f"bound of {MAX_RANDOM_NODES}\n")
        assert not out.exists()


def test_sweep_node_bound_is_input_error(tmp_path: Path, capsys):
    out = tmp_path / "s.csv"
    assert run_cli("sweep", "--deltas", "0", "--source", "random", "--n", str(MAX_NODES + 1),
                   "--out", str(out)) == 2
    assert capsys.readouterr().err == (f"error: {MAX_NODES + 1} nodes exceed "
                                       f"the bound of {MAX_NODES}\n")
    assert not out.exists()


def test_sweep_workers_are_clamped_to_rows_and_cores(tmp_path: Path, monkeypatch):
    started = []

    class Recorder:
        # Starts no process: records the worker count and maps in place.
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Recorder)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    args = ["sweep", "--deltas", "3", "--source", "random", "--count", "2",
            "--seed", "3", "--algos", "mingreedy", "--n", "9"]
    assert run_cli(*args, "--jobs", "5000", "--out", str(a)) == 0
    assert run_cli(*args, "--count", "7", "--jobs", "5000", "--out", str(b)) == 0
    assert started == [2, 3]
    assert run_cli(*args, "--jobs", "1", "--out", str(c)) == 0
    assert a.read_bytes() == c.read_bytes()


def test_sweep_hard_instances(tmp_path: Path):
    out = tmp_path / "s.csv"
    assert run_cli("sweep", "--deltas", "3,4,5,6", "--source", "hard",
                   "--algos", "mingreedy", "--out", str(out)) == 0
    body = out.read_text()
    for frac in ("2/3", "3/5", "4/7", "5/9"):
        assert frac in body


def test_sweep_deterministic_byte_identical(tmp_path: Path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--deltas", "3", "--source", "random", "--count", "6",
            "--seed", "9", "--algos", "mingreedy,karpsipser", "--n", "10"]
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_parallel_matches_serial(tmp_path: Path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--deltas", "3,4", "--source", "random", "--count", "4",
            "--seed", "3", "--algos", "mingreedy", "--n", "9"]
    assert run_cli(*args, "--jobs", "1", "--out", str(a)) == 0
    assert run_cli(*args, "--jobs", "4", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_worst_mode_floor(tmp_path: Path):
    out = tmp_path / "w.csv"
    assert run_cli("sweep", "--deltas", "3", "--source", "random", "--count", "30",
                   "--seed", "4", "--algos", "one_two_mingreedy", "--n", "9",
                   "--mode", "worst", "--out", str(out)) == 0
    from fractions import Fraction
    for line in out.read_text().splitlines()[1:]:
        frac = line.rsplit(",", 1)[1]
        num, den = frac.split("/") if "/" in frac else (frac, "1")
        assert Fraction(int(num), int(den)) >= Fraction(2, 3)


def test_sweep_empty_count(tmp_path: Path):
    out = tmp_path / "s.csv"
    assert run_cli("sweep", "--deltas", "3", "--count", "0", "--out", str(out)) == 0
    assert out.read_text() == "delta,source,seed,algo,m_size,opt_size,ratio,ratio_frac\n"


def test_run_shuffle(tmp_path: Path, capsys):
    g = tmp_path / "p4.graph"
    g.write_text("graph 4 3\ne 0 1\ne 1 2\ne 2 3\n")
    assert run_cli("run", "--algo", "shuffle", "--perm", "1,0,2,3",
                   "--in", str(g)) == 0
    assert "|M|=2" in capsys.readouterr().out


def test_run_scripted_policy_and_a_bad_spec(tmp_path: Path, capsys):
    # On P4, mingreedy's first node slot picks node 3 of {0, 3}; the other
    # slots take their first candidate.
    g = tmp_path / "p4.graph"
    t = tmp_path / "s.trace"
    g.write_text("graph 4 3\ne 0 1\ne 1 2\ne 2 3\n")
    assert run_cli("run", "--algo", "mingreedy", "--policy", "scripted:1,0,0,0",
                   "--in", str(g), "--trace", str(t)) == 0
    assert capsys.readouterr().out == "run mingreedy: |M|=2 steps=2\n"
    assert t.read_text().splitlines()[0] == "s 1 3 1 2 degree_rule"
    assert run_cli("run", "--algo", "mingreedy", "--policy", "bogus", "--in", str(g)) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: bad policy spec 'bogus'\n")


def test_run_shuffle_without_perm_is_input_error(tmp_path: Path, capsys):
    g = tmp_path / "p4.graph"
    g.write_text("graph 4 3\ne 0 1\ne 1 2\ne 2 3\n")
    assert run_cli("run", "--algo", "shuffle", "--in", str(g)) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: shuffle needs --perm\n")


def test_opt_out_reads_back(tmp_path: Path, capsys):
    g = tmp_path / "p4.graph"
    out = tmp_path / "m.txt"
    g.write_text("graph 4 3\ne 0 1\ne 1 2\ne 2 3\n")
    assert run_cli("opt", "--in", str(g), "--out", str(out)) == 0
    assert capsys.readouterr().out == "opt: |M*|=2\n"
    m = load_matching(out.read_text(), load_graph(g.read_text()))
    assert m.pairs == {(0, 1), (2, 3)}


def test_sweep_to_stdout_is_the_csv(tmp_path: Path, capsys):
    argv = ("sweep", "--deltas", "3", "--n", "6", "--count", "2", "--seed", "1")
    assert run_cli(*argv) == 0
    text = capsys.readouterr().out
    out = tmp_path / "s.csv"
    assert run_cli(*argv, "--out", str(out)) == 0
    assert capsys.readouterr().out == ""
    assert text == out.read_text()
    assert text.splitlines() == [
        "delta,source,seed,algo,m_size,opt_size,ratio,ratio_frac",
        "3,random,1000003,mingreedy,3,3,1.000000,1/1",
        "3,random,1000004,mingreedy,3,3,1.000000,1/1",
        "3,random,min,mingreedy,,,1.000000,1/1",
    ]


def test_gen_delta_is_the_degree_of_a_regular_graph(tmp_path: Path, capsys):
    out = tmp_path / "g.graph"
    assert run_cli("gen", "--kind", "regular", "--n", "10", "--delta", "4",
                   "--out", str(out)) == 0
    g = load_graph(out.read_text())
    assert all(g.degree(v) == 4 for v in range(10))
    assert "delta=4" in capsys.readouterr().out


def test_each_setting_has_one_spelling(tmp_path: Path):
    out = str(tmp_path / "g.graph")
    for argv in (["gen", "--degree", "3", "--n", "8", "--out", out],
                 ["--seed", "42", "gen", "--n", "8", "--out", out]):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
    assert not Path(out).exists()


def test_failed_optimality_certificate_is_verification_failure(tmp_path: Path, monkeypatch,
                                                               capsys):
    g = tmp_path / "p3.graph"
    g.write_text("graph 3 2\ne 0 1\ne 1 2\n")
    monkeypatch.setattr(optimum, "has_augmenting_path", lambda g, m: True)
    assert run_cli("opt", "--in", str(g)) == 1
    assert capsys.readouterr().err == ("error: augmenting path found after termination; "
                                       "matching not maximum\n")


def test_readme_command_lines_parse():
    block = README.read_text().split("## Command line", 1)[1].split("```")[1]
    commands = [shlex.split(ln.split("#", 1)[0]) for ln in block.splitlines()
                if ln.startswith("matchforge ")]
    assert commands
    for argv in commands:
        cli.build_parser().parse_args(argv[1:])
