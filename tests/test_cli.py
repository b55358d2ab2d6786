from pathlib import Path

from matchforge.cli import main
from matchforge.graphs import MAX_NODES, load_graph


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


def test_missing_file_is_input_error(tmp_path: Path):
    assert run_cli("opt", "--in", str(tmp_path / "nope.graph")) == 2


def test_unmeetable_regular_degree_is_input_error(tmp_path: Path, capsys):
    # K8 is the only 7-regular graph on 8 nodes; the pairing model never hits it.
    assert run_cli("gen", "--kind", "regular", "--n", "8", "--degree", "7",
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


def test_global_flags_feed_subcommands(tmp_path: Path):
    a, b = tmp_path / "a.graph", tmp_path / "b.graph"
    assert run_cli("--seed", "42", "gen", "--n", "8", "--delta", "3",
                   "--p", "0.8", "--out", str(a)) == 0
    assert run_cli("gen", "--n", "8", "--delta", "3", "--p", "0.8",
                   "--seed", "42", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


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
