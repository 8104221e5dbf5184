"""Command-line interface: exit codes, file outputs, config precedence."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from fpplab import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats adds about half a second to every CLI start; the package
    # needs only scipy.special and scipy.integrate
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    script = ("import fpplab.cli, sys; "
              "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# constants


def test_constants_table(capsys):
    code, out, _ = run_cli(capsys, "constants", "--degrees", "regular:4",
                           "--weights", "exp:1")
    assert code == 0
    table = {ln.split()[0]: ln.split()[1] for ln in out.strip().split("\n")
             if ln and not ln.startswith("#")}
    assert float(table["alpha"]) == pytest.approx(2.0, abs=1e-9)
    assert float(table["gamma"]) == pytest.approx(1.5, abs=1e-9)
    assert float(table["beta"]) == pytest.approx(1.5, abs=1e-9)


def test_constants_json(capsys):
    code, out, _ = run_cli(capsys, "constants", "--degrees", "regular:4",
                           "--weights", "exponential:1.0", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["alpha"] == pytest.approx(2.0, abs=1e-9)
    assert doc["c"] == pytest.approx(2.0794415417, abs=1e-8)


def test_constants_subcritical_is_config_error(capsys):
    code, _, err = run_cli(capsys, "constants", "--degrees", "regular:2",
                           "--weights", "exp:1")
    assert code == 2
    assert "supercritical" in err.lower() or "subcritical" in err.lower()


def test_unknown_weight_kind(capsys):
    code, _, err = run_cli(capsys, "constants", "--weights", "cauchy:1")
    assert code == 2
    assert "weights" in err


def test_bad_degree_spec(capsys):
    code, _, err = run_cli(capsys, "constants", "--degrees", "regular:x")
    assert code == 2
    assert "degrees" in err


# ---------------------------------------------------------------------------
# run


def test_run_smoke_and_rerun_identical(tmp_path, capsys):
    out_dir = tmp_path / "exp"
    args = ("run", "--n-ladder", "200", "--trials", "8", "--threads", "1",
            "--seed", "42", "--out", str(out_dir))
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert "[PASS]" in out or "[SKIP]" in out
    csv1 = (out_dir / "outcomes_n200.csv").read_bytes()
    report = json.loads((out_dir / "report.json").read_text())
    assert report["master_seed"] == 42
    assert (out_dir / "report.txt").exists()
    assert len(list(out_dir.iterdir())) == 3

    out_dir2 = tmp_path / "exp2"
    code2, _, _ = run_cli(capsys, "run", "--n-ladder", "200", "--trials", "8",
                          "--threads", "2", "--seed", "42", "--out", str(out_dir2))
    assert code2 == 0
    assert (out_dir2 / "outcomes_n200.csv").read_bytes() == csv1


def test_run_requires_out(capsys):
    code, _, err = run_cli(capsys, "run", "--n-ladder", "100", "--trials", "4")
    assert code == 2
    assert "--out" in err


def test_run_rejects_unsorted_ladder(capsys):
    code, _, err = run_cli(capsys, "run", "--n-ladder", "500,200",
                           "--trials", "4", "--out", "/tmp/nope")
    assert code == 2
    assert "ladder" in err.lower()


def test_run_plot_data(tmp_path, capsys):
    out_dir = tmp_path / "exp"
    code, _, _ = run_cli(capsys, "run", "--n-ladder", "150", "--trials", "6",
                         "--threads", "1", "--seed", "3", "--out", str(out_dir),
                         "--plot-data")
    assert code == 0
    plots = out_dir / "plots"
    assert (plots / "hopcount_cdf.txt").exists()
    rows = (plots / "hopcount_cdf.txt").read_text().strip().split("\n")
    assert all(len(r.split()) == 2 for r in rows if not r.startswith("#"))


# ---------------------------------------------------------------------------
# config files


def test_config_file_missing_weights_section(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[weights]\n")     # section there, spec missing
    code, _, err = run_cli(capsys, "constants", "--config", str(cfg))
    assert code == 2
    assert "weights" in err


def test_config_file_unknown_threshold(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[weights]\nspec = exp:1\n\n[thresholds]\nbogus = 0.5\n")
    code, _, err = run_cli(capsys, "constants", "--config", str(cfg))
    assert code == 2
    assert "bogus" in err


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[experiment]\ntrials = 5\nmaster_seed = 9\n\n[weights]\nspec = exp:1\n")
    ns = cli.build_parser().parse_args(
        ["run", "--config", str(cfg), "--trials", "7", "--out", "/tmp/x"])
    config = cli._assemble_config(ns)
    assert config.trials == 7          # flag wins
    assert config.master_seed == 9     # file survives where no flag given


def test_config_defaults_are_four_regular_exponential():
    ns = cli.build_parser().parse_args(["run", "--out", "/tmp/x"])
    config = cli._assemble_config(ns)
    assert config.graph_kind == "cm"
    assert config.degree_model == ("regular", 4)
    assert config.weight_spec == ("exponential", (1.0,))


# ---------------------------------------------------------------------------
# oracle


def test_oracle_small_corpus(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--instances", "12")
    assert code == 0
    assert "[PASS]" in out
    assert "12 instances" in out


def test_oracle_corrupt_detects(capsys):
    # the fault injection perturbs one edge per instance, so it needs a
    # couple dozen instances before that edge sits on an optimal path
    code, out, _ = run_cli(capsys, "oracle", "--instances", "30", "--corrupt")
    assert code == 1
    assert "[FAIL]" in out


def test_oracle_describe_instance(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--instance", "3")
    assert code == 0
    assert "instance 3" in out
    assert "dijkstra" in out


# ---------------------------------------------------------------------------
# gen-graph / bp-sim / ranked


def test_gen_graph_deterministic(tmp_path, capsys):
    p1 = tmp_path / "g1.txt"
    p2 = tmp_path / "g2.txt"
    for p in (p1, p2):
        code, out, _ = run_cli(capsys, "gen-graph", "--n", "60", "--seed", "5",
                               "--degrees", "regular:3", "--out", str(p))
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().split("\n")[0].split()
    assert len(header) == 3            # n m seed
    assert int(header[0]) == 60


def test_gen_graph_requires_n(capsys):
    code, _, err = run_cli(capsys, "gen-graph", "--out", "/tmp/g.txt")
    assert code == 2
    assert "--n" in err


def test_bp_sim_reports_growth(capsys):
    code, out, _ = run_cli(capsys, "bp-sim", "--reps", "40", "--seed", "11",
                           "--target", "200")
    assert code == 0
    assert "w_estimate" in out
    assert "predicted" in out


def test_ranked_summary_and_csv(tmp_path, capsys):
    out_file = tmp_path / "ranked.csv"
    code, out, _ = run_cli(capsys, "ranked", "--n", "300", "--trials", "10",
                           "--ranked-m", "2", "--seed", "8", "--threads", "1",
                           "--out", str(out_file))
    assert code == 0
    assert "rank" in out
    lines = out_file.read_text().strip().split("\n")
    assert lines[0] == "trial,rank,weight,hops"
    assert len(lines) > 10


# ---------------------------------------------------------------------------
# argparse plumbing


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0


def test_run_help_documents_ladder(capsys):
    with pytest.raises(SystemExit):
        cli.main(["run", "--help"])
    assert "--n-ladder" in capsys.readouterr().out


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["constants", "--frobnicate"])
    assert exc.value.code == 2


def test_no_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
