"""Command-line interface: exit codes, file outputs, config precedence."""

import argparse
import hashlib
import json
import math
import multiprocessing
import os
import pathlib
import subprocess
import sys
import time

import pytest

from fpplab import cli, ctbp, montecarlo


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def scipy_modules_after_cli_import(prefix, then="pass"):
    """Modules at or under prefix that a fresh `import fpplab.cli`, followed
    by the statements then, loads."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    script = (f"import fpplab.cli, sys; {then}; "
              f"print(sorted(m for m in sys.modules if m == {prefix!r} "
              f"or m.startswith({prefix + '.'!r})))")
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats adds about half a second to every CLI start
    assert scipy_modules_after_cli_import("scipy.stats") == "[]"


def test_cli_import_leaves_scipy_integrate_unloaded():
    # every integral over a law is summed on the Gauss-Legendre cells of
    # fpplab.weights; QUADPACK is not used
    assert scipy_modules_after_cli_import("scipy.integrate") == "[]"


def test_cli_import_loads_no_scipy():
    # scipy.optimize alone took most of a cold start; the Malthusian root is
    # ctbp's own Brent port, and scipy.special is imported by the rank-1
    # degree law and the verifiers, where they use it
    assert scipy_modules_after_cli_import("scipy") == "[]"


def test_rank1_constants_load_no_scipy():
    # nr constants come from two vertex-weight moments, not from the
    # mixed-Poisson pmf that needs scipy.special
    then = ("from fpplab import montecarlo as mc; mc.constants_for_config("
            "mc.ExperimentConfig(graph_kind='nr', "
            "vertex_weight_spec=('exponential', (1.0 / 3.0,))))")
    assert scipy_modules_after_cli_import("scipy", then) == "[]"


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


def test_constants_of_a_slow_weight_law(capsys):
    # a rate far below 1 only rescales time; the tail-mass certificates and
    # the growth-rate root follow it instead of refusing the law
    code, out, _ = run_cli(capsys, "constants", "--weights", "shifted-exp:1e-4", "--json")
    assert code == 0
    assert json.loads(out)["alpha"] == pytest.approx(1.99940023992e-04, rel=1e-10)


def test_constants_of_a_law_below_the_first_brackets_width(capsys):
    # alpha = 2e-14 is far below 1e-12, the width of a bracket from 0 to 1;
    # the bracket is the binade [2^-46, 2^-45] that holds it, found by halving
    code, out, _ = run_cli(capsys, "constants", "--weights", "exp:1e-14", "--json")
    assert code == 0
    assert json.loads(out)["alpha"] == pytest.approx(2e-14, rel=1e-10)


def test_nr_constants_come_from_the_vertex_weights(capsys):
    # Exp(mean 3) vertex weights give the geometric degree law
    # P(k) = (1/4)(3/4)^k: mu = E W = 3 and nu = E W^2 / E W = 6, whatever
    # the default degree model says
    code, out, _ = run_cli(capsys, "constants", "--kind", "nr", "--vertex-weights",
                           "exp:0.3333333333333333", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["mu"] == pytest.approx(3.0, rel=1e-12)
    assert doc["nu"] == pytest.approx(6.0, rel=1e-12)


def test_nr_constants_of_heavy_vertex_weights(capsys):
    # power:3 vertex weights took 27 s while the constants summed the
    # mixed-Poisson pmf, and power:4 was refused; two moments need neither
    t0 = time.monotonic()
    code, out, _ = run_cli(capsys, "constants", "--kind", "nr", "--vertex-weights",
                           "power:3", "--json")
    assert time.monotonic() - t0 < 1.0
    assert code == 0
    assert json.loads(out)["nu"] == pytest.approx(120.0, rel=1e-12)   # Gamma(7)/Gamma(4)
    code, out, _ = run_cli(capsys, "constants", "--kind", "nr", "--vertex-weights",
                           "power:4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert all(math.isfinite(v) for v in doc.values())
    assert doc["mu"] == pytest.approx(24.0, rel=1e-12)                # Gamma(5)


def test_critical_nr_vertex_weights_are_config_error(capsys):
    # Exp(rate 2) vertex weights have E W^2 = E W, so nu is 1 to the last
    # bit: the growth rate is 0, which is a subcritical model, not a crash
    code, _, err = run_cli(capsys, "constants", "--kind", "nr", "--vertex-weights", "exp:2")
    assert code == 2
    assert "critical" in err


@pytest.mark.parametrize("route", ["flag", "file"])
def test_degrees_with_a_rank1_kind_is_config_error(route, tmp_path, capsys):
    argv = ["constants", "--kind", "nr", "--vertex-weights", "exp:0.5"]
    if route == "flag":
        argv += ["--degrees", "regular:4"]
    else:
        cfg = tmp_path / "nr.ini"
        cfg.write_text("[graph]\ndegrees = regular:4\n\n[weights]\nspec = exp:1\n")
        argv += ["--config", str(cfg)]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "--vertex-weights" in err


def test_constants_subcritical_is_config_error(capsys):
    code, _, err = run_cli(capsys, "constants", "--degrees", "regular:2",
                           "--weights", "exp:1")
    assert code == 2
    assert "supercritical" in err.lower() or "subcritical" in err.lower()


def test_unknown_weight_kind(capsys):
    code, _, err = run_cli(capsys, "constants", "--weights", "cauchy:1")
    assert code == 2
    assert "weights" in err


@pytest.mark.parametrize("argv", [
    ["--weights", "exp:inf"], ["--weights", "shifted-exp:inf"], ["--weights", "power:inf"],
    ["--weights", "uniform:inf"], ["--kind", "nr", "--vertex-weights", "exp:inf"],
    # finite, but the law's top quantile overflows to inf
    ["--weights", "exp:1e-320"], ["--weights", "shifted-exp:1e-320"],
], ids=lambda argv: "_".join(argv[1::2]))
def test_non_finite_weight_parameter_is_config_error(argv, capsys):
    code, _, err = run_cli(capsys, "constants", *argv)
    assert code == 2
    assert err.startswith("config error:") and "finite" in err


@pytest.mark.parametrize("flag, kind", [("--weights", "table"), ("--degrees", "iid")])
@pytest.mark.parametrize("rows", [None, "0 0\nabc 1.0\n1 2\n"], ids=["missing", "abc"])
def test_unreadable_table_is_config_error(flag, kind, rows, tmp_path, capsys):
    # a table file that is missing or holds a non-number row is refused by
    # path, as a missing --config file is
    path = tmp_path / "table.txt"
    if rows is not None:
        path.write_text(rows)
    code, _, err = run_cli(capsys, "constants", flag, f"{kind}:{path}")
    assert code == 2
    assert err.startswith(f"config error: {path}:")


def test_bad_degree_spec(capsys):
    code, _, err = run_cli(capsys, "constants", "--degrees", "regular:x")
    assert code == 2
    assert "degrees" in err


BAD_DEGREES = {
    "iid_mass_0.8": ("iid", "1 0.4\n2 0.4\n", "sums to 0.8"),
    "iid_fractional_degree": ("iid", "1 0.2\n2.5 0.5\n6 0.3\n",
                              "degree 2.5 is not an integer"),
    "iid_nan_degree": ("iid", "nan 1.0\n", "degree nan is not an integer"),
    "decreasing_cdf": ("deterministic", "1 0.7\n2 0.3\n3 1.0\n", "nondecreasing"),
    "regular_0": ("regular", None, "degree 0"),
}


@pytest.mark.parametrize("argv", [
    ["constants"],
    ["bp-sim", "--reps", "2"],
    # --trials above min_outcomes
    ["run", "--n-ladder", "100", "--trials", "600", "--threads", "1"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("bad", sorted(BAD_DEGREES))
def test_bad_degree_law_is_config_error_before_any_output(argv, bad, tmp_path, capsys):
    # the law is checked when the config is built, so every command that
    # reads it refuses it the same way, and before any trial runs
    kind, table, reason = BAD_DEGREES[bad]
    spec = "regular:0"
    if table is not None:
        path = tmp_path / "table.txt"
        path.write_text(table)
        spec = f"{kind}:{path}"
    out = tmp_path / "out"
    writes = [] if argv[0] == "constants" else ["--out", str(out)]
    code, stdout, err = run_cli(capsys, *argv, "--degrees", spec, *writes)
    assert code == 2
    assert err.startswith("config error:") and reason in err
    assert stdout == ""
    assert not out.exists()


def test_run_refuses_a_near_critical_law_before_any_rung(tmp_path, capsys):
    # iid {2: .999, 3: .001} has nu = 1.0015, too near critical for the W
    # reference: the run fails before its first rung and writes no CSV
    table = tmp_path / "table.txt"
    table.write_text("2 0.999\n3 0.001\n")
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "run", "--degrees", f"iid:{table}",
                                "--n-ladder", "100", "--trials", "600",
                                "--threads", "1", "--out", str(out))
    assert code == 2
    assert err.startswith("config error:") and "too close to critical" in err
    assert stdout == ""
    assert not list(out.glob("outcomes_n*.csv"))


@pytest.mark.parametrize("table, trials, code", [
    ("2 0.5\n3 0.5\n", "200", 3),       # a TrialError at the first rung
    ("2 0.999\n3 0.001\n", "500", 2),   # the near-critical refusal
], ids=["trial_error", "near_critical"])
def test_a_failed_run_leaves_no_empty_output_directory(monkeypatch, tmp_path, capsys,
                                                       table, trials, code):
    real = montecarlo._run_single_trial

    def failing(task, index):
        if task.n == 40 and index == 7:
            raise ZeroDivisionError("injected")
        return real(task, index)

    monkeypatch.setattr(montecarlo, "_run_single_trial", failing)
    path = tmp_path / "table.txt"
    path.write_text(table)
    out = tmp_path / "out"
    assert run_cli(capsys, "run", "--degrees", f"iid:{path}", "--n-ladder", "40,100",
                   "--trials", trials, "--threads", "1", "--out", str(out))[0] == code
    assert not out.exists()
    # a directory that was there before the run stays, even when empty
    out.mkdir()
    assert run_cli(capsys, "run", "--degrees", f"iid:{path}", "--n-ladder", "40,100",
                   "--trials", trials, "--threads", "1", "--out", str(out))[0] == code
    assert out.is_dir() and not any(out.iterdir())


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
    assert len(list(out_dir.iterdir())) == 4

    out_dir2 = tmp_path / "exp2"
    code2, _, _ = run_cli(capsys, "run", "--n-ladder", "200", "--trials", "8",
                          "--threads", "2", "--seed", "42", "--out", str(out_dir2),
                          "--log")
    assert code2 == 0
    assert (out_dir2 / "outcomes_n200.csv").read_bytes() == csv1
    # 8 trials draw no references, so the sidecar times the rung alone
    text = (out_dir2 / "runtimes.txt").read_text()
    assert "rung 200: 8 trials, finished_seconds " in text
    log = runtimes(out_dir2)
    assert set(log) == {"total_seconds", "rung 200"}
    assert 0.0 < log["rung 200"] <= log["total_seconds"]


def runtimes(out_dir) -> dict:
    """runtimes.txt as {name: seconds}; a rung's finish is under "rung n"."""
    rows = {}
    for line in (out_dir / "runtimes.txt").read_text().splitlines():
        words = line.split()
        key = f"rung {words[1].rstrip(':')}" if words[0] == "rung" else words[0]
        rows[key] = float(words[-1])
    return rows


def test_run_log_times_references_and_rungs(tmp_path, capsys):
    # with min_outcomes lowered the parent builds the references while the
    # pool runs the rungs; --log gives their seconds and each rung's finish,
    # counted from the start
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[weights]\nspec = exp:1\n\n[thresholds]\nmin_outcomes = 70\n")
    out_dir = tmp_path / "exp"
    code, _, _ = run_cli(capsys, "run", "--config", str(cfg), "--n-ladder", "100,200",
                         "--trials", "70", "--threads", "2", "--seed", "5",
                         "--out", str(out_dir), "--log")
    assert code in (0, 1)
    log = runtimes(out_dir)
    assert list(log) == ["total_seconds", "references_seconds", "rung 100", "rung 200"]
    assert 0.0 < log["references_seconds"] < log["total_seconds"]
    # a rung's stamp is when its last chunk finished: rungs share one pool,
    # so they may finish in either order
    for rung in ("rung 100", "rung 200"):
        assert 0.0 < log[rung] <= log["total_seconds"]


def test_zero_trials_flag_is_config_error(tmp_path, capsys):
    # a zero count is a value, not an absent flag
    code, _, err = run_cli(capsys, "run", "--trials", "0", "--n-ladder", "100",
                           "--out", str(tmp_path / "out"))
    assert code == 2
    assert "trials" in err
    assert not (tmp_path / "out").exists()


def test_zero_ranked_m_in_config_file_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[weights]\nspec = exp:1\n\n[experiment]\nranked_m = 0\n"
                   "n_ladder = 100\ntrials = 5\n")
    code, _, err = run_cli(capsys, "run", "--config", str(cfg),
                           "--out", str(tmp_path / "out"))
    assert code == 2
    assert "ranked_m" in err


@pytest.mark.parametrize("threads", ["1", "2"])
def test_realised_subcritical_draw_names_its_trial(monkeypatch, tmp_path, capsys,
                                                   threads):
    # a trial whose realised degrees have nu_n = 1 raises SubcriticalError
    # from its n-level constants; injected into trial 95 of rung n = 40, it
    # is a runtime error naming that trial and its seed, not a config error,
    # and no outcome CSV is left
    if threads != "1" and multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched trial reaches the workers only by fork")
    real = montecarlo._run_single_trial

    def failing(task, index):
        if task.n == 40 and index == 95:
            raise ctbp.SubcriticalError("offspring mean nu=1.0 is not supercritical")
        return real(task, index)

    monkeypatch.setattr(montecarlo, "_run_single_trial", failing)
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "run", "--n-ladder", "40,100", "--trials",
                                "200", "--threads", threads, "--out", str(out))
    assert code == 3
    assert err.startswith("runtime error:")
    assert ("trial 95 of rung n=40 (trial seed 1953786514014019177, master seed 1) "
            "raised SubcriticalError" in err)
    assert stdout == ""
    assert not list(out.glob("outcomes_n*.csv"))


def test_run_refuses_a_likely_subcritical_draw_before_any_rung(tmp_path, capsys):
    # iid {2: .9, 3: .1} is supercritical (nu = 1.1), but at n = 40 every
    # degree is 2 (nu_n = 1) with probability 0.9^40 = 1.5 %: 200 trials
    # would likely meet one, so the run is refused before its first rung
    table = tmp_path / "table.txt"
    table.write_text("2 0.9\n3 0.1\n")
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "run", "--degrees", f"iid:{table}",
                                "--n-ladder", "40,100", "--trials", "200",
                                "--threads", "1", "--out", str(out))
    assert code == 2
    assert err.startswith("config error: at n=40 ") and "up to 0.0148;" in err
    assert stdout == ""
    assert not out.exists()


def test_run_refuses_references_it_cannot_build_before_any_trial(tmp_path, capsys):
    # 500 trials draw references, whose offspring law is the mixed-Poisson
    # pmf; power:4 vertex weights are too heavy to sum, and that must stop
    # the run before its first rung, not after every rung has run
    out_dir = tmp_path / "exp"
    code, _, err = run_cli(capsys, "run", "--kind", "nr", "--vertex-weights", "power:4",
                           "--n-ladder", "100", "--trials", "500", "--threads", "1",
                           "--out", str(out_dir))
    assert code == 2
    assert "mixed-Poisson" in err
    assert not list(out_dir.glob("outcomes_n*.csv"))


def test_run_requires_out(capsys):
    code, _, err = run_cli(capsys, "run", "--n-ladder", "100", "--trials", "4")
    assert code == 2
    assert "--out" in err


def test_run_rejects_unsorted_ladder(capsys):
    code, _, err = run_cli(capsys, "run", "--n-ladder", "500,200",
                           "--trials", "4", "--out", "/tmp/nope")
    assert code == 2
    assert "ladder" in err.lower()


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


def test_bad_config_file_value_names_its_key(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[weights]\nspec = exp:1\n\n[experiment]\ntrials = x\n")
    code, _, err = run_cli(capsys, "constants", "--config", str(cfg))
    assert code == 2
    assert "trials" in err


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
# bp-sim


@pytest.mark.parametrize("argv, name", [
    (["run", "--n-ladder", "2", "--trials", "5"], "n_ladder"),
    (["run", "--n-ladder", "2,1000", "--trials", "5"], "n_ladder"),
    (["oracle", "--instances", "0"], "--instances"),
    (["oracle", "--instances", "-3"], "--instances"),
    (["bp-sim", "--reps", "0"], "--reps"),
    (["bp-sim", "--target", "0"], "--target"),
    (["bp-sim", "--reps", "2", "--target", "0.5"], "--target"),
    (["bp-sim", "--reps", "2", "--horizon", "-1"], "--horizon"),
])
def test_sizes_and_counts_that_cannot_run_are_config_errors(argv, name, tmp_path,
                                                             capsys):
    out_flag = ["--out", str(tmp_path / "out")]
    flags = {"run": ["--threads", "1", *out_flag], "bp-sim": out_flag}.get(argv[0], [])
    code, out, err = run_cli(capsys, *argv, *flags)
    assert code == 2
    assert "config error" in err and name in err
    assert "PASS" not in out
    assert not (tmp_path / "out").exists()


def test_bp_sim_reports_growth(tmp_path, capsys):
    out_file = tmp_path / "bp.csv"
    code, out, _ = run_cli(capsys, "bp-sim", "--reps", "40", "--seed", "11",
                           "--target", "200", "--out", str(out_file))
    assert code == 0
    assert "w_estimate" in out
    assert "predicted" in out
    # the CSV holds plain numbers, not numpy scalar reprs
    header, *rows = out_file.read_text().splitlines()
    assert header == "rep,alive_end,w_estimate"
    assert len(rows) == 40
    for row in rows:
        _, alive, west = row.split(",")
        assert int(alive) >= 0 and float(west) >= 0.0


def test_run_writes_the_top_rungs_ranked_paths(tmp_path, capsys):
    # these bytes are the ones the retired `fpplab ranked --n 300 --out` wrote
    out = tmp_path / "exp"
    code, _, _ = run_cli(capsys, "run", "--n-ladder", "300", "--trials", "10",
                         "--ranked-m", "2", "--seed", "8", "--threads", "1",
                         "--out", str(out))
    assert code == 0
    data = (out / "ranked_n300.csv").read_bytes()
    assert data.startswith(b"trial,rank,weight,hops\n")
    assert hashlib.sha256(data).hexdigest().startswith("c4011c25d99c8034")


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


@pytest.mark.parametrize("argv", [
    ["oracle", "--instances", "1", "--weights", "exp:2"],
    ["oracle", "--instances", "1", "--config", "missing.ini"],
    ["constants", "--seed", "3"],
    ["bp-sim", "--threads", "2"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_a_flag_the_subcommand_does_not_read_exits_two(argv, capsys):
    # each subcommand accepts only the flags it reads
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


def test_run_and_oracle_keep_their_own_seed_defaults():
    # argparse shares a parent parser's actions between subcommands, so a
    # seed default set on one of them would become every other's
    parser = cli.build_parser()
    assert parser.parse_args(["run"]).seed is None
    assert cli._assemble_config(parser.parse_args(["run"])).master_seed == 1
    assert parser.parse_args(["oracle"]).seed == 20260817


def test_readme_synopses_are_the_parsers_subcommands():
    # a subcommand removed from the parser takes its README synopsis with it
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## CLI\n")[1].split("\n## ")[0]
    documented = {line.split()[1] for line in section.splitlines()
                  if line.startswith("fpplab ")}
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert documented == set(sub.choices)


def test_no_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
