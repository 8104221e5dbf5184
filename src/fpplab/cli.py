"""Command line wiring: constants tables, experiment runs, oracle checks.

`run` is the one front end for trials: it runs the ladder, writes each
rung's outcome CSV and the top rung's ranked paths, and verifies them.
Everything a subcommand writes is a pure function of (argv, config file,
master seed); wall-clock timings only ever land in the opt-in --log sidecar.
Config precedence: built-in defaults < config file < flags. _FIELDS names
each config field once, with its flag and its INI section and key.

Exit codes: 0 pass, 1 verification failure, 2 usage/config error,
3 runtime error (a trial that raises among them, named with its seed).
"""
from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import pathlib
import sys
import time

import numpy as np

from . import ctbp, degrees, explore, graphs, montecarlo, oracle, weights

__all__ = ["main", "build_parser", "parse_weight_spec", "parse_degree_model"]


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# mini-grammar: kind:arg

_WEIGHT_ALIASES = {
    "exp": "exponential",
    "exponential": "exponential",
    "shifted-exp": "shifted_exponential",
    "shifted_exp": "shifted_exponential",
    "shifted_exponential": "shifted_exponential",
    "power": "power_exponential",
    "power-exp": "power_exponential",
    "power_exponential": "power_exponential",
    "unif": "uniform",
    "uniform": "uniform",
    "table": "user_table",
    "user_table": "user_table",
}


def parse_weight_spec(text: str) -> tuple:
    """'exp:1.0' / 'shifted-exp:10' / 'table:PATH' -> (kind, params)."""
    head, _, arg = text.strip().partition(":")
    kind = _WEIGHT_ALIASES.get(head.strip().lower())
    if kind is None:
        raise ConfigError(f"weights: unknown kind {head!r} "
                          f"(choices: {sorted(set(_WEIGHT_ALIASES.values()))})")
    if not arg:
        raise ConfigError(f"weights: {head!r} needs an argument, e.g. {head}:1.0")
    if kind == "user_table":
        dist = weights.load_table(arg.strip())
        return dist.spec()
    try:
        value = float(arg)
    except ValueError:
        raise ConfigError(f"weights: cannot parse parameter {arg!r} as a number")
    return (kind, (value,))


def parse_degree_model(text: str) -> tuple:
    """'regular:4' / 'iid:PATH' / 'deterministic:PATH' -> (kind, param)."""
    head, _, arg = text.strip().partition(":")
    kind = head.strip().lower()
    if kind in ("regular", "reg"):
        try:
            r = int(arg)
        except ValueError:
            raise ConfigError(f"degrees: regular needs an integer, got {arg!r}")
        return ("regular", r)
    if kind in ("iid", "deterministic", "det"):
        kind, table = ("iid", "pmf") if kind == "iid" else ("deterministic", "cdf")
        if not arg:
            raise ConfigError(f"degrees: {kind} needs a {table} table path")
        return (kind, degrees.load_pmf_table(arg.strip()))
    raise ConfigError(f"degrees: unknown model {head!r} "
                      "(choices: regular, iid, deterministic)")


def _parse_ladder(text: str) -> tuple:
    """'1000,10000' -> (1000, 10000); ExperimentConfig checks the sizes."""
    try:
        return tuple(int(tok) for tok in text.replace(" ", "").split(",") if tok)
    except ValueError:
        raise ConfigError(f"n-ladder: cannot parse {text!r}")


# ---------------------------------------------------------------------------
# config assembly


# each config field once: (config field, flag attribute, INI section, INI
# key, parser); a flag set to anything, 0 included, overrides the file
_FIELDS = (
    ("graph_kind", "kind", "graph", "kind", str.lower),
    ("degree_model", "degrees", "graph", "degrees", parse_degree_model),
    ("vertex_weight_spec", "vertex_weights", "graph", "vertex_weights", parse_weight_spec),
    ("weight_spec", "weights", "weights", "spec", parse_weight_spec),
    ("n_ladder", "n_ladder", "experiment", "n_ladder", _parse_ladder),
    ("trials", "trials", "experiment", "trials", int),
    ("ranked_m", "ranked_m", "experiment", "ranked_m", int),
    ("master_seed", "seed", "experiment", "master_seed", int),
    ("threads", "threads", "experiment", "threads", int),
)


def _read_config_file(path: str) -> dict:
    """INI sections [graph] [weights] [experiment] [thresholds] -> flat dict."""
    cp = configparser.ConfigParser()
    if not cp.read(path):
        raise ConfigError(f"config file not found: {path}")
    if not cp.has_section("weights") or "spec" not in cp["weights"]:
        raise ConfigError(f"{path}: missing [weights] section with a 'spec' field")
    out: dict = {}
    for name, _, section, key, parse in _FIELDS:
        if cp.has_option(section, key):
            try:
                out[name] = parse(cp[section][key])
            except ValueError as exc:
                raise ConfigError(f"{path}: [{section}] {key}: {exc}")
    if cp.has_section("thresholds"):
        th = {}
        for key, raw in cp["thresholds"].items():
            try:
                th[key] = float(raw)
            except ValueError:
                raise ConfigError(f"{path}: threshold {key} = {raw!r} is not a number")
        out["thresholds"] = th
    return out


def _assemble_config(args) -> montecarlo.ExperimentConfig:
    """defaults < config file < flags."""
    fields = _read_config_file(args.config) if args.config else {}
    for name, attr, *_, parse in _FIELDS:
        if getattr(args, attr, None) is not None:
            fields[name] = parse(getattr(args, attr))
    fields.setdefault("threads", os.cpu_count() or 1)
    if fields.get("graph_kind") in graphs.RANK1_KINDS and "degree_model" in fields:
        raise ConfigError(f"{fields['graph_kind']} graphs take their degree law from "
                          "the vertex weights; drop --degrees (or [graph] degrees) and "
                          "set --vertex-weights")
    try:
        return montecarlo.ExperimentConfig(**fields)
    except montecarlo.MonteCarloError as exc:
        raise ConfigError(str(exc))


# ---------------------------------------------------------------------------
# subcommands


def cmd_constants(args) -> int:
    config = _assemble_config(args)
    consts = montecarlo.constants_for_config(config)
    report = consts.report()
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        width = max(len(k) for k in report)
        for key, value in report.items():
            print(f"{key:<{width}}  {value:.12g}")
    return 0


def cmd_run(args) -> int:
    config = _assemble_config(args)
    if not args.out:
        raise ConfigError("run: --out DIR is required")
    t0 = time.monotonic()
    report, outcomes_by_n = montecarlo.run_experiment(config, out_dir=args.out)
    elapsed = time.monotonic() - t0
    if args.log:
        # stage times count from the start of the run; the references are
        # built while the rungs run, so their seconds overlap the rungs'
        seconds = report.seconds
        lines = [f"total_seconds {elapsed!r}"]
        if "references" in seconds:
            lines.append(f"references_seconds {seconds['references']!r}")
        for n in sorted(outcomes_by_n):
            lines.append(f"rung {n}: {len(outcomes_by_n[n])} trials, "
                         f"finished_seconds {seconds[f'rung {n}']!r}")
        (pathlib.Path(args.out) / "runtimes.txt").write_text(
            "\n".join(lines) + "\n", encoding="utf-8")
    print(report.to_text(), end="")
    return 0 if report.passed else 1


def cmd_oracle(args) -> int:
    if args.instance is not None:
        print(oracle.describe_instance(args.instance, args.seed))
        return 0
    if args.instances < 1:
        raise ConfigError(f"oracle: --instances must be >= 1, got {args.instances}")
    res = oracle.run_corpus(args.instances, args.seed, corrupt=args.corrupt)
    print(res.summary())
    for line in res.failures:
        print(line)
    return 0 if res.passed else 1


def cmd_bp_sim(args) -> int:
    config = _assemble_config(args)
    if args.reps < 1:
        raise ConfigError(f"bp-sim: --reps must be >= 1, got {args.reps}")
    if not args.target > 0:
        raise ConfigError(f"bp-sim: --target must be > 0, got {args.target}")
    consts = montecarlo.constants_for_config(config)
    bp = montecarlo.bp_config_for(config)
    horizon = args.horizon
    if horizon is None:
        horizon = ctbp.default_w_horizon(consts, target_population=args.target)
    if not horizon >= 0:
        flag = "--horizon" if args.horizon is not None else "--target"
        raise ConfigError(f"bp-sim: {flag} gives the horizon {horizon:.6g}, which must "
                          "be >= 0 (a --target must exceed the mean size at time 0)")
    seed = config.master_seed
    alive = np.array([
        ctbp.simulate_bp(bp.root_law, bp.later_law, bp.dist, horizon,
                         montecarlo.rng_for(montecarlo.derived_seed(seed, 6, rep)))
        for rep in range(args.reps)], dtype=float)
    west = math.exp(-consts.alpha * horizon) * alive
    extinct = int(np.count_nonzero(alive == 0))
    predicted = consts.mu * ctbp.mean_growth_constant(consts)
    print(f"reps={args.reps} horizon={horizon:.6g} alpha={consts.alpha:.6g}")
    print(f"mean_alive={alive.mean():.6g} extinct_frac={extinct / args.reps:.4g}")
    print(f"mean_w_estimate={west.mean():.6g} predicted_mean={predicted:.6g}")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("rep,alive_end,w_estimate\n")
            for rep in range(args.reps):
                fh.write(f"{rep},{int(alive[rep])},{float(west[rep])!r}\n")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpplab",
        description="first-passage percolation laboratory on random graphs",
        epilog="config precedence: defaults < --config file < flags")
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes only the flags it reads: the model flags, then
    # --seed and --out where it draws and writes. oracle has its own --seed:
    # subcommands share a parent's actions, so a default set on one would
    # become every other's
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--config", metavar="PATH",
                       help="INI experiment bundle ([graph] [weights] "
                            "[experiment] [thresholds])")
    model.add_argument("--degrees", metavar="SPEC",
                       help="regular:R | iid:PATH | deterministic:PATH (cm and "
                            "simple; rank-1 degrees follow --vertex-weights)")
    model.add_argument("--weights", metavar="SPEC",
                       help="exp:RATE | shifted-exp:K | power:S | uniform:B "
                            "| table:PATH")
    model.add_argument("--kind", choices=("cm", "simple", "nr", "grg", "cl"),
                       help="graph model")
    model.add_argument("--vertex-weights", metavar="SPEC",
                       help="vertex weight law for nr/grg/cl, which sets their "
                            "mixed-Poisson degree law")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, metavar="U64", help="master seed")
    seeded.add_argument("--out", metavar="DIR", help="output location")

    p = sub.add_parser("constants", parents=[model],
                       help="print every limit constant for a model")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("run", parents=[model, seeded],
                       help="trial ladder plus all verifiers")
    p.add_argument("--threads", type=int, metavar="N",
                   help="worker processes (speed only, never results)")
    p.add_argument("--n-ladder", metavar="LIST", help="comma-separated sizes")
    p.add_argument("--trials", type=int, metavar="M")
    p.add_argument("--ranked-m", type=int, metavar="m")
    p.add_argument("--log", action="store_true",
                   help="write a wall-clock sidecar (the only timestamped file)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("oracle", help="explore vs Dijkstra equivalence corpus")
    p.add_argument("--instances", type=int, default=500, metavar="K")
    p.add_argument("--instance", type=int, metavar="IDX",
                   help="describe a single instance verbosely")
    p.add_argument("--corrupt", action="store_true",
                   help="test hook: perturb a weight so the corpus must fail")
    p.add_argument("--seed", type=int, default=20260817, metavar="U64",
                   help="corpus seed")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bp-sim", parents=[model, seeded],
                       help="simulate the limit branching process")
    p.add_argument("--reps", type=int, default=200, metavar="K")
    p.add_argument("--horizon", type=float, metavar="T",
                   help="default: time at which the mean size hits --target")
    p.add_argument("--target", type=float, default=1e3, metavar="SIZE")
    p.set_defaults(func=cmd_bp_sim)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, configparser.Error, ctbp.SubcriticalError,
            ctbp.NearCriticalError, weights.WeightModelError,
            degrees.DegreeModelError, graphs.GraphError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ctbp.CtbpError, ctbp.QuadratureError, explore.ExploreError,
            explore.HorizonError, montecarlo.MonteCarloError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
