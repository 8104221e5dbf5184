#!/usr/bin/env python3
"""fpplab benchmark: trial throughput and `fpplab run` time on four workloads.

    python3 benchmarks/run.py --workload NAME [--seed S] [--seconds T] [--trace 0|1]
    python3 benchmarks/run.py --workload all      # each workload in a fresh process

With --trace 0 the run prints the end-to-end metrics named in BENCHMARK.json,
with times in reference seconds (see calibrate.py). With --trace 1 it runs a
fixed amount of work three times, untraced in a fresh process, traced in
this one, untraced again, and prints the per-layer metrics plus the tracing
overhead. Either way the last line of standard output is one JSON object
{correct, attempted, failed, metrics}. README.md beside this file explains
the workloads and metrics.

The program is imported from src/ of the checkout this file sits in; with
no src/fpplab there the benchmark exits with code 2 and prints no result.
Scratch files (outcome CSVs, reports, the digest ledger) go to
.bench_scratch/ at the checkout root unless --scratch says otherwise.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace

import calibrate
import checks
import tracer as tracing

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
DEFAULT_SEED = 20260817          # the acceptance seed
SETUP_REPEATS = 5                # fresh processes timed for setup_s
ORACLE_INSTANCES = 40
RANKED_M = 3
LADDER_THREADS = 2               # one pool worker per core of the reference box
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Limit degree law of the nr graph with Exp(rate 1/3) vertex weights: the
# mixed Poisson with mean-3 exponential mixing is P(k) = (1/4)(3/4)^k; the
# tail beyond k = 120 is below 1e-15 and is folded back by renormalising.
_GEOM = [0.25 * 0.75 ** k for k in range(121)]
NR_DEGREE_PMF = tuple((k, p / sum(_GEOM)) for k, p in enumerate(_GEOM))


@dataclass(frozen=True)
class Workload:
    name: str
    model: str            # "cm" (4-regular configuration model), "nr", or "ladder"
    n: int = 0
    batch: int = 0        # trials per timed run_trials call
    trace_batches: int = 0
    ladder: str = "1000,10000"
    ladder_trials: int = 500
    min_calls: int = 3    # timed calls per run, however long they take


WORKLOADS = {w.name: w for w in (
    Workload("trials-cm-small", "cm", n=1_000, batch=250, trace_batches=8),
    Workload("trials-cm-large", "cm", n=1_000_000, batch=1, trace_batches=4),
    Workload("trials-nr", "nr", n=10_000, batch=2, trace_batches=8),
    Workload("run-ladder", "ladder", min_calls=2),
)}

# sizes for the benchmark's own smoke test: every code path, seconds of work
TINY = {
    "trials-cm-small": dict(n=200, batch=10, trace_batches=2),
    "trials-cm-large": dict(n=2_000, batch=2, trace_batches=2),
    "trials-nr": dict(n=300, batch=2, trace_batches=2),
    "run-ladder": dict(ladder="100,200", ladder_trials=20),
}


@dataclass
class Run:
    """One benchmark process: workload, seed, scratch space, operation tally.

    Operations are trials, verifier entries of `fpplab run`, and oracle
    corpus instances; one fails when it raises or fails an output check.
    """

    wl: Workload
    seed: int
    scratch: pathlib.Path          # this process's own directory, removed at exit
    ledger: pathlib.Path           # digests shared by every run in the checkout
    src: str                       # digest of the sources under test
    attempted: int = 0
    failed: int = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


# ---------------------------------------------------------------------------
# configuration and setup


def batch_seed(seed: int, b: int) -> int:
    return seed * 65_536 + b


def trial_config(wl: Workload, master: int):
    from fpplab import montecarlo

    if wl.model == "nr":
        return montecarlo.ExperimentConfig(
            graph_kind="nr", degree_model=("iid", NR_DEGREE_PMF),
            vertex_weight_spec=("exponential", (1.0 / 3.0,)),
            n_ladder=(wl.n,), trials=wl.batch, ranked_m=RANKED_M,
            master_seed=master, threads=1)
    return montecarlo.ExperimentConfig(
        n_ladder=(wl.n,), trials=wl.batch, ranked_m=RANKED_M,
        master_seed=master, threads=1)


def ladder_config(wl: Workload, seed: int):
    """The config `fpplab run` assembles from ladder_argv."""
    from fpplab import montecarlo

    return montecarlo.ExperimentConfig(
        n_ladder=tuple(int(x) for x in wl.ladder.split(",")),
        trials=wl.ladder_trials, ranked_m=RANKED_M, master_seed=seed,
        threads=LADDER_THREADS)


def ladder_argv(wl: Workload, seed: int, out) -> list:
    return ["run", "--n-ladder", wl.ladder, "--trials", str(wl.ladder_trials),
            "--ranked-m", str(RANKED_M), "--threads", str(LADDER_THREADS),
            "--seed", str(seed), "--out", str(out)]


def setup(wl: Workload, seed: int) -> None:
    """Everything before the first timed call: imports, config, limit constants."""
    from fpplab import cli, montecarlo  # noqa: F401  (cli: the ladder's entry)

    config = ladder_config(wl, seed) if wl.model == "ladder" else trial_config(wl, seed)
    montecarlo.constants_for_config(config)


def child(args, role: str) -> str:
    """Run this script in a fresh process in a child role; returns its stdout."""
    argv = [sys.executable, __file__, "--workload", args.workload,
            "--seed", str(args.seed), "--scratch", str(args.scratch),
            "--child", role]
    if args.tiny:
        argv.append("--tiny")
    return subprocess.run(argv, capture_output=True, text=True, timeout=170,
                          check=True).stdout


def setup_seconds(args) -> tuple[list, list]:
    """Setup times of fresh processes, from spawn to end of setup, and kernels.

    time.monotonic is one system-wide clock on Linux, so the child's stamp
    and the parent's spawn time compare directly.
    """
    times, kernels = [], []
    for _ in range(SETUP_REPEATS):
        kernels.append(calibrate.kernel_seconds())
        t0 = time.monotonic()
        times.append(float(child(args, "setup").split()[-1]) - t0)
    return times, kernels


# ---------------------------------------------------------------------------
# trial workloads


def run_batches(run: Run, batch_ids, *, seconds=None):
    """Timed run_trials calls, one per batch id.

    Returns (walls, kernels, batch-0 outcomes), where kernels[i] is the
    calibration kernel's time just before call i. With seconds, batch ids
    are consumed until that much time has passed (and at least wl.min_calls
    ran); otherwise every id runs.
    """
    from fpplab import montecarlo

    wl = run.wl
    walls, kernels = [], []
    first = None
    start = time.perf_counter()
    for i, b in enumerate(batch_ids):
        if seconds is not None and i >= wl.min_calls \
                and time.perf_counter() - start >= seconds:
            break
        config = trial_config(wl, batch_seed(run.seed, b))
        kernel = calibrate.kernel_seconds()
        t0 = time.perf_counter()
        try:
            outcomes = montecarlo.run_trials(config, n=wl.n, threads=1)
        except Exception as exc:       # a failed call is a failed batch, not a crash
            print(f"batch {b} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            run.add(wl.batch, wl.batch)
            continue
        walls.append(time.perf_counter() - t0)
        kernels.append(kernel)
        run.add(len(outcomes), checks.bad_outcomes(outcomes))
        if b == 0:
            first = outcomes
    return walls, kernels, first


def check_batch_zero(run: Run, first) -> str:
    """Rerun batch 0; its CSV must match the timed run's and the ledger's."""
    from fpplab import montecarlo

    wl = run.wl
    if first is None:
        return "missing"
    timed_csv = run.scratch / "batch0_timed.csv"
    rerun_csv = run.scratch / "batch0_rerun.csv"
    montecarlo.write_outcomes_csv(first, timed_csv)
    montecarlo.run_trials(trial_config(wl, batch_seed(run.seed, 0)), n=wl.n,
                          threads=1, csv_path=rerun_csv)
    digest = checks.file_digest(timed_csv)
    key = f"{wl.name}:n={wl.n}:batch={wl.batch}:seed={run.seed}:src={run.src}"
    same = checks.file_digest(rerun_csv) == digest
    if not (checks.ledger_agrees(run.ledger, key, digest) and same):
        run.add(0, len(first) - checks.bad_outcomes(first))
        print(f"digest mismatch on batch 0 ({'ledger' if same else 'rerun'})",
              file=sys.stderr)
    return digest


# ---------------------------------------------------------------------------
# the ladder workload


def run_ladder(run: Run, seed: int, out: pathlib.Path):
    """One in-process `fpplab run`; returns (wall seconds, rung CSVs or None).

    Its four verifier entries are the operations; all fail if the run
    fails or writes a bad outcome row, one fails for non-finite statistics.
    """
    from fpplab import cli

    wl = run.wl
    ops = len(checks.VERIFIER_NAMES)
    out.mkdir(parents=True)
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = cli.main(ladder_argv(wl, seed, out))
        wall = time.perf_counter() - t0
    rungs = [out / f"outcomes_n{n}.csv" for n in wl.ladder.split(",")]
    report = out / "report.json"
    if code not in (0, 1) or not report.exists() or not all(p.exists() for p in rungs):
        run.add(ops, ops)
        print(f"fpplab run exited {code}", file=sys.stderr)
        return wall, None
    verdicts, bad = checks.report_entries(report)
    failed = ops if sum(checks.bad_csv_rows(p) for p in rungs) else bad
    run.add(ops, failed)
    print(f"fpplab run seed {seed}: exit {code}, verdicts "
          + json.dumps(verdicts, sort_keys=True))
    return wall, None if failed else rungs     # a failed run needs no digest check


def check_ladder_rungs(run: Run, rungs) -> str:
    """A serial rerun of the first rung must match the pooled CSV byte for byte."""
    from fpplab import montecarlo

    wl = run.wl
    if rungs is None:
        return "missing"
    serial = run.scratch / "rung0_serial.csv"
    n0 = int(wl.ladder.split(",")[0])
    montecarlo.run_trials(ladder_config(wl, run.seed), n=n0, threads=1,
                          csv_path=serial)
    digest = checks.file_digest(*rungs)
    key = (f"{wl.name}:ladder={wl.ladder}:trials={wl.ladder_trials}:"
           f"seed={run.seed}:src={run.src}")
    same = checks.file_digest(serial) == checks.file_digest(rungs[0])
    if not (checks.ledger_agrees(run.ledger, key, digest) and same):
        run.add(0, len(checks.VERIFIER_NAMES))
        print(f"digest mismatch on the ladder ({'ledger' if same else 'rerun'})",
              file=sys.stderr)
    return digest


def fixed_pass(run: Run):
    """The fixed work a traced run measures: (reference seconds, outputs to check)."""
    if run.wl.model == "ladder":
        with calibrate.Sampler() as speed:
            wall, rungs = run_ladder(run, run.seed, run.scratch / "ladder")
        return calibrate.scaled(wall, speed.mean()), rungs
    walls, kernels, first = run_batches(run, range(run.wl.trace_batches))
    return sum(map(calibrate.scaled, walls, kernels)), first


def check_outputs(run: Run, outputs) -> str:
    if run.wl.model == "ladder":
        return check_ladder_rungs(run, outputs)
    return check_batch_zero(run, outputs)


# ---------------------------------------------------------------------------
# metrics


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0      # ru_maxrss is in KiB on Linux


def children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def layer_metrics(tr: tracing.Tracer) -> dict:
    c = tr.counts
    events = c["events"]
    built = c["half_edges_built"]
    return {
        "graphs.pair_s": tr.total["graphs.pair"],
        "graphs.weights_s": tr.total["graphs.weights"],
        "graphs.rank1_s": tr.total["graphs.rank1"],
        "graphs.half_edges_built": built,
        "explore.s": tr.total["explore"],
        "explore.events": events,
        "explore.us_per_event": tr.total["explore"] / events * 1e6 if events else 0.0,
        "explore.touched_frac": c["touched"] / built if built else 0.0,
        "explore.isolated_retries": tr.errors["explore", "IsolatedEndpointError"],
        "ctbp.constants_s": tr.total["ctbp.constants"],
        "ctbp.constants_solves": tr.calls["ctbp.constants"],
        "degrees.build_s": tr.total["degrees.build"],
        "weights.sample_s": tr.total["weights.sample"],
        "montecarlo.harness_s": tr.self_time("montecarlo.run_trials"),
        "montecarlo.resamples_per_trial":
            c["resamples"] / c["trials"] if c["trials"] else 0.0,
        "montecarlo.trials_s": tr.total["montecarlo.run_trials"],
        "montecarlo.q_ref_s": tr.total["montecarlo.q_ref"],
        "montecarlo.ranked_ref_s": tr.total["montecarlo.ranked_ref"],
        "montecarlo.residual_table_s": tr.total["montecarlo.residual_table"],
        "montecarlo.verify_s": tr.total["montecarlo.verify"],
        "cli.self_s": tr.self_time("cli.main"),
    }


def environment(seed: int, src_digest: str) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown"              # an exported checkout has no git metadata
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                  capture_output=True, text=True)
            if done.returncode == 0:
                commit = done.stdout.strip()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu,
            "git_commit": commit, "src_sha256": src_digest, "seed": seed,
            "blas_threads": os.environ.get("OMP_NUM_THREADS")}


# ---------------------------------------------------------------------------
# one workload in this process


def end_to_end(args, run: Run) -> dict:
    """Timed calls for --seconds; times are scaled to reference seconds."""
    wl = run.wl
    if wl.model == "ladder":
        walls, kernels, outputs = [], [], None
        start = time.perf_counter()
        while len(walls) < wl.min_calls or time.perf_counter() - start < args.seconds:
            seed = run.seed + len(walls)
            with calibrate.Sampler() as speed:
                wall, rungs = run_ladder(run, seed, run.scratch / f"run{seed}")
            kernels.append(speed.mean())
            outputs = rungs if not walls else outputs    # checked: the first run
            walls.append(wall)
        trials = len(wl.ladder.split(",")) * wl.ladder_trials
    else:
        walls, kernels, outputs = run_batches(run, range(10**6), seconds=args.seconds)
        trials = wl.batch
    digest = check_outputs(run, outputs)
    setups, setup_kernels = setup_seconds(args)
    # mean reference seconds per call as a ratio of sums: steadier than the
    # median of per-call ratios, each of which rests on one noisy kernel time
    per_call = calibrate.scaled(sum(walls), statistics.fmean(kernels)) / len(walls)
    print(f"outcome digest {digest}")
    print(f"timed calls: {len(walls)}, setups: {len(setups)}")
    print(f"raw wall s per call: median {statistics.median(walls):.6g}; "
          f"raw setup s: median {statistics.median(setups):.6g}; "
          f"kernel s: median {statistics.median(kernels):.6g} "
          f"(reference {calibrate.REF_S})")
    return {
        "trials_per_s": trials / per_call,
        "experiment_s": per_call,
        "setup_s": statistics.median(calibrate.scaled(t, k)
                                     for t, k in zip(setups, setup_kernels)),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(args, run: Run) -> dict:
    """The fixed pass traced here, between two untraced runs in fresh processes.

    Untraced before and after, averaged, cancels a host speed that drifts
    steadily across the three passes.
    """
    before = float(child(args, "untraced").split()[-1])
    ladder = run.wl.model == "ladder"
    cpu0 = children_cpu()
    with tracing.Tracer() as tr:
        if ladder:
            tracing.trace_experiment_layers(tr)
        else:
            tracing.trace_trial_layers(tr)
        traced, outputs = fixed_pass(run)
    pool_cpu = children_cpu() - cpu0
    untraced = 0.5 * (before + float(child(args, "untraced").split()[-1]))
    check_outputs(run, outputs)
    metrics = layer_metrics(tr)
    metrics["montecarlo.pool_util"] = \
        pool_cpu / (LADDER_THREADS * tr.total["cli.main"]) if ladder else 0.0
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.overhead_frac"] = (traced - untraced) / untraced
    return metrics


def measure(args, run: Run) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    setup(run.wl, run.seed)
    metrics = per_layer(args, run) if args.trace else end_to_end(args, run)
    mismatches = checks.oracle_mismatches(ORACLE_INSTANCES, run.seed)
    run.add(ORACLE_INSTANCES, mismatches)
    if args.trace:
        metrics["oracle.mismatches"] = mismatches
    else:
        metrics["ok_frac"] = (run.attempted - run.failed) / run.attempted
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(metrics))}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:.6g} {units[name]}")
    return {"correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def run_all(args) -> int:
    """Every workload in its own fresh process; one combined summary line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--scratch", str(args.scratch)]
        if args.tiny:
            argv.append("--tiny")
        print(f"== {name}", flush=True)
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            print(f"{name} exited {done.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="how long the timed calls run (at least one call)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scratch", type=pathlib.Path, default=ROOT / ".bench_scratch",
                   help="directory for outcome files and the digest ledger")
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    p.add_argument("--child", choices=("setup", "untraced"), help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fpplab" / "__init__.py").is_file():
        print(f"no fpplab sources under {SRC}; nothing to benchmark", file=sys.stderr)
        return 2
    for var in BLAS_VARS:                    # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import fpplab

    if not pathlib.Path(fpplab.__file__).resolve().is_relative_to(SRC):
        print(f"fpplab imported from {fpplab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    wl = WORKLOADS[args.workload]
    if args.tiny:
        wl = replace(wl, **TINY[wl.name])
    if args.child == "setup":
        setup(wl, args.seed)
        print(time.monotonic())
        return 0

    args.scratch.mkdir(parents=True, exist_ok=True)
    scratch = pathlib.Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=args.scratch))
    src_digest = checks.source_digest(SRC)
    run = Run(wl, args.seed, scratch, args.scratch / "digests.json", src_digest[:16])
    try:
        if args.child == "untraced":
            setup(wl, args.seed)
            print(fixed_pass(run)[0])
            return 0
        result = measure(args, run)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("env " + json.dumps(environment(args.seed, src_digest), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
