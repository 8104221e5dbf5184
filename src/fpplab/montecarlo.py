"""Monte Carlo harness: seeded trials, KS tests, limit-law verifiers, reports.

Determinism is load-bearing here. Trial i of a run draws its own counter-based
generator keyed by a splittable hash of (master seed, i), so outcomes are a
pure function of the config (its master seed included) and the rung n,
regardless of thread count, chunking, or rerun; the CSV writer emits rows in
trial order with repr() floats, making output files byte-identical across
reruns and worker pools.

ExperimentConfig is the one model record, and building one checks its
degree model (degrees.limit_pmf), so a bad degree law fails before any
trial runs. sample_graph(config, n, rng) is the one graph sampler, shared
with gen-graph and the oracle corpus. Every
verifier reads arrays, which column, pool_marks and ranked_matrix extract
from trial outcomes, and takes its thresholds as one mapping th of
DEFAULT_THRESHOLDS names, merged over the defaults exactly as the config's
own thresholds are.
"""
from __future__ import annotations

import contextlib
import itertools
import json
import math
import pathlib
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, asdict, replace
from functools import lru_cache

import numpy as np
# numpy.random loads lazily; imported here, before any pool forks, it leaves a
# worker no import that could block on a lock another parent thread held
from numpy.random import Generator, Philox

from . import ctbp, degrees, explore, graphs, weights

__all__ = [
    "MonteCarloError",
    "PersistentDisconnection",
    "TrialError",
    "ExperimentConfig",
    "TrialOutcome",
    "ReportEntry",
    "VerificationReport",
    "CalibrationResult",
    "splitmix64",
    "derived_seed",
    "trial_seed",
    "rng_for",
    "size_biased_from_pmf",
    "bp_config_for",
    "constants_for_config",
    "sample_graph",
    "run_trials",
    "write_outcomes_csv",
    "CSV_HEADER",
    "ks_one_sample",
    "ks_two_sample",
    "build_q_reference",
    "build_ranked_reference",
    "residual_cdf_table",
    "column",
    "pool_marks",
    "ranked_matrix",
    "exact_marks",
    "verify_hopcount_clt",
    "verify_weight_limit",
    "verify_ppp",
    "verify_ranked",
    "run_experiment",
    "write_plot_data",
    "calibrate_verifiers",
]


class MonteCarloError(RuntimeError):
    pass


class PersistentDisconnection(MonteCarloError):
    """100 endpoint pairs in a row had no connecting path.

    Almost surely means the configuration has no giant component, i.e. the
    degree sequence is subcritical or the graph is shattered.
    """


class TrialError(MonteCarloError):
    """A trial raised; the message names its rung, index and seeds, and the
    serial call that replays it."""


# ---------------------------------------------------------------------------
# splittable seeding

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One SplitMix64 scramble step; the standard finalizer constants."""
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derived_seed(master: int, *path: int) -> int:
    """Hash a (master, index path) tuple to a 64-bit stream key.

    Distinct paths give independent-for-all-practical-purposes keys. Path
    heads in use: 0 trials, 2 the (ranked) limit references, 3 calibration,
    4 the oracle corpus, 5 gen-graph and acceptance gates 7 and 8, 6 bp-sim.
    Head 1, once the separate weight reference, is retired and must not be
    reused.
    """
    x = master & _MASK64
    for p in path:
        x = splitmix64((x + int(p) + 1) & _MASK64)
    return x


def trial_seed(master: int, index: int) -> int:
    return derived_seed(master, 0, index)


def rng_for(seed: int) -> Generator:
    """The counter-based generator of every seeded draw in the package."""
    return Generator(Philox(key=seed))


# ---------------------------------------------------------------------------
# configuration

DEFAULT_THRESHOLDS: dict[str, float | None] = {
    # None means: use the KS critical value at p=0.001 for the sample size
    "hop_ks": None,
    "hop_mean": 0.3,
    "hop_var": 0.3,
    "weight_ks": 0.08,
    "ppp_slope_rel": 0.15,
    "ppp_source_sigma": 3.0,
    "ppp_height_ks": 0.08,
    "ppp_residual_ks": 0.05,
    "ranked_ks": 0.1,
    "min_outcomes": 500,
}

_GRAPH_KINDS = ("cm", "simple", "nr", "grg", "cl")
# recentred-time window of the collision marks, its bins for the slope, and
# the fewest marks in it that verify_ppp tests
_MARK_WINDOW = (-1.5, 0.5)
_PPP_BINS = 8
_MIN_MARKS = 200
_MAX_RESAMPLES = 100   # endpoint pairs a trial draws before it gives up
_REFERENCE_SIZE = 10_000   # limit-law draws the weight verifier needs at least
_CALIBRATION_SEED = 7      # master seed of calibrate_verifiers' meta-seeds


def _merge_thresholds(th: dict | None) -> dict:
    """DEFAULT_THRESHOLDS with th laid over it; an unknown name is an error."""
    for key in th or ():
        if key not in DEFAULT_THRESHOLDS:
            raise MonteCarloError(
                f"unknown threshold {key!r}; valid names: "
                + ", ".join(sorted(DEFAULT_THRESHOLDS)))
    return {**DEFAULT_THRESHOLDS, **(th or {})}


@dataclass
class ExperimentConfig:
    """Everything a run needs; flags and files both build one of these. Rank-1
    kinds take their degree law from the vertex weights: degree_model is
    cleared. Every other kind's degree_model is checked by degrees.limit_pmf.
    The weight specs are stored hashable, and thresholds merged over
    DEFAULT_THRESHOLDS, so graphs and verdicts read this record directly."""

    graph_kind: str = "cm"
    degree_model: tuple | None = ("regular", 4)
    weight_spec: tuple = ("exponential", (1.0,))
    vertex_weight_spec: tuple | None = None     # rank-1 kinds draw w_i from this
    n_ladder: tuple = (1000,)
    trials: int = 100
    ranked_m: int = 1
    master_seed: int = 1
    threads: int = 1
    thresholds: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.graph_kind not in _GRAPH_KINDS:
            raise MonteCarloError(f"unknown graph kind {self.graph_kind!r}")
        if self.graph_kind in graphs.RANK1_KINDS:
            if self.vertex_weight_spec is None:
                raise MonteCarloError(f"{self.graph_kind} graphs need vertex_weight_spec")
            self.degree_model = None
        else:
            degrees.limit_pmf(self.degree_model)
        self.weight_spec = _hashable_spec(self.weight_spec)
        if self.vertex_weight_spec is not None:
            self.vertex_weight_spec = _hashable_spec(self.vertex_weight_spec)
        self.n_ladder = tuple(int(n) for n in self.n_ladder)
        if not self.n_ladder or any(n < 3 for n in self.n_ladder):
            raise MonteCarloError("n_ladder must list sizes >= 3: the probe time "
                                  "needs log(log n) > 0")
        for name in ("trials", "ranked_m", "threads"):
            if not getattr(self, name) >= 1:
                raise MonteCarloError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        self.thresholds = _merge_thresholds(self.thresholds)

    def echo(self) -> dict:
        """JSON-safe snapshot recorded in reports."""
        return asdict(self)


@dataclass
class TrialOutcome:
    trial: int
    seed: int
    n: int
    H_n: int
    L_n: float
    Z_hat: float
    Q_hat: float
    W1: float
    W2: float
    connected: bool
    resamples: int
    marks: np.ndarray
    ranked: tuple


CSV_HEADER = "trial,seed,n,H_n,L_n,Z_hat,Q_hat,W1,W2,connected"


def _csv_row(o: TrialOutcome) -> str:
    return (f"{o.trial},{o.seed},{o.n},{o.H_n},{o.L_n!r},{o.Z_hat!r},"
            f"{o.Q_hat!r},{o.W1!r},{o.W2!r},{int(o.connected)}")


def write_outcomes_csv(outcomes, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for o in outcomes:
            fh.write(_csv_row(o) + "\n")


# ---------------------------------------------------------------------------
# model plumbing: degree laws, offspring laws, constants


def size_biased_from_pmf(pmf: dict[int, float]) -> dict[int, float]:
    """Forward-degree law: pick an edge end by size bias, count siblings."""
    mu = sum(k * p for k, p in pmf.items())
    return {k - 1: k * p / mu for k, p in pmf.items() if k >= 1 and p > 0}


@lru_cache(maxsize=64)
def _dist_cached(spec: tuple) -> weights.WeightDistribution:
    return weights.from_spec(*spec)


def _hashable_spec(spec: tuple) -> tuple:
    kind, params = spec
    if kind == "user_table":
        return (kind, (tuple(params[0]), tuple(params[1])))
    return (kind, tuple(params))


@lru_cache(maxsize=256)
def _constants_cached(spec: tuple, mu: float, nu: float) -> ctbp.CtbpConstants:
    return ctbp.constants(mu, nu, _dist_cached(spec))


@lru_cache(maxsize=64)
def _mixed_poisson_cached(spec: tuple) -> tuple:
    return tuple(enumerate(graphs.mixed_poisson_pmf(_dist_cached(spec)).tolist()))


@lru_cache(maxsize=64)
def _moments_cached(spec: tuple) -> tuple[float, float]:
    return weights.moments(_dist_cached(spec))


def _limit_pmf(config: ExperimentConfig) -> dict[int, float]:
    """Limiting degree pmf: the degree model's, or for rank-1 kinds the mixed
    Poisson law of the vertex weights, computed once per weight spec. Only the
    references' offspring draws need it; constants_for_config does not."""
    if config.graph_kind in graphs.RANK1_KINDS:
        return dict(_mixed_poisson_cached(config.vertex_weight_spec))
    return degrees.limit_pmf(config.degree_model)


def bp_config_for(config: ExperimentConfig) -> ctbp.BpConfig:
    """Two-stage offspring laws matching the limiting degree pmf."""
    pmf = _limit_pmf(config)
    root = ctbp.OffspringLaw.from_pmf(pmf)
    later = ctbp.OffspringLaw.from_pmf(size_biased_from_pmf(pmf))
    return ctbp.BpConfig(root_law=root, later_law=later,
                         dist=_dist_cached(config.weight_spec))


def constants_for_config(config: ExperimentConfig) -> ctbp.CtbpConstants:
    """Limiting constants from mu = E D and nu = E D(D-1) / E D of the limiting
    degree law D. For rank-1 kinds D is mixed Poisson(W), so mu = E W and
    nu = E W^2 / E W come from two moments of the vertex weights, not the pmf."""
    if config.graph_kind in graphs.RANK1_KINDS:
        m1, m2 = _moments_cached(config.vertex_weight_spec)
        return _constants_cached(config.weight_spec, m1, m2 / m1)
    pmf = degrees.limit_pmf(config.degree_model)
    mu = sum(k * p for k, p in pmf.items())
    nu = sum(k * (k - 1) * p for k, p in pmf.items()) / mu
    return _constants_cached(config.weight_spec, mu, nu)


@lru_cache(maxsize=256)
def _centring_cached(spec: tuple, nu_n: float) -> ctbp.Centring:
    """n-level alpha, nu_bar and gamma, without the rest of ctbp.constants."""
    dist = _dist_cached(spec)
    alpha = ctbp.solve_malthusian(nu_n, dist)
    nu_bar = ctbp.stable_age_mean(nu_n, alpha, dist)
    return ctbp.Centring(alpha, nu_bar, 1.0 / (alpha * nu_bar))


# ---------------------------------------------------------------------------
# one trial

def sample_graph(config: ExperimentConfig, n: int, rng):
    """(graph, nu_n): one weighted graph of config's kind on n vertices, and
    its size-biased mean offspring from exact integer sums.

    The single sampler of every kind, for trials, gen-graph and the oracle.
    A cm graph comes back as an unrevealed LazyPairing, every other kind
    built whole; graph.materialize() gives the whole graph of either, and
    for cm draws what pair_configuration then assign_weights would.
    """
    dist = _dist_cached(config.weight_spec)
    kind = config.graph_kind
    if kind in graphs.RANK1_KINDS:
        w = weights.sample(_dist_cached(config.vertex_weight_spec), rng, n)
        g = graphs.assign_weights(graphs.sample_rank1(w, kind, rng), dist, rng)
        d = g.degrees()   # a tiny rank-1 graph may have no edge: nu_n = 0
        return g, int((d * (d - 1)).sum()) / max(int(d.sum()), 1)
    seq = degrees.build(config.degree_model, n, rng)
    if kind == "simple":
        g, _ = graphs.sample_uniform_simple(seq, rng)
        return graphs.assign_weights(g, dist, rng), seq.nu_n
    return graphs.LazyPairing(seq, dist, rng), seq.nu_n


@dataclass(frozen=True)
class _TrialTask:
    config: ExperimentConfig
    n: int
    consts_limit: ctbp.CtbpConstants
    collect_marks: bool


def _run_single_trial(task: _TrialTask, index: int) -> TrialOutcome:
    """Trial `index` of the task: explore to the probe, then to the ranked stop
    for task.config.ranked_m paths, and past the mark window t_bar + 0.5 only
    where the task collects marks. Both stops are exact and a disconnected
    endpoint pair explores until a cluster closes at any m, so the best path,
    the probe's W1 and W2, the resample count and every draw of the trial's
    generator are the same at any ranked_m, with or without marks.
    """
    seed = trial_seed(task.config.master_seed, index)
    rng = rng_for(seed)
    n = task.n
    m = task.config.ranked_m
    g, nu_n = sample_graph(task.config, n, rng)
    consts_n = _centring_cached(task.config.weight_spec, nu_n)
    alpha_n = consts_n.alpha
    log_n = math.log(n)
    s_probe = math.log(log_n) / alpha_n
    t_n = log_n / (2.0 * alpha_n)

    resamples = 0
    res = None
    w1 = w2 = 0.0
    for _ in range(_MAX_RESAMPLES):
        u1 = int(rng.integers(n))
        u2 = int(rng.integers(n - 1))
        if u2 >= u1:
            u2 += 1
        try:
            state = explore.init(g, u1, u2)
        except explore.IsolatedEndpointError:
            resamples += 1
            continue
        explore.advance(state, s_probe)
        _, w1, w2 = explore.measure_martingale(state, alpha_n)
        horizon = 0.0
        if task.collect_marks and w1 > 0.0 and w2 > 0.0:
            tbar = t_n - math.log(w1 * w2) / (2.0 * alpha_n)
            horizon = tbar + _MARK_WINDOW[1]
        explore.advance_ranked(state, m, min_horizon=horizon)
        res = explore.result(state, m)
        if res.connected:
            break
        resamples += 1
    else:
        raise PersistentDisconnection(
            f"trial {index}: {_MAX_RESAMPLES} endpoint pairs were all "
            "disconnected; the configuration looks subcritical or shattered"
        )

    z_hat = (res.hops - consts_n.gamma * log_n) / math.sqrt(
        task.consts_limit.beta * log_n)
    q_hat = res.weight - log_n / alpha_n
    if task.collect_marks and w1 > 0.0 and w2 > 0.0:
        marks = explore.standardize_marks(res.records, consts_n, n, w1, w2,
                                          limit_consts=task.consts_limit)
    else:
        marks = np.empty((0, 5))
    ranked = tuple((r.path_weight, r.path_hops) for r in res.ranked)
    return TrialOutcome(trial=index, seed=seed, n=n, H_n=int(res.hops),
                        L_n=float(res.weight), Z_hat=float(z_hat),
                        Q_hat=float(q_hat), W1=float(w1), W2=float(w2),
                        connected=True, resamples=resamples, marks=marks,
                        ranked=ranked)


def _trial_chunk(args) -> list[TrialOutcome]:
    task, lo, hi = args
    outcomes = []
    for i in range(lo, hi):
        try:
            outcomes.append(_run_single_trial(task, i))
        except Exception as exc:
            master = task.config.master_seed
            raise TrialError(
                f"trial {i} of rung n={task.n} (trial seed {trial_seed(master, i)}, "
                f"master seed {master}) raised {type(exc).__name__}: {exc}. Replay "
                f"it serially with run_trials(replace(config, trials={i + 1}), "
                f"n={task.n}, threads=1)") from exc
    return outcomes


_CHUNK = 64   # fixed chunk size: scheduling granularity, never affects results


def _map_chunks(args, threads: int, meanwhile=None):
    """Yield (outcomes, done) for every trial chunk args[i] = (task, lo, hi), in
    order, where done is the time.monotonic() at which the chunk completed.

    Serial when threads <= 1 or there is one chunk: each chunk runs when it
    is asked for, and meanwhile(), if given, once the last has been taken.
    Otherwise one process pool of `threads` workers gets every chunk at once
    (under fork every worker starts at the first submit, so none inherits
    what the parent builds next). The largest rung's chunks are submitted
    first, each rung's in order: they take longest, and run last they would
    leave a worker idle at the end. meanwhile() runs in the parent while the
    workers run, and outcomes are yielded in input order as they arrive; a
    done callback stamps each chunk as its result reaches the parent, so the
    stamps do not wait for meanwhile(). However the generator ends, chunks
    not yet started are cancelled and the running ones awaited, so an error
    surfaces at once and no worker outlives it. A dead worker becomes a
    MonteCarloError naming the first chunk lost in input order: its rung n,
    index and trial range, the master seed, and the serial call that
    replays it.
    """
    if threads <= 1 or len(args) <= 1:
        for a in args:
            yield _trial_chunk(a), time.monotonic()
        if meanwhile is not None:
            meanwhile()
        return
    ex = ProcessPoolExecutor(max_workers=threads)
    try:
        futures = [None] * len(args)
        for i in sorted(range(len(args)), key=lambda i: -args[i][0].n):
            futures[i] = ex.submit(_trial_chunk, args[i])
        done: dict[int, float] = {}
        for i, fut in enumerate(futures):
            fut.add_done_callback(lambda _, i=i: done.setdefault(i, time.monotonic()))
        if meanwhile is not None:
            meanwhile()
        for i, ((task, lo, hi), fut) in enumerate(zip(args, futures)):
            try:
                part = fut.result()
            except BrokenProcessPool as exc:
                raise MonteCarloError(
                    f"a worker process died; the first chunk lost is chunk "
                    f"{lo // _CHUNK} (trials {lo}..{hi - 1}) of rung n={task.n}, "
                    f"master seed {task.config.master_seed}. Replay it serially "
                    f"with run_trials(replace(config, trials={hi}), n={task.n}, "
                    f"threads=1)") from exc
            # result() can return before the callback has run: then it is now
            yield part, done.setdefault(i, time.monotonic())
    finally:
        ex.shutdown(wait=True, cancel_futures=True)


def _run_rungs(tasks, M: int, threads: int, csv_paths, meanwhile=None):
    """Trials 0..M-1 of every task, one task per rung, through one _map_chunks
    call; returns (outcome lists, the time.monotonic() at which each rung's
    last chunk completed).

    Each rung's CSV, where its path is not None, is written in trial order as
    its chunks arrive; if an error comes while it is written, it is deleted,
    so no partial CSV reads like a complete rung.
    """
    spans = [(lo, min(lo + _CHUNK, M)) for lo in range(0, M, _CHUNK)]
    parts = _map_chunks([(task, lo, hi) for task in tasks for lo, hi in spans],
                        threads, meanwhile)
    outcomes, finished = [], []
    with contextlib.closing(parts):
        for path in csv_paths:
            rung: list[TrialOutcome] = []
            last = -math.inf
            try:
                with (open(path, "w", encoding="utf-8", newline="\n") if path
                      else contextlib.nullcontext()) as fh:
                    if fh:
                        fh.write(CSV_HEADER + "\n")
                    for batch, done in itertools.islice(parts, len(spans)):
                        rung.extend(batch)
                        last = max(last, done)
                        if fh:
                            fh.writelines(_csv_row(o) + "\n" for o in batch)
            except BaseException:
                if path:
                    pathlib.Path(path).unlink(missing_ok=True)
                raise
            outcomes.append(rung)
            finished.append(last)
        next(parts, None)   # past the last chunk: a serial meanwhile() runs here
    return outcomes, finished


def run_trials(config: ExperimentConfig, *, n: int | None = None,
               threads: int | None = None, csv_path=None) -> list[TrialOutcome]:
    """Run config.trials seeded trials at one ladder rung; optionally stream a CSV.

    Results are a pure function of (config, n), config.master_seed included;
    threads only changes wall time: more than one runs the chunks in a process
    pool of that many workers (see _map_chunks). The CSV is written in trial
    order as chunks finish. Each outcome's ranked holds up to config.ranked_m
    paths, and marks the (k, 5) collision marks of the mark window, which the
    exploration also covers. A trial that raises becomes a TrialError naming
    it, and the CSV is then deleted.
    """
    if n is None:
        if len(config.n_ladder) != 1:
            raise MonteCarloError("config has a ladder; pass the rung n explicitly")
        n = config.n_ladder[0]
    threads = config.threads if threads is None else int(threads)

    task = _TrialTask(config, int(n), constants_for_config(config), True)
    (outcomes,), _ = _run_rungs([task], config.trials, threads, [csv_path])
    return outcomes


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov statistics; p-values from the Kolmogorov law. scipy.special
# is imported where it is used, so trials and pool workers never load scipy


def ks_one_sample(sample, cdf) -> tuple[float, float]:
    """Exact D against a continuous reference cdf, with the asymptotic p.

    D = max over order statistics of max(i/n - F(x_i), F(x_i) - (i-1)/n);
    p = kolmogorov(sqrt(n) * D).
    """
    from scipy.special import kolmogorov
    x = np.sort(np.asarray(sample, dtype=float))
    nn = x.size
    if nn == 0:
        raise MonteCarloError("empty sample")
    f = np.asarray(cdf(x), dtype=float)
    i = np.arange(1, nn + 1)
    d_plus = float(np.max(i / nn - f))
    d_minus = float(np.max(f - (i - 1) / nn))
    d = max(d_plus, d_minus)
    return d, float(kolmogorov(math.sqrt(nn) * d))


def ks_two_sample(a, b) -> tuple[float, float]:
    """Exact two-sample D; p via sqrt(ab/(a+b)) * D in the Kolmogorov tail."""
    from scipy.special import kolmogorov
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise MonteCarloError("empty sample")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    n_eff = a.size * b.size / (a.size + b.size)
    return d, float(kolmogorov(math.sqrt(n_eff) * d))


# ---------------------------------------------------------------------------
# references


def build_ranked_reference(consts: ctbp.CtbpConstants, bp: ctbp.BpConfig, m: int,
                           size: int, master_seed: int) -> np.ndarray:
    """(size, m) reference draws of the m best recentred path weights.

    One population-dynamics pool gives the 2*size growth limits; within a
    row the two limits are shared across ranks, exactly as they are within
    one exploration trial.
    """
    rng = rng_for(derived_seed(master_seed, 2))
    w = ctbp.sample_w_pool(consts, bp, 2 * size, rng)
    t = ctbp.sample_ranked_gumbel(m, rng, size)
    return ctbp.q_formula(consts, w[:size, None], w[size:, None], -t)


def build_q_reference(consts: ctbp.CtbpConstants, bp: ctbp.BpConfig, size: int,
                      master_seed: int) -> np.ndarray:
    """size draws of the limit variable Q: the best path of the ranked
    reference, since -t_1 of sample_ranked_gumbel is standard Gumbel."""
    return build_ranked_reference(consts, bp, 1, size, master_seed)[:, 0]


def residual_cdf_table(residual: ctbp.ResidualLife, x_max: float, n_grid: int = 513):
    """Dense-grid interpolant of the residual-life cdf (callable, and inverse).

    The whole grid is one residual.cdf call; interpolation error at this
    grid density is orders of magnitude below every KS threshold. The
    verifiers and calibrate_verifiers read residual.cdf and residual.sample
    directly.
    """
    x = np.linspace(0.0, x_max, n_grid)
    f = residual.cdf(x)
    f = np.maximum.accumulate(np.clip(f, 0.0, 1.0))

    def cdf(q):
        return np.interp(q, x, f, left=0.0, right=1.0)

    def inverse(u):
        return np.interp(u, f, x)

    return cdf, inverse


# ---------------------------------------------------------------------------
# verifiers


@dataclass
class ReportEntry:
    name: str
    passed: bool | None            # None: skipped for lack of data
    statistics: dict
    thresholds: dict
    sample_size: int
    notes: str = ""

    @property
    def skipped(self) -> bool:
        return self.passed is None


def _skipped(name: str, counted: str, count: int, floor_name: str,
             floor: float) -> ReportEntry:
    """The entry of a verifier that had fewer than floor items to test."""
    return ReportEntry(name, None, {counted: float(count)}, {floor_name: float(floor)},
                       count, notes=f"insufficient {counted.replace('_', ' ')}; "
                                    "verifier skipped")


def column(outcomes, name: str) -> np.ndarray:
    """Field `name` of the connected outcomes, as a float array."""
    return np.array([getattr(o, name) for o in outcomes if o.connected], dtype=float)


def pool_marks(outcomes) -> np.ndarray:
    """Every trial's (k, 5) collision marks, stacked in trial order."""
    return np.vstack([np.empty((0, 5))] + [o.marks for o in outcomes])


def ranked_matrix(outcomes, m: int) -> np.ndarray:
    """(trials, m) ranked path weights recentred as Q_hat is, by
    log(n)/alpha_n, so column 0 is Q_hat; a trial with fewer than m records
    reads NaN past its last one."""
    mat = np.full((len(outcomes), m), np.nan)
    for row, o in zip(mat, outcomes):
        w = [r[0] - o.L_n + o.Q_hat for r in o.ranked[:m]]
        row[:len(w)] = w
    return mat


def verify_hopcount_clt(z_by_n, th=None) -> ReportEntry:
    """Standardized hopcounts {n: array} vs the standard normal, along the
    n-ladder.

    Pass requires: KS distance at the largest n below hop_ks (default: the
    p=0.001 KS critical value for the sample size), KS distances strictly
    decreasing along the ladder, and mean/variance point checks at the top.
    Every verifier reads th, a partial mapping of DEFAULT_THRESHOLDS names
    laid over the defaults.
    """
    from scipy.special import kolmogi, ndtr
    th = _merge_thresholds(th)
    ns = sorted(z_by_n)
    top = z_by_n[ns[-1]]
    m_top = top.size
    if m_top < th["min_outcomes"]:
        return _skipped("hopcount_clt", "outcomes", m_top, "min_outcomes",
                        th["min_outcomes"])
    stats: dict[str, float] = {}
    ds = []
    for n in ns:
        d, p = ks_one_sample(z_by_n[n], ndtr)
        ds.append(d)
        stats[f"ks_n{n}"] = d
        stats[f"p_n{n}"] = p
    d_crit = th["hop_ks"] if th["hop_ks"] is not None else \
        float(kolmogi(0.001)) / math.sqrt(m_top)
    mean = float(top.mean())
    var = float(top.var(ddof=1))
    stats["mean_top"] = mean
    stats["var_top"] = var
    monotone = all(b < a for a, b in zip(ds, ds[1:]))
    stats["ladder_monotone"] = float(monotone)
    passed = (ds[-1] < d_crit and monotone
              and abs(mean) < th["hop_mean"] and abs(var - 1.0) < th["hop_var"])
    return ReportEntry("hopcount_clt", bool(passed), stats,
                       {"ks": d_crit, "mean": th["hop_mean"], "var": th["hop_var"]},
                       m_top)


def verify_weight_limit(q, q_reference, th=None) -> ReportEntry:
    """Recentred optimal weights q vs draws of their limit law (two-sample KS)."""
    th = _merge_thresholds(th)
    if q.size < th["min_outcomes"]:
        return _skipped("weight_limit", "outcomes", q.size, "min_outcomes",
                        th["min_outcomes"])
    if q_reference.size < _REFERENCE_SIZE:
        raise MonteCarloError(f"weight reference needs >= {_REFERENCE_SIZE} draws, "
                              f"got {q_reference.size}")
    d, p = ks_two_sample(q, q_reference)
    return ReportEntry("weight_limit", bool(d < th["weight_ks"]),
                       {"ks": d, "p": p, "ref_size": float(q_reference.size)},
                       {"ks": th["weight_ks"]}, q.size)


def _log_rate(times) -> tuple[np.ndarray, np.ndarray]:
    """Centres and log counts of the nonempty window bins of times."""
    counts, edges = np.histogram(times, bins=_PPP_BINS, range=_MARK_WINDOW)
    keep = counts > 0
    return 0.5 * (edges[:-1] + edges[1:])[keep], np.log(counts[keep])


def verify_ppp(marks, n_trials, consts, residual_cdf, th=None) -> ReportEntry:
    """Four tests of the collision point process inside the time window, on
    the (k, 5) marks pooled over n_trials trials.

    (i) log-rate slope of recentred collision times ~ 2*alpha, by least
    squares on nonempty histogram bins; (ii) source labels fair; (iii) both
    standardized height coordinates ~ standard normal (heights are integers,
    so this KS carries an intrinsic lattice floor; the moment-adjusted
    variants are reported as diagnostics); (iv) remaining lifetimes ~ the
    residual-life law.
    """
    from scipy.special import ndtr
    th = _merge_thresholds(th)
    slope_tol = th["ppp_slope_rel"]
    win = marks[(marks[:, 0] >= _MARK_WINDOW[0]) & (marks[:, 0] <= _MARK_WINDOW[1])]
    n = win.shape[0]
    if n < _MIN_MARKS:
        return _skipped("ppp_marks", "marks", n, "min_marks", _MIN_MARKS)
    stats: dict[str, float] = {"marks_in_window": float(n),
                               "marks_per_trial": n / n_trials}
    thresholds = {"slope_rel": slope_tol, "source_sigma": th["ppp_source_sigma"],
                  "height_ks": th["ppp_height_ks"], "residual_ks": th["ppp_residual_ks"]}

    # (i) slope of the log collision rate
    centers, log_counts = _log_rate(win[:, 0])
    slope_target = 2.0 * consts.alpha
    slope = float(np.polyfit(centers, log_counts, 1)[0]) if centers.size >= 3 else math.nan
    ok_slope = math.isfinite(slope) and abs(slope - slope_target) <= slope_tol * slope_target
    stats.update(slope=slope, slope_target=slope_target, ok_slope=float(ok_slope))

    # (ii) source fairness
    n1 = float((win[:, 1] == 1.0).sum())
    dev = abs(n1 / n - 0.5)
    ok_source = dev <= th["ppp_source_sigma"] * 0.5 / math.sqrt(n)
    stats.update(source_frac=n1 / n, source_dev=dev, ok_source=float(ok_source))

    # (iii) heights vs the standard normal
    d_or, p_or = ks_one_sample(win[:, 2], ndtr)
    d_de, p_de = ks_one_sample(win[:, 3], ndtr)
    ok_heights = d_or < th["ppp_height_ks"] and d_de < th["ppp_height_ks"]
    stats.update(height_ks_origin=d_or, height_ks_dest=d_de, height_p_origin=p_or,
                 height_p_dest=p_de, ok_heights=float(ok_heights))
    # diagnostics: same KS after matching first two pooled moments; isolates
    # shape normality from the finite-n centering offset
    for label, col in (("origin", 2), ("dest", 3)):
        h = win[:, col]
        adj = (h - h.mean()) / h.std(ddof=1)
        d_adj, _ = ks_one_sample(adj, ndtr)
        stats[f"height_ks_{label}_moment_adjusted"] = d_adj

    # (iv) remaining lifetimes vs the residual-life law
    d_r, p_r = ks_one_sample(win[:, 4], residual_cdf)
    ok_resid = d_r < th["ppp_residual_ks"]
    stats.update(residual_ks=d_r, residual_p=p_r, ok_residual=float(ok_resid))

    passed = ok_slope and ok_source and ok_heights and ok_resid
    return ReportEntry("ppp_marks", bool(passed), stats, thresholds, n)


def verify_ranked(ranked, rank_references, th=None) -> ReportEntry:
    """Per-rank two-sample KS plus the gap structure across ranks.

    ranked is an (M, m) array of recentred ranked weights, as ranked_matrix
    builds it. Rows holding NaN, trials with fewer than m records, are
    excluded and counted. Gaps between consecutive ranks must be strictly
    positive in every trial and their means must decrease with rank.
    """
    th = _merge_thresholds(th)
    m = ranked.shape[1]
    complete = ~np.isnan(ranked).any(axis=1)
    mat = ranked[complete]
    if mat.shape[0] < th["min_outcomes"]:
        return _skipped("ranked_paths", "complete_trials", mat.shape[0],
                        "min_outcomes", th["min_outcomes"])
    if rank_references.shape[1] != m:
        raise MonteCarloError(f"reference has {rank_references.shape[1]} ranks, need {m}")
    stats: dict[str, float] = {"complete_trials": float(mat.shape[0]),
                               "short_trials": float((~complete).sum())}
    ok_ks = True
    for j in range(m):
        d, p = ks_two_sample(mat[:, j], rank_references[:, j])
        stats[f"ks_rank{j + 1}"] = d
        ok_ks = ok_ks and d < th["ranked_ks"]
    gaps = np.diff(mat, axis=1)
    min_gap = float(gaps.min()) if gaps.size else math.inf
    frac_monotone = float((gaps > 0).all(axis=1).mean()) if gaps.size else 1.0
    stats["min_gap"] = min_gap
    stats["frac_strictly_increasing"] = frac_monotone
    ok_gaps = frac_monotone == 1.0
    ok_decreasing = True
    if gaps.size and gaps.shape[1] >= 2:
        gap_means = gaps.mean(axis=0)
        for j, gm in enumerate(gap_means):
            stats[f"mean_gap_{j + 1}_{j + 2}"] = float(gm)
        ok_decreasing = bool(np.all(np.diff(gap_means) < 0))
    stats["ok_gap_decreasing"] = float(ok_decreasing)
    passed = ok_ks and ok_gaps and ok_decreasing
    return ReportEntry("ranked_paths", bool(passed), stats,
                       {"ks": th["ranked_ks"]}, mat.shape[0])


# ---------------------------------------------------------------------------
# report


@dataclass
class VerificationReport:
    master_seed: int
    config: dict
    entries: list
    # wall-clock stage times of the run; kept out of to_json and to_text,
    # whose bytes are a pure function of the config and master seed
    seconds: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries if e.passed is not None)

    def to_json(self) -> str:
        payload = {
            "master_seed": self.master_seed,
            "config": self.config,
            "passed": self.passed,
            "entries": [asdict(e) for e in self.entries],
        }
        return json.dumps(payload, sort_keys=True, indent=2,
                          default=_json_default) + "\n"

    def to_text(self) -> str:
        lines = [f"verification report (master seed {self.master_seed})"]
        for e in self.entries:
            tag = "SKIP" if e.skipped else ("PASS" if e.passed else "FAIL")
            stats = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(e.statistics.items()))
            lines.append(f"[{tag}] {e.name} (n={e.sample_size}) {stats}")
            if e.notes:
                lines.append(f"       {e.notes}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON-serializable: {type(o)}")


def run_experiment(config: ExperimentConfig, *, out_dir=None,
                   plot_dir=None) -> tuple[VerificationReport, dict]:
    """Ladder of trial runs plus all four verifiers; optionally writes files.

    Returns (report, outcomes_by_n). The verifiers read the ranked paths and
    the marks of the top rung only, so a rung below it runs at ranked_m = 1
    without marks: its trials stop at the best path, with the same outcome
    fields, CSV rows and random streams as a full run_trials call, but its
    outcomes hold at most the best path in ranked and no marks.

    Every chunk of every rung goes to one _map_chunks call, so with
    config.threads > 1 one process pool of that many workers runs the whole
    ladder while the parent builds the ranked reference and the residual law
    and loads the verifiers' scipy.special; with one thread the rungs run
    first and the references after, in this process. References are only
    drawn when the top rung has enough outcomes for the verifiers to run at
    all; they depend on the constants and the master seed alone, so the
    outputs are the same at any thread count.
    report.seconds holds wall-clock seconds: "references" (their build
    time) and "rung {n}" (when each rung's last chunk completed, counted
    from the start).
    out_dir, if given, receives outcomes_n{n}.csv per rung, ranked_n{top}.csv
    (a trial,rank,weight,hops row per ranked path of the top rung, in trial
    and rank order, repr weights), report.json and report.txt.
    plot_dir, if given, receives the two-column figure files.
    """
    start = time.monotonic()
    out = pathlib.Path(out_dir) if out_dir is not None else None
    consts = constants_for_config(config)
    th = config.thresholds
    # every trial gives one outcome, so the top rung will have config.trials;
    # the references' offspring laws and pool step count are worked out before
    # any rung, so that a degree law they cannot sum, or one too near critical
    # for the pool, fails at once
    bp = bp_config_for(config) if config.trials >= th["min_outcomes"] else None
    if bp is not None:
        ctbp.pool_steps(consts, bp)
    seconds = {}
    refs = {}

    def build_references():
        if bp is not None:
            t0 = time.monotonic()
            refs["ranked"] = build_ranked_reference(consts, bp, config.ranked_m,
                                                    _REFERENCE_SIZE, config.master_seed)
            refs["residual"] = ctbp.residual_density(_dist_cached(config.weight_spec),
                                                     consts.alpha)
            seconds["references"] = time.monotonic() - t0
        import scipy.special  # noqa: F401  (the verifiers' p-values)

    top = max(config.n_ladder)
    lower = replace(config, ranked_m=1)
    tasks = [_TrialTask(config, n, consts, True) if n == top
             else _TrialTask(lower, n, consts, False)
             for n in config.n_ladder]
    csv_paths = [out / f"outcomes_n{n}.csv" if out is not None else None
                 for n in config.n_ladder]
    # out is made only here, where nothing before the first rung can fail,
    # and a run that fails leaves no empty directory of its own making
    made = out is not None and not out.exists()
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    try:
        by_rung, finished = _run_rungs(tasks, config.trials, config.threads,
                                       csv_paths, build_references)
    except BaseException:
        if made and not any(out.iterdir()):
            out.rmdir()
        raise
    outcomes_by_n = dict(zip(config.n_ladder, by_rung))
    seconds.update((f"rung {n}", t - start) for n, t in zip(config.n_ladder, finished))

    top_outcomes = outcomes_by_n[top]
    z_by_n = {n: column(o, "Z_hat") for n, o in outcomes_by_n.items()}
    entries = [verify_hopcount_clt(z_by_n, th)]
    q_ref = None
    if bp is not None:
        ranked_refs = refs["ranked"]
        q_ref = ranked_refs[:, 0]
        ranked = ranked_matrix(top_outcomes, config.ranked_m)
        entries += [verify_weight_limit(column(top_outcomes, "Q_hat"), q_ref, th),
                    verify_ppp(pool_marks(top_outcomes), len(top_outcomes), consts,
                               refs["residual"].cdf, th),
                    verify_ranked(ranked, ranked_refs, th)]
    else:
        entries += [ReportEntry(name, None, {}, {}, 0,
                                notes="insufficient outcomes; verifier skipped")
                    for name in ("weight_limit", "ppp_marks", "ranked_paths")]

    report = VerificationReport(master_seed=config.master_seed,
                                config=config.echo(), entries=entries,
                                seconds=seconds)
    if out is not None:
        with open(out / f"ranked_n{top}.csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write("trial,rank,weight,hops\n")
            fh.writelines(f"{o.trial},{j},{w!r},{h}\n" for o in top_outcomes
                          for j, (w, h) in enumerate(o.ranked, 1))
        (out / "report.json").write_text(report.to_json(), encoding="utf-8")
        (out / "report.txt").write_text(report.to_text(), encoding="utf-8")
    if plot_dir is not None:
        write_plot_data(plot_dir, outcomes_by_n, q_ref)
    return report, outcomes_by_n


def write_plot_data(out_dir, outcomes_by_n, q_ref=None) -> list:
    """Two-column text files for the standard figures; returns paths written."""
    from scipy.special import ndtr

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    top_outcomes = outcomes_by_n[max(outcomes_by_n)]
    z = np.sort(column(top_outcomes, "Z_hat"))
    path = out / "hopcount_cdf.txt"
    _write_columns(path, z, ndtr(z))
    written.append(path)
    if q_ref is not None:
        q = np.sort(column(top_outcomes, "Q_hat"))
        ref = np.sort(np.asarray(q_ref, dtype=float))
        ref_cdf = np.searchsorted(ref, q, side="right") / ref.size
        path = out / "weight_cdf.txt"
        _write_columns(path, q, ref_cdf)
        written.append(path)
    marks = pool_marks(top_outcomes)
    if marks.size:
        path = out / "ppp_rate.txt"
        _write_columns(path, *_log_rate(marks[:, 0]))
        written.append(path)
    return written


def _write_columns(path, a, b) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for x, y in zip(a, b):
            fh.write(f"{float(x)!r} {float(y)!r}\n")


# ---------------------------------------------------------------------------
# meta-calibration


@dataclass
class CalibrationResult:
    n_meta: int
    null_rates: dict
    power_rates: dict

    @property
    def passed(self) -> bool:
        return (all(r >= 0.99 for r in self.null_rates.values())
                and all(r >= 0.99 for r in self.power_rates.values()))


def exact_marks(rng, consts: ctbp.CtbpConstants, residual: ctbp.ResidualLife,
                n_trials: int, slope: float) -> np.ndarray:
    """(k, 5) collision marks of n_trials trials drawn from the limit laws.

    Times in the mark window form a Poisson process with log-rate slope
    `slope` (the true one is 2*alpha); sources are fair coins, heights
    standard normal and remaining lifetimes exact draws of `residual`.
    """
    lam = n_trials * (2.0 * consts.nu * consts.f_R0 / consts.mu)
    lo_e, hi_e = math.exp(slope * _MARK_WINDOW[0]), math.exp(slope * _MARK_WINDOW[1])
    count = int(rng.poisson(lam * (hi_e - lo_e) / slope))
    tbar = np.log(lo_e + rng.random(count) * (hi_e - lo_e)) / slope
    return np.column_stack([
        tbar,
        rng.integers(1, 3, count).astype(float),
        rng.standard_normal(count),
        rng.standard_normal(count),
        residual.sample(rng, count),
    ])


def calibrate_verifiers(consts: ctbp.CtbpConstants, residual: ctbp.ResidualLife, *,
                        n_meta: int = 100, M: int = 2000) -> CalibrationResult:
    """Null/power rates of every verifier on exact-law synthetic data.

    Null data follow the limit laws exactly (hopcount: standard normal;
    weight and ranked: the reduced exact law with both growth limits forced
    to one; marks: exact_marks). Perturbations: hopcount mean shifted by 0.5;
    weight and ranked shifted by log(2)/alpha (the wrong-constant failure);
    mark times generated with half the true log-rate slope. Hopcount nulls
    are single rung: exact-law data has no ladder to decrease along. Meta-seed
    i draws from derived_seed(_CALIBRATION_SEED, 3, i), every verifier runs
    at DEFAULT_THRESHOLDS, and the references have _REFERENCE_SIZE draws.
    """
    th = {**DEFAULT_THRESHOLDS, "min_outcomes": min(500, M)}
    a = consts.alpha
    wrong_c = math.log(2.0) / a
    null_ok, power_ok = Counter(), Counter()
    for i in range(n_meta):
        rng = rng_for(derived_seed(_CALIBRATION_SEED, 3, i))
        z = rng.standard_normal(M)
        ref, q = [(consts.c - ctbp.standard_gumbel(rng, k)) / a
                  for k in (_REFERENCE_SIZE, M)]
        marks = [exact_marks(rng, consts, residual, M, slope) for slope in (2.0 * a, a)]
        refs, ranked = [(ctbp.sample_ranked_gumbel(3, rng, k) + consts.c) / a
                        for k in (_REFERENCE_SIZE, M)]
        for name, null, perturbed in (
                ("hopcount_clt", *(verify_hopcount_clt({0: z + s}, th) for s in (0.0, 0.5))),
                ("weight_limit", *(verify_weight_limit(q + s, ref, th) for s in (0.0, wrong_c))),
                ("ppp_marks", *(verify_ppp(x, M, consts, residual.cdf, th) for x in marks)),
                ("ranked_paths", *(verify_ranked(ranked + s, refs, th) for s in (0.0, wrong_c)))):
            null_ok[name] += bool(null.passed)
            power_ok[name] += not perturbed.passed
    return CalibrationResult(
        n_meta=n_meta,
        null_rates={k: v / n_meta for k, v in null_ok.items()},
        power_rates={k: v / n_meta for k, v in power_ok.items()},
    )
