"""Monte Carlo harness: seeded trials, KS tests, limit-law verifiers, reports.

Determinism is load-bearing here. Trial i of a run draws its own counter-based
generator keyed by a splittable hash of (master seed, i), so outcomes are a
pure function of (config, master seed) regardless of thread count, chunking,
or rerun; the CSV writer emits rows in trial order with repr() floats, making
output files byte-identical across reruns and worker pools.
"""
from __future__ import annotations

import contextlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, asdict
from functools import lru_cache

import numpy as np
from scipy.special import kolmogi, kolmogorov, ndtr

from . import ctbp, degrees, explore, graphs, weights

__all__ = [
    "MonteCarloError",
    "PersistentDisconnection",
    "ExperimentConfig",
    "TrialOutcome",
    "ReportEntry",
    "VerificationReport",
    "CalibrationResult",
    "splitmix64",
    "derived_seed",
    "trial_seed",
    "pmf_of_model",
    "size_biased_from_pmf",
    "bp_config_for",
    "constants_for_config",
    "build_degree_sequence",
    "run_trials",
    "write_outcomes_csv",
    "CSV_HEADER",
    "ks_one_sample",
    "ks_two_sample",
    "build_q_reference",
    "build_ranked_reference",
    "residual_cdf_table",
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

    Distinct paths give independent-for-all-practical-purposes keys; the
    harness reserves path head 0 for trials, 2 for the (ranked) limit
    references and 3 for calibration; head 1, once the separate weight
    reference, is retired and must not be reused.
    """
    x = master & _MASK64
    for p in path:
        x = splitmix64((x + int(p) + 1) & _MASK64)
    return x


def trial_seed(master: int, index: int) -> int:
    return derived_seed(master, 0, index)


def _rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


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


@dataclass
class ExperimentConfig:
    """Everything a run needs; flags and files both build one of these."""

    graph_kind: str = "cm"
    degree_model: tuple = ("regular", 4)
    weight_spec: tuple = ("exponential", (1.0,))
    vertex_weight_spec: tuple | None = None     # rank-1 kinds draw w_i from this
    n_ladder: tuple = (1000,)
    trials: int = 100
    ranked_m: int = 1
    master_seed: int = 1
    threads: int = 1
    mark_window: tuple = (-1.5, 0.5)
    ppp_bins: int = 8
    q_reference_size: int = 10_000
    thresholds: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.graph_kind not in _GRAPH_KINDS:
            raise MonteCarloError(f"unknown graph kind {self.graph_kind!r}")
        if self.graph_kind in ("nr", "grg", "cl") and self.vertex_weight_spec is None:
            raise MonteCarloError(f"{self.graph_kind} graphs need vertex_weight_spec")
        self.n_ladder = tuple(int(n) for n in self.n_ladder)
        if not self.n_ladder or any(n < 2 for n in self.n_ladder):
            raise MonteCarloError("n_ladder must list sizes >= 2")
        for key in self.thresholds:
            if key not in DEFAULT_THRESHOLDS:
                raise MonteCarloError(
                    f"unknown threshold {key!r}; valid names: "
                    + ", ".join(sorted(DEFAULT_THRESHOLDS)))

    def threshold(self, name: str):
        if name in self.thresholds:
            return self.thresholds[name]
        return DEFAULT_THRESHOLDS[name]

    def echo(self) -> dict:
        """JSON-safe snapshot recorded in reports."""
        d = asdict(self)
        merged = dict(DEFAULT_THRESHOLDS)
        merged.update(d.pop("thresholds"))
        d["thresholds"] = merged
        return d


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


def build_degree_sequence(model: tuple, n: int, rng) -> degrees.DegreeSequence:
    kind, param = model
    if kind == "regular":
        return degrees.regular(int(param), n)
    if kind == "deterministic":
        return degrees.build_deterministic(param, n)
    if kind == "iid":
        return degrees.build_iid(param, n, rng)
    raise MonteCarloError(f"unknown degree model {kind!r}")


def pmf_of_model(model: tuple) -> dict[int, float]:
    """Limiting degree pmf of a degree model."""
    kind, param = model
    if kind == "regular":
        return {int(param): 1.0}
    if kind == "iid":
        return {int(k): float(v) for k, v in dict(param).items()}
    if kind == "deterministic":
        items = sorted((int(k), float(v)) for k, v in dict(param).items())
        out = {}
        prev = 0.0
        for k, v in items:
            if v > prev:
                out[k] = v - prev
            prev = v
        return out
    raise MonteCarloError(f"unknown degree model {kind!r}")


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


def bp_config_for(config: ExperimentConfig) -> ctbp.BpConfig:
    """Two-stage offspring laws matching the limiting degree pmf."""
    pmf = pmf_of_model(config.degree_model)
    root = ctbp.OffspringLaw.from_pmf(pmf)
    later = ctbp.OffspringLaw.from_pmf(size_biased_from_pmf(pmf))
    return ctbp.BpConfig(root_law=root, later_law=later,
                         dist=_dist_cached(_hashable_spec(config.weight_spec)))


def constants_for_config(config: ExperimentConfig) -> ctbp.CtbpConstants:
    """Limiting constants from the limiting degree pmf."""
    pmf = pmf_of_model(config.degree_model)
    mu = sum(k * p for k, p in pmf.items())
    nu = sum(k * (k - 1) * p for k, p in pmf.items()) / mu
    return _constants_cached(_hashable_spec(config.weight_spec), mu, nu)


def _degree_model_key(model: tuple) -> tuple:
    kind, param = model
    if kind == "regular":
        return (kind, int(param))
    return (kind, tuple(sorted((int(k), float(v)) for k, v in dict(param).items())))


@lru_cache(maxsize=4)
def _fixed_degrees(model_key: tuple, n: int) -> tuple:
    """(sequence, diagnostics, half-edge layout) of a degree model that draws
    nothing (regular, deterministic): built once per process and rung, so
    neither the trials nor the pool chunks carry n-sized arrays."""
    seq = build_degree_sequence(model_key, n, rng=None)
    seq.degrees.flags.writeable = False
    return seq, degrees.diagnostics(seq), graphs.HalfEdgeLayout.of(seq)


def _constants_for_realized(spec: tuple, degs: np.ndarray) -> ctbp.CtbpConstants:
    d = degs.astype(float)
    total = d.sum()
    mu_n = float(total / d.size)
    nu_n = float((d * (d - 1.0)).sum() / total)
    return _constants_cached(spec, mu_n, nu_n)


# ---------------------------------------------------------------------------
# one trial

@dataclass(frozen=True)
class _TrialTask:
    master_seed: int
    n: int
    graph_kind: str
    degree_model: tuple
    weight_spec: tuple
    vertex_weight_spec: tuple | None
    ranked_m: int
    window_hi: float
    consts_n: ctbp.CtbpConstants | None    # None: derive from the realized degrees
    consts_limit: ctbp.CtbpConstants
    collect_marks: bool
    max_resamples: int = 100


def _build_graph(task: _TrialTask, dist, rng):
    """The trial's graph: lazily paired for cm, built whole otherwise."""
    if task.graph_kind in ("nr", "grg", "cl"):
        vw_dist = _dist_cached(task.vertex_weight_spec)
        w = weights.sample(vw_dist, rng, task.n)
        return graphs.assign_weights(graphs.sample_rank1(w, task.graph_kind, rng),
                                     dist, rng)
    if task.degree_model[0] == "iid":
        seq = build_degree_sequence(task.degree_model, task.n, rng)
        layout = None
    else:
        seq, _, layout = _fixed_degrees(_degree_model_key(task.degree_model), task.n)
    if task.graph_kind == "simple":
        g, _ = graphs.sample_uniform_simple(seq, rng)
        return graphs.assign_weights(g, dist, rng)
    if layout is None:
        layout = graphs.HalfEdgeLayout.of(seq)
    return graphs.LazyPairing(layout, dist, rng)


def _run_single_trial(task: _TrialTask, index: int) -> TrialOutcome:
    seed = trial_seed(task.master_seed, index)
    rng = _rng_for(seed)
    n = task.n
    g = _build_graph(task, _dist_cached(task.weight_spec), rng)

    consts_n = task.consts_n
    if consts_n is None:
        consts_n = _constants_for_realized(task.weight_spec, g.degrees())
    alpha_n = consts_n.alpha
    log_n = math.log(n)
    s_probe = math.log(log_n) / alpha_n
    t_n = log_n / (2.0 * alpha_n)

    resamples = 0
    res = None
    w1 = w2 = 0.0
    for _ in range(task.max_resamples):
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
        _, w1, w2 = explore.measure_martingale(state, g, alpha_n)
        horizon = 0.0
        if w1 > 0.0 and w2 > 0.0:
            tbar = t_n - math.log(w1 * w2) / (2.0 * alpha_n)
            horizon = tbar + task.window_hi
        explore.advance_ranked(state, task.ranked_m, min_horizon=horizon)
        res = explore.result(state, task.ranked_m)
        if res.connected:
            break
        resamples += 1
    else:
        raise PersistentDisconnection(
            f"trial {index}: {task.max_resamples} endpoint pairs were all "
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
    return [_run_single_trial(task, i) for i in range(lo, hi)]


_CHUNK = 64   # fixed chunk size: scheduling granularity, never affects results


def _map_chunks(task: _TrialTask, spans, threads: int):
    """Yield the outcomes of every trial range spans[i] = (lo, hi), in order.

    Serial when threads <= 1 or there is one chunk; otherwise a process
    pool, whose map yields in submission order. A dead worker becomes a
    MonteCarloError naming the first chunk lost, its trial range, the
    master seed and the serial call that replays it.
    """
    args = [(task, lo, hi) for lo, hi in spans]
    if threads <= 1 or len(args) <= 1:
        yield from map(_trial_chunk, args)
        return
    done = 0
    try:
        with ProcessPoolExecutor(max_workers=threads) as ex:
            for part in ex.map(_trial_chunk, args):
                yield part
                done += 1
    except BrokenProcessPool as exc:
        lo, hi = spans[done]
        raise MonteCarloError(
            f"a worker process died; the first chunk lost is chunk {done} "
            f"(trials {lo}..{hi - 1}) of master seed {task.master_seed}. Replay "
            f"it serially with run_trials(config, M={hi}, master_seed="
            f"{task.master_seed}, n={task.n}, threads=1)") from exc


def run_trials(config: ExperimentConfig, M: int | None = None,
               master_seed: int | None = None, *, n: int | None = None,
               threads: int | None = None, csv_path=None,
               collect_marks: bool = True) -> list[TrialOutcome]:
    """Run M seeded trials at one ladder rung; optionally stream a CSV.

    Results are a pure function of (config, master_seed, n, M); threads only
    changes wall time. The CSV is written in trial order as chunks finish.
    """
    M = config.trials if M is None else int(M)
    master = config.master_seed if master_seed is None else int(master_seed)
    if n is None:
        if len(config.n_ladder) != 1:
            raise MonteCarloError("config has a ladder; pass the rung n explicitly")
        n = config.n_ladder[0]
    threads = config.threads if threads is None else int(threads)

    weight_spec = _hashable_spec(config.weight_spec)
    vw_spec = (_hashable_spec(config.vertex_weight_spec)
               if config.vertex_weight_spec is not None else None)
    consts_limit = constants_for_config(config)
    consts_n = None
    if config.graph_kind in ("cm", "simple") and config.degree_model[0] != "iid":
        _, diag, _ = _fixed_degrees(_degree_model_key(config.degree_model), n)
        consts_n = _constants_cached(weight_spec, diag.mu_n, diag.nu_n)

    task = _TrialTask(
        master_seed=master, n=int(n), graph_kind=config.graph_kind,
        degree_model=config.degree_model, weight_spec=weight_spec,
        vertex_weight_spec=vw_spec, ranked_m=config.ranked_m,
        window_hi=config.mark_window[1], consts_n=consts_n,
        consts_limit=consts_limit, collect_marks=collect_marks,
    )

    spans = [(lo, min(lo + _CHUNK, M)) for lo in range(0, M, _CHUNK)]
    outcomes: list[TrialOutcome] = []
    with (open(csv_path, "w", encoding="utf-8", newline="\n") if csv_path
          else contextlib.nullcontext()) as fh:
        if fh:
            fh.write(CSV_HEADER + "\n")
        for batch in _map_chunks(task, spans, threads):
            outcomes.extend(batch)
            if fh:
                fh.writelines(_csv_row(o) + "\n" for o in batch)
    return outcomes


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov statistics; p-values from the Kolmogorov law in
# scipy.special (scipy.stats would add half a second to every CLI start)


def ks_one_sample(sample, cdf) -> tuple[float, float]:
    """Exact D against a continuous reference cdf, with the asymptotic p.

    D = max over order statistics of max(i/n - F(x_i), F(x_i) - (i-1)/n);
    p = kolmogorov(sqrt(n) * D).
    """
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
    rng = _rng_for(derived_seed(master_seed, 2))
    w = ctbp.sample_w_pool(consts, bp, 2 * size, rng)
    t = np.array([ctbp.sample_ranked_gumbel(m, rng) for _ in range(size)])
    return ctbp.q_formula(consts, w[:size, None], w[size:, None], -t)


def build_q_reference(consts: ctbp.CtbpConstants, bp: ctbp.BpConfig, size: int,
                      master_seed: int) -> np.ndarray:
    """size draws of the limit variable Q: the best path of the ranked
    reference, since -t_1 of sample_ranked_gumbel is standard Gumbel."""
    return build_ranked_reference(consts, bp, 1, size, master_seed)[:, 0]


def residual_cdf_table(residual: ctbp.ResidualLife, x_max: float, n_grid: int = 513):
    """Dense-grid interpolant of the residual-life cdf (callable, and inverse).

    Each grid value is one quadrature; interpolation error at this grid
    density is orders of magnitude below every threshold that consumes it.
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


def _zhat_array(v) -> np.ndarray:
    if isinstance(v, np.ndarray):
        return v
    return np.array([o.Z_hat for o in v if o.connected], dtype=float)


def _qhat_array(v) -> np.ndarray:
    if isinstance(v, np.ndarray):
        return v
    return np.array([o.Q_hat for o in v if o.connected], dtype=float)


def verify_hopcount_clt(outcomes_by_n, consts, *, threshold=None,
                        mean_tol=0.3, var_tol=0.3, min_outcomes=500) -> ReportEntry:
    """Standardized hopcount vs the standard normal, along the n-ladder.

    Pass requires: KS distance at the largest n below the threshold (default:
    the p=0.001 KS critical value for the sample size), KS distances strictly
    decreasing along the ladder, and mean/variance point checks at the top.
    """
    ns = sorted(outcomes_by_n)
    zs = {n: _zhat_array(outcomes_by_n[n]) for n in ns}
    top = ns[-1]
    m_top = zs[top].size
    if m_top < min_outcomes:
        return ReportEntry("hopcount_clt", None, {"outcomes": float(m_top)},
                           {"min_outcomes": float(min_outcomes)}, m_top,
                           notes="insufficient outcomes; verifier skipped")
    stats: dict[str, float] = {}
    ds = []
    for n in ns:
        d, p = ks_one_sample(zs[n], ndtr)
        ds.append(d)
        stats[f"ks_n{n}"] = d
        stats[f"p_n{n}"] = p
    d_crit = threshold if threshold is not None else \
        float(kolmogi(0.001)) / math.sqrt(m_top)
    mean = float(zs[top].mean())
    var = float(zs[top].var(ddof=1))
    stats["mean_top"] = mean
    stats["var_top"] = var
    monotone = all(b < a for a, b in zip(ds, ds[1:]))
    stats["ladder_monotone"] = float(monotone)
    passed = (ds[-1] < d_crit and monotone
              and abs(mean) < mean_tol and abs(var - 1.0) < var_tol)
    return ReportEntry("hopcount_clt", bool(passed), stats,
                       {"ks": d_crit, "mean": mean_tol, "var": var_tol},
                       m_top)


def verify_weight_limit(outcomes, consts, q_reference, *, threshold=0.08,
                        min_outcomes=500) -> ReportEntry:
    """Recentred optimal weight vs draws of its limit law (two-sample KS)."""
    q = _qhat_array(outcomes)
    ref = np.asarray(q_reference, dtype=float)
    if q.size < min_outcomes:
        return ReportEntry("weight_limit", None, {"outcomes": float(q.size)},
                           {"min_outcomes": float(min_outcomes)}, q.size,
                           notes="insufficient outcomes; verifier skipped")
    if ref.size < 10_000:
        raise MonteCarloError(f"weight reference needs >= 10000 draws, got {ref.size}")
    d, p = ks_two_sample(q, ref)
    return ReportEntry("weight_limit", bool(d < threshold),
                       {"ks": d, "p": p, "ref_size": float(ref.size)},
                       {"ks": threshold}, q.size)


def _pool_marks(outcomes) -> tuple[np.ndarray, int]:
    parts = [o.marks for o in outcomes if o.marks.size]
    trials = len(outcomes)
    if not parts:
        return np.empty((0, 5)), trials
    return np.vstack(parts), trials


def verify_ppp(outcomes, consts, residual_cdf, *, marks=None, n_trials=None,
               window=(-1.5, 0.5), bins=8, slope_tol=0.15, source_sigma=3.0,
               height_threshold=0.08, residual_threshold=0.05,
               min_marks=200) -> ReportEntry:
    """Four tests of the collision point process inside the time window.

    (i) log-rate slope of recentred collision times ~ 2*alpha, by least
    squares on nonempty histogram bins; (ii) source labels fair; (iii) both
    standardized height coordinates ~ standard normal (heights are integers,
    so this KS carries an intrinsic lattice floor; the moment-adjusted
    variants are reported as diagnostics); (iv) remaining lifetimes ~ the
    residual-life law.
    """
    if marks is None:
        marks, n_trials = _pool_marks(outcomes)
    if n_trials is None:
        raise MonteCarloError("n_trials required when passing marks directly")
    sel = (marks[:, 0] >= window[0]) & (marks[:, 0] <= window[1]) \
        if marks.size else np.empty(0, dtype=bool)
    win = marks[sel] if marks.size else marks
    n = win.shape[0]
    if n < min_marks:
        return ReportEntry("ppp_marks", None, {"marks": float(n)},
                           {"min_marks": float(min_marks)}, n,
                           notes="insufficient marks; verifier skipped")

    stats: dict[str, float] = {"marks_in_window": float(n),
                               "marks_per_trial": n / n_trials}
    thresholds = {"slope_rel": slope_tol, "source_sigma": source_sigma,
                  "height_ks": height_threshold, "residual_ks": residual_threshold}

    # (i) slope of the log collision rate
    counts, edges = np.histogram(win[:, 0], bins=bins, range=window)
    centers = 0.5 * (edges[:-1] + edges[1:])
    keep = counts > 0
    slope_target = 2.0 * consts.alpha
    if keep.sum() >= 3:
        coef = np.polyfit(centers[keep], np.log(counts[keep]), 1)
        slope = float(coef[0])
    else:
        slope = math.nan
    ok_slope = math.isfinite(slope) and abs(slope - slope_target) <= slope_tol * slope_target
    stats["slope"] = slope
    stats["slope_target"] = slope_target
    stats["ok_slope"] = float(ok_slope)

    # (ii) source fairness
    n1 = float((win[:, 1] == 1.0).sum())
    dev = abs(n1 / n - 0.5)
    lim = source_sigma * 0.5 / math.sqrt(n)
    ok_source = dev <= lim
    stats["source_frac"] = n1 / n
    stats["source_dev"] = dev
    stats["ok_source"] = float(ok_source)

    # (iii) heights vs the standard normal
    d_or, p_or = ks_one_sample(win[:, 2], ndtr)
    d_de, p_de = ks_one_sample(win[:, 3], ndtr)
    ok_heights = d_or < height_threshold and d_de < height_threshold
    stats["height_ks_origin"] = d_or
    stats["height_ks_dest"] = d_de
    stats["height_p_origin"] = p_or
    stats["height_p_dest"] = p_de
    stats["ok_heights"] = float(ok_heights)
    # diagnostics: same KS after matching first two pooled moments; isolates
    # shape normality from the finite-n centering offset
    for label, col in (("origin", 2), ("dest", 3)):
        h = win[:, col]
        adj = (h - h.mean()) / h.std(ddof=1)
        d_adj, _ = ks_one_sample(adj, ndtr)
        stats[f"height_ks_{label}_moment_adjusted"] = d_adj

    # (iv) remaining lifetimes vs the residual-life law
    d_r, p_r = ks_one_sample(win[:, 4], residual_cdf)
    ok_resid = d_r < residual_threshold
    stats["residual_ks"] = d_r
    stats["residual_p"] = p_r
    stats["ok_residual"] = float(ok_resid)

    passed = ok_slope and ok_source and ok_heights and ok_resid
    return ReportEntry("ppp_marks", bool(passed), stats, thresholds, n)


def verify_ranked(outcomes, consts, m, rank_references, *, threshold=0.1,
                  min_outcomes=500) -> ReportEntry:
    """Per-rank two-sample KS plus the gap structure across ranks.

    outcomes is a list of TrialOutcome, or an (M, m) array of recentred
    ranked weights. Trials contributing fewer than m records are excluded
    (and counted). Gaps between consecutive ranks must be strictly positive
    in every trial and their means must decrease with rank.
    """
    if isinstance(outcomes, np.ndarray):
        mat, n_short = outcomes, 0
    else:
        rows = []
        n_short = 0
        for o in outcomes:
            if len(o.ranked) >= m:
                w = [r[0] for r in o.ranked[:m]]
                rows.append([wi - math.log(o.n) / consts.alpha for wi in w])
            else:
                n_short += 1
        mat = np.array(rows, dtype=float)
    if mat.shape[0] < min_outcomes:
        return ReportEntry("ranked_paths", None,
                           {"complete_trials": float(mat.shape[0])},
                           {"min_outcomes": float(min_outcomes)}, mat.shape[0],
                           notes="insufficient complete trials; verifier skipped")
    refs = np.asarray(rank_references, dtype=float)
    if refs.shape[1] != m:
        raise MonteCarloError(f"reference has {refs.shape[1]} ranks, need {m}")
    stats: dict[str, float] = {"complete_trials": float(mat.shape[0]),
                               "short_trials": float(n_short)}
    ok_ks = True
    for j in range(m):
        d, p = ks_two_sample(mat[:, j], refs[:, j])
        stats[f"ks_rank{j + 1}"] = d
        ok_ks = ok_ks and d < threshold
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
                       {"ks": threshold}, mat.shape[0])


# ---------------------------------------------------------------------------
# report


@dataclass
class VerificationReport:
    master_seed: int
    config: dict
    entries: list

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries if e.passed is not None)

    def to_json(self) -> str:
        payload = {
            "master_seed": self.master_seed,
            "config": self.config,
            "passed": self.passed,
            "entries": [
                {
                    "name": e.name,
                    "passed": e.passed,
                    "statistics": e.statistics,
                    "thresholds": e.thresholds,
                    "sample_size": e.sample_size,
                    "notes": e.notes,
                }
                for e in self.entries
            ],
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
                   threads: int | None = None,
                   plot_dir=None) -> tuple[VerificationReport, dict]:
    """Ladder of trial runs plus all four verifiers; optionally writes files.

    Returns (report, outcomes_by_n). References are only drawn when the
    top rung has enough outcomes for the verifiers to run at all. plot_dir,
    if given, receives the two-column figure files.
    """
    import pathlib

    threads = config.threads if threads is None else threads
    out = pathlib.Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    consts = constants_for_config(config)
    dist = _dist_cached(_hashable_spec(config.weight_spec))
    outcomes_by_n = {}
    for n in config.n_ladder:
        csv_path = out / f"outcomes_n{n}.csv" if out is not None else None
        outcomes_by_n[n] = run_trials(config, n=n, threads=threads,
                                      csv_path=csv_path)

    top = max(config.n_ladder)
    top_outcomes = outcomes_by_n[top]
    min_outcomes = int(config.threshold("min_outcomes"))
    entries = [
        verify_hopcount_clt(outcomes_by_n, consts,
                            threshold=config.threshold("hop_ks"),
                            mean_tol=config.threshold("hop_mean"),
                            var_tol=config.threshold("hop_var"),
                            min_outcomes=min_outcomes),
    ]
    enough = sum(o.connected for o in top_outcomes) >= min_outcomes
    q_ref = ranked_refs = None
    if enough:
        ranked_refs = build_ranked_reference(consts, bp_config_for(config),
                                             max(1, config.ranked_m),
                                             config.q_reference_size,
                                             config.master_seed)
        q_ref = ranked_refs[:, 0]
        entries.append(verify_weight_limit(top_outcomes, consts, q_ref,
                                           threshold=config.threshold("weight_ks"),
                                           min_outcomes=min_outcomes))
        residual = ctbp.residual_density(dist, consts.alpha)
        r_vals = [float(o.marks[:, 4].max()) for o in top_outcomes if o.marks.size]
        x_max = max(r_vals) * 1.05 + 1.0 if r_vals else 10.0 / consts.alpha
        r_cdf, _ = residual_cdf_table(residual, x_max)
        entries.append(verify_ppp(top_outcomes, consts, r_cdf,
                                  window=config.mark_window, bins=config.ppp_bins,
                                  slope_tol=config.threshold("ppp_slope_rel"),
                                  source_sigma=config.threshold("ppp_source_sigma"),
                                  height_threshold=config.threshold("ppp_height_ks"),
                                  residual_threshold=config.threshold("ppp_residual_ks")))
        if config.ranked_m >= 1:
            entries.append(verify_ranked(top_outcomes, consts, config.ranked_m,
                                         ranked_refs,
                                         threshold=config.threshold("ranked_ks"),
                                         min_outcomes=min_outcomes))
    else:
        entries.append(ReportEntry("weight_limit", None, {}, {}, 0,
                                   notes="insufficient outcomes; verifier skipped"))
        entries.append(ReportEntry("ppp_marks", None, {}, {}, 0,
                                   notes="insufficient outcomes; verifier skipped"))
        entries.append(ReportEntry("ranked_paths", None, {}, {}, 0,
                                   notes="insufficient outcomes; verifier skipped"))

    report = VerificationReport(master_seed=config.master_seed,
                                config=config.echo(), entries=entries)
    if out is not None:
        (out / "report.json").write_text(report.to_json(), encoding="utf-8")
        (out / "report.txt").write_text(report.to_text(), encoding="utf-8")
    if plot_dir is not None:
        write_plot_data(plot_dir, outcomes_by_n, consts, q_ref,
                        window=config.mark_window, bins=config.ppp_bins)
    return report, outcomes_by_n


def write_plot_data(out_dir, outcomes_by_n, consts, q_ref=None,
                    window=(-1.5, 0.5), bins=8) -> list:
    """Two-column text files for the standard figures; returns paths written."""
    import pathlib

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    top = max(outcomes_by_n)
    z = np.sort(_zhat_array(outcomes_by_n[top]))
    path = out / "hopcount_cdf.txt"
    _write_columns(path, z, ndtr(z))
    written.append(path)
    if q_ref is not None:
        q = np.sort(_qhat_array(outcomes_by_n[top]))
        ref = np.sort(np.asarray(q_ref, dtype=float))
        ref_cdf = np.searchsorted(ref, q, side="right") / ref.size
        path = out / "weight_cdf.txt"
        _write_columns(path, q, ref_cdf)
        written.append(path)
    marks, _ = _pool_marks(outcomes_by_n[top])
    if marks.size:
        sel = (marks[:, 0] >= window[0]) & (marks[:, 0] <= window[1])
        counts, edges = np.histogram(marks[sel, 0], bins=bins, range=window)
        centers = 0.5 * (edges[:-1] + edges[1:])
        keep = counts > 0
        path = out / "ppp_rate.txt"
        _write_columns(path, centers[keep], np.log(counts[keep]))
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


def calibrate_verifiers(consts: ctbp.CtbpConstants, residual_cdf,
                        residual_inverse, *, n_meta: int = 100,
                        master_seed: int = 7, M: int = 2000,
                        ref_size: int = 10_000,
                        thresholds: dict | None = None) -> CalibrationResult:
    """Null/power rates of every verifier on exact-law synthetic data.

    Null data follow the limit laws exactly (hopcount: standard normal;
    weight and ranked: the reduced exact law with both growth limits forced
    to one; marks: a Poisson process with the correct intensity and exact
    product marks). Perturbations: hopcount mean shifted by 0.5; weight and
    ranked shifted by log(2)/alpha (the wrong-constant failure); mark times
    generated with half the true log-rate slope. Hopcount nulls are single
    rung: exact-law data has no ladder to decrease along.
    """
    th = dict(DEFAULT_THRESHOLDS)
    if thresholds:
        th.update(thresholds)
    a = consts.alpha
    window = (-1.5, 0.5)

    names = ("hopcount_clt", "weight_limit", "ppp_marks", "ranked_paths")
    null_ok = {k: 0 for k in names}
    power_ok = {k: 0 for k in names}

    for i in range(n_meta):
        rng = _rng_for(derived_seed(master_seed, 3, i))

        # hopcount
        z = rng.standard_normal(M)
        e = verify_hopcount_clt({0: z}, consts, threshold=th["hop_ks"],
                                mean_tol=th["hop_mean"], var_tol=th["hop_var"],
                                min_outcomes=min(500, M))
        null_ok["hopcount_clt"] += bool(e.passed)
        e = verify_hopcount_clt({0: z + 0.5}, consts, threshold=th["hop_ks"],
                                mean_tol=th["hop_mean"], var_tol=th["hop_var"],
                                min_outcomes=min(500, M))
        power_ok["hopcount_clt"] += not e.passed

        # weight: reduced exact law (W1 = W2 = 1)
        ref = (consts.c - ctbp.standard_gumbel(rng, ref_size)) / a
        q = (consts.c - ctbp.standard_gumbel(rng, M)) / a
        e = verify_weight_limit(q, consts, ref, threshold=th["weight_ks"],
                                min_outcomes=min(500, M))
        null_ok["weight_limit"] += bool(e.passed)
        e = verify_weight_limit(q + math.log(2.0) / a, consts, ref,
                                threshold=th["weight_ks"], min_outcomes=min(500, M))
        power_ok["weight_limit"] += not e.passed

        # marks
        lam = M * (2.0 * consts.nu * consts.f_R0 / consts.mu)
        for mode in ("null", "power"):
            slope = 2.0 * a if mode == "null" else a
            total = lam * (math.exp(slope * window[1]) - math.exp(slope * window[0])) / slope
            count = int(rng.poisson(total))
            u = rng.random(count)
            lo_e = math.exp(slope * window[0])
            hi_e = math.exp(slope * window[1])
            tbar = np.log(lo_e + u * (hi_e - lo_e)) / slope
            marks = np.column_stack([
                tbar,
                rng.integers(1, 3, count).astype(float),
                rng.standard_normal(count),
                rng.standard_normal(count),
                residual_inverse(rng.random(count)),
            ])
            e = verify_ppp(None, consts, residual_cdf, marks=marks, n_trials=M,
                           window=window, slope_tol=th["ppp_slope_rel"],
                           source_sigma=th["ppp_source_sigma"],
                           height_threshold=th["ppp_height_ks"],
                           residual_threshold=th["ppp_residual_ks"])
            if mode == "null":
                null_ok["ppp_marks"] += bool(e.passed)
            else:
                power_ok["ppp_marks"] += not e.passed

        # ranked (m = 3, reduced law; recentred weights passed as a matrix)
        m = 3
        refs = np.empty((ref_size, m))
        t = np.log(np.cumsum(rng.standard_exponential((ref_size, m)), axis=1))
        refs[:, :] = (t + consts.c) / a
        t2 = np.log(np.cumsum(rng.standard_exponential((M, m)), axis=1))
        trial_vals = (t2 + consts.c) / a
        for mode in ("null", "power"):
            shift = 0.0 if mode == "null" else math.log(2.0) / a
            e = verify_ranked(trial_vals + shift, consts, m, refs,
                              threshold=th["ranked_ks"], min_outcomes=min(500, M))
            if mode == "null":
                null_ok["ranked_paths"] += bool(e.passed)
            else:
                power_ok["ranked_paths"] += not e.passed

    return CalibrationResult(
        n_meta=n_meta,
        null_rates={k: v / n_meta for k, v in null_ok.items()},
        power_rates={k: v / n_meta for k, v in power_ok.items()},
    )
