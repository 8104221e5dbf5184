"""Seeding, KS statistics, trial harness determinism, verifier spot checks."""

import functools
import hashlib
import json
import math
import multiprocessing
import os
import pathlib
import re
import subprocess
import sys
import textwrap
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats
from scipy.special import ndtr

from fpplab import ctbp, degrees, explore, graphs, oracle, weights
from fpplab import montecarlo as mc

from conftest import suite_threads, write_exp_table


def philox(key):
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# seeding


def test_splitmix64_reference_vector():
    # first output of the splitmix64 stream seeded with 0, per the
    # published reference implementation
    assert mc.splitmix64(0) == 0xE220A8397B1DCDAF
    # regression pins so reseeding bugs cannot slip in silently
    assert mc.splitmix64(1) == 0x910A2DEC89025CC1
    assert mc.splitmix64(2 ** 64 - 1) == mc.splitmix64(-1 % 2 ** 64)


def test_derived_seed_paths_distinct():
    seen = set()
    for a in range(10):
        for b in range(100):
            seen.add(mc.derived_seed(99, a, b))
    assert len(seen) == 1000
    assert mc.derived_seed(99, 1, 2) != mc.derived_seed(99, 2, 1)
    # regression pin: the oracle corpus seed path must stay stable
    assert mc.derived_seed(20260817, 4, 0) == 15679131215637396161


def test_trial_seed_matches_derived_path():
    assert mc.trial_seed(7, 3) == mc.derived_seed(7, 0, 3)


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov statistics


def ks_p_at(x, n=10_000):
    """(D, p) that ks_one_sample reports for a sample with sqrt(n) D = x.

    A midpoint grid shifted right by c has D = 1/(2n) + c against U(0, 1).
    """
    d_target = x / math.sqrt(n)
    sample = (np.arange(n) + 0.5) / n + (d_target - 0.5 / n)
    d, p = mc.ks_one_sample(sample, lambda u: np.clip(u, 0.0, 1.0))
    assert d == pytest.approx(d_target, abs=1e-12)
    return d, p


def test_kolmogorov_sf_against_published_table():
    # classical critical values: sf(1.6276) = 0.01, sf(1.3581) = 0.05,
    # sf(1.2238) = 0.10 to four figures, as the verifiers report them
    assert ks_p_at(1.6276)[1] == pytest.approx(0.0100, abs=2e-5)
    assert ks_p_at(1.3581)[1] == pytest.approx(0.0500, abs=2e-5)
    assert ks_p_at(1.2238)[1] == pytest.approx(0.1000, abs=5e-5)
    assert ks_p_at(0.005)[1] == 1.0
    vals = [ks_p_at(x)[1] for x in np.linspace(0.3, 2.5, 23)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_kolmogorov_sf_matches_scipy():
    # one-sample p at sqrt(n) D, two-sample p at sqrt(ab/(a+b)) D
    for x in (0.5, 0.9, 1.2, 1.63, 2.1):
        assert ks_p_at(x)[1] == pytest.approx(scipy.stats.kstwobign.sf(x),
                                              abs=1e-9)
    rng = philox(5)
    a = rng.standard_normal(157)
    b = rng.standard_normal(211) + 0.2
    d, p = mc.ks_two_sample(a, b)
    x = math.sqrt(157 * 211 / (157 + 211)) * d
    assert p == pytest.approx(scipy.stats.kstwobign.sf(x), abs=1e-9)


def test_kolmogorov_quantile_inverts_sf():
    # default hopcount threshold: the p = 0.001 Kolmogorov critical value,
    # 1.94947 to five figures, over sqrt(M); a sample at that D has p = 0.001
    for m in (600, 2500):
        z = philox(2).standard_normal(m)
        entry = mc.verify_hopcount_clt({1000: z})
        d_crit = entry.thresholds["ks"]
        assert d_crit * math.sqrt(m) == pytest.approx(1.94947, abs=1e-4)
        assert ks_p_at(d_crit * math.sqrt(m), n=m)[1] == pytest.approx(
            0.001, rel=1e-6)


def test_ks_one_sample_hand_case():
    # three points against the uniform cdf: D = 7/30 by direct enumeration
    d, p = mc.ks_one_sample(np.array([0.1, 0.5, 0.9]), lambda x: np.asarray(x))
    assert d == pytest.approx(7.0 / 30.0, abs=1e-15)
    assert 0.0 < p <= 1.0


def test_ks_one_sample_matches_scipy():
    rng = philox(3)
    x = rng.standard_normal(400)
    d, _ = mc.ks_one_sample(x, ndtr)
    ref = scipy.stats.kstest(x, "norm")
    assert d == pytest.approx(ref.statistic, abs=1e-12)


def test_ks_two_sample_hand_case():
    d, _ = mc.ks_two_sample(np.array([1.0, 3.0]), np.array([2.0, 4.0]))
    assert d == pytest.approx(0.5, abs=1e-15)


def test_ks_two_sample_matches_scipy():
    rng = philox(4)
    for _ in range(5):
        a = rng.standard_normal(157)
        b = rng.standard_normal(211) + 0.2
        d, _ = mc.ks_two_sample(a, b)
        ref = scipy.stats.ks_2samp(a, b, method="asymp")
        assert d == pytest.approx(ref.statistic, abs=1e-12)


# ---------------------------------------------------------------------------
# model plumbing


def pmf_of_model(model):
    """Reference limit pmf, unchecked: the floats every recorded constant and
    reference was computed from, which limit_pmf must return exactly."""
    kind, param = model
    if kind == "regular":
        return {int(param): 1.0}
    if kind == "iid":
        return {int(k): float(v) for k, v in dict(param).items()}
    out = {}
    prev = 0.0
    for k, v in sorted((int(k), float(v)) for k, v in dict(param).items()):
        if v > prev:
            out[k] = v - prev
        prev = v
    return out


def test_limit_pmf_matches_pmf_of_model():
    # same keys, same order, same floats: no constant or reference moves
    models = [model for kind, model in oracle._GRAPH_MODELS
              if kind not in graphs.RANK1_KINDS]
    models += [("regular", 4), ("iid", {1: 0.5, 3: 0.5}), ("iid", IID_PMF),
               RECORDED_CASES["cm_iid"][0].degree_model,
               ("deterministic", {2: 0.1, 1: 0.1, 4: 0.7, 3: 0.7, 6: 1.0})]
    for model in models:
        got = degrees.limit_pmf(model)
        assert list(got.items()) == list(pmf_of_model(model).items()), model


@pytest.mark.parametrize("kind", ["cm", "simple"])
def test_config_checks_its_degree_model(kind):
    for model in (None, ("poisson", 3), ("regular", 0), ("iid", {1: 0.4, 2: 0.4}),
                  ("deterministic", {1: 0.7, 2: 0.3, 3: 1.0})):
        with pytest.raises(degrees.DegreeModelError):
            mc.ExperimentConfig(graph_kind=kind, degree_model=model)


def test_non_integer_degree_is_refused_not_truncated():
    # truncated through int(), ("regular", 4.5) would build 4-regular graphs
    # with mu = 4 while the report echoes 4.5
    with pytest.raises(degrees.DegreeModelError, match="degree 4.5 is not an integer"):
        mc.ExperimentConfig(degree_model=("regular", 4.5))
    for model in (("regular", 4.5), ("deterministic", {2: 0.5, 3.5: 1.0}),
                  ("iid", {2: 0.5, 3.5: 0.5})):
        with pytest.raises(degrees.DegreeModelError, match="not an integer"):
            degrees.limit_pmf(model)
        with pytest.raises(degrees.DegreeModelError, match="not an integer"):
            degrees.build(model, 10, np.random.default_rng(0))
    assert degrees.build(("regular", 4), 10, None).blocks == ((4, 10),)
    assert degrees.limit_pmf(("regular", 4)) == {4: 1.0}


def test_rank1_config_derives_its_degree_law():
    # a degree model given with a rank-1 kind is cleared before any check,
    # not read: the limit law is the mixed Poisson of the vertex weights,
    # which has mass at degree 0 where no cm builder takes any
    cfg = mc.ExperimentConfig(graph_kind="nr", degree_model=("iid", {0: 0.5, 1: 0.5}),
                              vertex_weight_spec=("exponential", (2.0,)))
    assert cfg.degree_model is None
    assert cfg.echo()["degree_model"] is None
    bp = mc.bp_config_for(cfg)
    np.testing.assert_allclose(bp.root_law.probs[:5],
                               (2.0 / 3.0) * (1.0 / 3.0) ** np.arange(5), rtol=1e-12)


@pytest.mark.parametrize("spec", [("exponential", (1.0 / 3.0,)), ("exponential", (2.0,)),
                                  ("power_exponential", (2.0,))])
def test_rank1_moments_are_the_offspring_laws(spec):
    # constants take mu = E W and nu = E W^2 / E W from two vertex-weight
    # moments; the references draw offspring from the mixed-Poisson pmf, so
    # its sums must give the same mu and nu. The pmf stops at the first k_max
    # whose remaining mass is below 1e-15 and renormalises, so its
    # E D(D - 1) lacks up to about k_max^2 1e-15: 2e-12 of it for exp:2
    # (k_max = 31; 1.1e-12 seen), 6e-11 for power:2 (k_max = 1,201; 6.7e-11)
    cfg = mc.ExperimentConfig(graph_kind="nr", vertex_weight_spec=spec)
    pmf = mc._limit_pmf(cfg)
    mu = sum(k * p for k, p in pmf.items())
    nu = sum(k * (k - 1) * p for k, p in pmf.items()) / mu
    m1, m2 = mc._moments_cached(cfg.vertex_weight_spec)
    assert m1 == pytest.approx(mu, rel=1e-12, abs=0)
    assert m2 / m1 == pytest.approx(nu, rel=1e-12 + 2e-15 * max(pmf) ** 2 / (mu * nu), abs=0)


@pytest.mark.parametrize("name, value", [
    ("trials", 0), ("ranked_m", 0), ("threads", 0),
    # a ladder that is not strictly increasing runs a rung twice or out of order
    ("n_ladder", (300, 300)), ("n_ladder", (1000, 300)),
], ids=["trials", "ranked_m", "threads", "n_ladder_repeated", "n_ladder_decreasing"])
def test_config_counts_must_be_positive(name, value):
    with pytest.raises(mc.MonteCarloError, match=name):
        mc.ExperimentConfig(**{name: value})


@pytest.mark.parametrize("name, value", [("n_ladder", (1000.7,)), ("trials", 2.5),
                                         ("ranked_m", 1.5), ("threads", 2.5),
                                         ("master_seed", 1.5),
                                         ("n", 1000.7), ("n", 2)])   # run_trials' rung
def test_config_counts_must_be_integers(name, value):
    # refused by name, not truncated (n_ladder, n) or left to fail in a trial
    # (n = 2); integral floats are counts
    def count(v):
        if name == "n":
            return mc.run_trials(mc.ExperimentConfig(trials=1), n=v, threads=1)[0].n
        config = mc.ExperimentConfig(**{name: v})
        return config.n_ladder[0] if name == "n_ladder" else getattr(config, name)

    with pytest.raises(mc.MonteCarloError, match=f"^{name} must be an integer"):
        count(value)
    assert type(count({"n_ladder": (1000.0,), "n": 1000.0}.get(name, 2.0))) is int


def test_size_biased_from_pmf():
    sb = mc.size_biased_from_pmf({2: 0.5, 3: 0.5})
    assert sb[1] == pytest.approx(0.4)
    assert sb[2] == pytest.approx(0.6)


def test_constants_for_config_four_regular():
    cfg = mc.ExperimentConfig()
    c = mc.constants_for_config(cfg)
    assert c.gamma == pytest.approx(1.5, abs=1e-9)
    # the cache must hand back the identical object for an equal config
    assert mc.constants_for_config(mc.ExperimentConfig()) is c


CENTRING_LAWS = {
    "exp": ("exponential", (1.0,)), "power2": ("power_exponential", (2.0,)),
    "uniform": ("uniform", (1.0,)), "shifted_exp": ("shifted_exponential", (2.0,)),
}


@pytest.mark.parametrize("law", sorted(CENTRING_LAWS) + ["table33"])
def test_centring_record_equals_full_constants(law, tmp_path):
    # the n-level record solves only alpha and nu_bar; they and gamma must be
    # the floats the full constants give, and a trial's marks read only them
    if law == "table33":
        write_exp_table(tmp_path / "t.txt", n_rows=33)
        spec = mc._hashable_spec(weights.load_table(tmp_path / "t.txt").spec())
    else:
        spec = CENTRING_LAWS[law]
    dist = mc._dist_cached(spec)
    for mu, nu in ((4.0, 3.0), (3.2, 2.1), (5.5, 4.7)):
        rec = mc._centring_cached(spec, nu)
        full = ctbp.constants(mu, nu, dist)
        assert (rec.alpha, rec.nu_bar, rec.gamma) == (full.alpha, full.nu_bar, full.gamma)


def test_mark_rows_columns():
    consts = ctbp.constants(4.0, 3.0, weights.exponential(1.0))
    n = 10 ** 4
    rec = explore.CollisionRecord(time=2.5, source=2, h_origin=7, h_dest=6,
                                  remaining=0.8)
    t_n = math.log(n) / (2.0 * consts.alpha)
    tbar = t_n - math.log(1.5 * 0.5) / (2.0 * consts.alpha)
    center = t_n / consts.nu_bar
    spread = math.sqrt(consts.sigma_bar_sq * t_n / consts.nu_bar ** 3)
    out = mc._mark_rows([rec], tbar, center, spread)
    assert out.shape == (1, 5)
    assert out[0, 0] == pytest.approx(2.5 - tbar)
    assert out[0, 1] == 2.0
    assert out[0, 2] == pytest.approx((7 - center) / spread)
    assert out[0, 3] == pytest.approx((6 - center) / spread)
    assert out[0, 4] == 0.8


def test_experiment_config_threshold_validation():
    cfg = mc.ExperimentConfig(thresholds={"weight_ks": 0.2})
    assert cfg.thresholds["weight_ks"] == 0.2
    assert cfg.thresholds["ranked_ks"] == 0.1
    with pytest.raises(mc.MonteCarloError):
        mc.ExperimentConfig(thresholds={"nonsense": 1.0})


# ---------------------------------------------------------------------------
# trial harness


def small_config():
    return mc.ExperimentConfig(n_ladder=(300,), trials=24, ranked_m=2,
                               master_seed=611)


def test_run_trials_deterministic_across_threads(tmp_path):
    cfg = small_config()
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    out1 = mc.run_trials(cfg, threads=1, csv_path=p1)
    out2 = mc.run_trials(cfg, threads=3, csv_path=p2)
    assert p1.read_bytes() == p2.read_bytes()
    for a, b in zip(out1, out2):
        assert a.H_n == b.H_n and a.L_n == b.L_n and a.seed == b.seed
        assert a.Z_hat == b.Z_hat and a.Q_hat == b.Q_hat


def test_run_experiment_identical_across_threads(tmp_path):
    # one pool runs every rung while the parent builds the references; with
    # min_outcomes lowered the references and all four verifiers run, and
    # every file, the top rung's ranked paths included, must match the serial
    # run's bytes, but for the echo of the thread count in report.json's config
    cfg = mc.ExperimentConfig(n_ladder=(150, 300), trials=130, ranked_m=2,
                              master_seed=611, thresholds={"min_outcomes": 100})
    names = ("outcomes_n150.csv", "outcomes_n300.csv", "report.json", "report.txt",
             "ranked_n300.csv")
    files = {}
    for threads in (1, 3):
        out = tmp_path / f"t{threads}"
        report, _ = mc.run_experiment(replace(cfg, threads=threads), out_dir=out)
        assert all(e.skipped is False for e in report.entries)
        assert set(report.seconds) == {"references", "rung 150", "rung 300"}
        assert sorted(p.name for p in out.iterdir()) == sorted(names)
        files[threads] = [(out / name).read_bytes() for name in names]
    echo = files[1][2].replace(b'"threads": 1,', b'"threads": 3,')
    assert echo != files[1][2]
    assert files[1][:2] + [echo] + files[1][3:] == files[3]
    assert multiprocessing.active_children() == []


def same_outcome(a, b) -> bool:
    """Every field equal, the marks array by value."""
    return (mc._csv_row(a) == mc._csv_row(b) and a.resamples == b.resamples
            and a.ranked == b.ranked and np.array_equal(a.marks, b.marks))


def test_lower_rungs_stop_at_the_best_path(tmp_path):
    # a rung below the top runs at m = 1 without marks, and must write the
    # CSV of a full run_trials call at that n byte for byte; the top rung's
    # outcomes, ranked paths and marks included, are run_trials' own
    cfg = mc.ExperimentConfig(n_ladder=(150, 300, 600), trials=130, ranked_m=3,
                              master_seed=611, thresholds={"min_outcomes": 100})
    full = {}
    for n in cfg.n_ladder:
        full[n] = mc.run_trials(cfg, n=n, threads=1, csv_path=tmp_path / f"full{n}.csv")
    for threads in (1, 2):
        out = tmp_path / f"t{threads}"
        report, by_n = mc.run_experiment(replace(cfg, threads=threads), out_dir=out)
        assert all(e.skipped is False for e in report.entries)
        for n in cfg.n_ladder:
            assert ((out / f"outcomes_n{n}.csv").read_bytes()
                    == (tmp_path / f"full{n}.csv").read_bytes())
        for n in (150, 300):
            assert all(len(o.ranked) <= 1 and o.marks.shape == (0, 5) for o in by_n[n])
            assert [o.ranked for o in by_n[n]] == [o.ranked[:1] for o in full[n]]
        assert all(same_outcome(a, b) for a, b in zip(by_n[600], full[600], strict=True))
    assert multiprocessing.active_children() == []


BEST_PATH_CASES = {
    "nr": mc.ExperimentConfig(graph_kind="nr",
                              vertex_weight_spec=("exponential", (1.0 / 3.0,))),
    "cm_iid": mc.ExperimentConfig(degree_model=("iid", ((1, 0.2), (3, 0.5), (6, 0.3)))),
    "cm_uniform": mc.ExperimentConfig(weight_spec=("uniform", (1.0,))),
}


@pytest.mark.parametrize("name", sorted(BEST_PATH_CASES))
def test_best_path_stop_keeps_every_csv_field(name):
    # the m = 1 stop without the mark window is exact, and a disconnected
    # endpoint pair explores until a cluster closes at any m, so the CSV row,
    # the resample count and the best path match the full trial's
    cfg = replace(BEST_PATH_CASES[name], ranked_m=3, master_seed=23)
    consts = mc.constants_for_config(cfg)
    full = mc._TrialTask(cfg, 1000, consts, True)
    best = mc._TrialTask(replace(cfg, ranked_m=1), 1000, consts, False)
    for i in range(300):
        a, b = mc._run_single_trial(full, i), mc._run_single_trial(best, i)
        assert (mc._csv_row(a), a.resamples, a.ranked[:1]) == \
            (mc._csv_row(b), b.resamples, b.ranked), i
        assert b.marks.shape == (0, 5)


def test_run_trials_without_marks_keeps_the_ranked_paths():
    cfg = replace(small_config(), ranked_m=3)
    with_marks = mc.run_trials(cfg, threads=1)
    task = mc._TrialTask(cfg, 300, mc.constants_for_config(cfg), False)
    without = mc._trial_chunk((task, 0, cfg.trials))
    assert [o.ranked for o in without] == [o.ranked for o in with_marks]
    assert [mc._csv_row(o) for o in without] == [mc._csv_row(o) for o in with_marks]
    assert all(o.marks.shape == (0, 5) for o in without)
    assert any(o.marks.size for o in with_marks)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the slow reference must run beside forked workers")
def test_rung_stamps_are_completion_times(monkeypatch):
    # the parent takes no chunk until the references are built, yet a small
    # rung that completed long before must be stamped when it completed
    real = mc.build_ranked_reference

    def slow(*args):
        time.sleep(1.0)
        return real(*args)

    monkeypatch.setattr(mc, "build_ranked_reference", slow)
    cfg = mc.ExperimentConfig(n_ladder=(100, 150), trials=64, master_seed=611,
                              threads=2, thresholds={"min_outcomes": 50})
    report, _ = mc.run_experiment(cfg)
    assert report.seconds["rung 100"] < report.seconds["references"]
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched trial reaches the workers only by fork")
def test_top_rung_chunks_start_first(monkeypatch, tmp_path):
    # the top rung's chunks take longest, so the pool gets them first; a
    # chunk starts with its first trial, which stamps a file per chunk
    real = mc._run_single_trial

    def stamped(task, index):
        if index % mc._CHUNK == 0:
            (tmp_path / f"{task.n}_{index}").write_text(repr(time.monotonic()))
        return real(task, index)

    monkeypatch.setattr(mc, "_run_single_trial", stamped)
    cfg = mc.ExperimentConfig(n_ladder=(100, 200), trials=130, master_seed=611,
                              threads=2)
    mc.run_experiment(cfg)
    starts = sorted((float(p.read_text()), p.name) for p in tmp_path.iterdir())
    assert len(starts) == 6
    assert {name for _, name in starts[:2]} == {"200_0", "200_64"}, starts
    assert multiprocessing.active_children() == []


def test_run_trials_outcome_sanity():
    out = mc.run_trials(small_config(), threads=2)
    assert len(out) == 24
    assert [o.trial for o in out] == list(range(24))
    for o in out:
        assert o.connected
        assert o.n == 300
        assert o.H_n >= 1
        assert o.L_n > 0
        assert o.W1 > 0 and o.W2 > 0
        assert o.resamples >= 0
        assert o.marks is None or o.marks.shape[1] == 5
        assert len(o.ranked) <= 2
        ws = [r[0] for r in o.ranked]
        assert ws == sorted(ws)
        assert o.ranked[0][0] == pytest.approx(o.L_n)


def test_csv_round_trip(tmp_path):
    out = mc.run_trials(small_config(), threads=1)
    path = tmp_path / "outcomes.csv"
    mc.write_outcomes_csv(out, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == mc.CSV_HEADER
    assert len(lines) == 25
    first = lines[1].split(",")
    assert int(first[0]) == 0
    # repr serialization: floats survive the round trip bit for bit
    assert float(first[4]) == out[0].L_n
    assert float(first[5]) == out[0].Z_hat


DATA = pathlib.Path(__file__).resolve().parent / "data"
RECORDED_CASES = {
    "nr": (mc.ExperimentConfig(graph_kind="nr",
                               vertex_weight_spec=("exponential", (1.0 / 3.0,)),
                               ranked_m=3), 2000),
    "cm_iid": (mc.ExperimentConfig(degree_model=("iid", ((1, 0.2), (3, 0.5), (6, 0.3))),
                                   ranked_m=3), 1000),
    "cm_regular": (mc.ExperimentConfig(degree_model=("regular", 4), ranked_m=3), 1000),
}


@pytest.mark.parametrize("name", sorted(RECORDED_CASES))
def test_trials_match_recorded_outcomes(name, tmp_path):
    # a trial on realised degrees (nr, cm iid) solves its own n-level growth
    # rate, and the 4-regular exp(1) case is the gate model; the recorded CSV
    # and mark digests pin every outcome float to the bit, so a one-ulp drift
    # in alpha_n or in the mark coordinates fails here
    cfg, n = RECORDED_CASES[name]
    path = tmp_path / "trials.csv"
    out = mc.run_trials(replace(cfg, trials=30, master_seed=9), n=n, csv_path=path)
    assert path.read_bytes() == (DATA / f"trials_{name}_seed9.csv").read_bytes()
    recorded = json.loads((DATA / "trials_marks_seed9.json").read_text())[name]
    assert [hashlib.sha256(o.marks.tobytes()).hexdigest() for o in out] == recorded


def test_a_weight_rate_only_rescales_the_trials_time():
    # exp(10) is exp(1) in time units of 1/10: the same seeds give the same
    # hops, martingale limits, mark sources and heights, every time-valued
    # output scaled by 1/10, the same marks in the window and the same verdicts
    def run(rate):
        cfg = mc.ExperimentConfig(weight_spec=("exponential", (rate,)), n_ladder=(1000,),
                                  trials=30, ranked_m=3, master_seed=9,
                                  thresholds={"min_outcomes": 30})
        report, by_n = mc.run_experiment(cfg)
        return report, by_n[1000]

    (report1, one), (report10, ten) = run(1.0), run(10.0)
    for name in ("H_n", "W1", "W2"):
        np.testing.assert_array_equal(mc.column(ten, name), mc.column(one, name))
    for name in ("L_n", "Q_hat"):
        np.testing.assert_allclose(10.0 * mc.column(ten, name), mc.column(one, name),
                                   rtol=1e-12)
    marks1, marks10 = mc.pool_marks(one), mc.pool_marks(ten)
    assert marks1.shape == marks10.shape
    np.testing.assert_array_equal(marks10[:, 1], marks1[:, 1])
    # the heights' centre t_n / nu_bar_n is a ratio of two times, each rounded
    np.testing.assert_allclose(marks10[:, 2:4], marks1[:, 2:4], rtol=0, atol=1e-12)
    np.testing.assert_allclose(10.0 * marks10[:, [0, 4]], marks1[:, [0, 4]],
                               rtol=1e-12)
    assert ([(e.name, e.passed, e.sample_size) for e in report10.entries]
            == [(e.name, e.passed, e.sample_size) for e in report1.entries])


IID_PMF = {2: 0.2, 3: 0.3, 4: 0.3, 6: 0.2}


def eager_graph(model, n, rng):
    """The control graph, paired in full before any weight is drawn: regular,
    or n i.i.d. per-vertex degree draws with the last vertex bumped for
    parity, paired off their offsets as pair_configuration does."""
    if model[0] == "regular":
        return graphs.pair_configuration(degrees.regular(model[1], n), rng)
    support = sorted(model[1])
    d = rng.choice(support, size=n, p=[model[1][k] for k in support])
    d[-1] += int(d.sum()) % 2
    off = graphs._offsets(d)
    partner = np.empty(int(off[-1]), dtype=np.int64)
    graphs._pair_uniformly(np.arange(partner.size), rng, partner)
    return graphs.WeightedGraph(n=n, he_offset=off, he_owner=graphs._owners(off),
                                partner=partner)


def eager_trial(model, n, seed):
    """(hops, weight) of one eager control trial: an eager_graph with Exp(1)
    weights, explored between uniform endpoint pairs until one connects."""
    rng = philox(seed)
    g = graphs.assign_weights(eager_graph(model, n, rng), weights.exponential(1.0), rng)
    while True:
        u1, u2 = rng.choice(n, size=2, replace=False)
        res = explore.run(g, int(u1), int(u2))
        if res.connected:
            return res.hops, res.weight


def test_lazy_trials_match_eager_law():
    # cm trials pair lazily, and an iid trial draws its degree counts at
    # once and lays them out sorted; H_n and L_n must have the law of
    # exploring a graph on per-vertex degrees, paired and weighted in full
    # beforehand (Exp(1) weights); the seeded control trials run in a pool
    n, M = 10_000, 1000
    for model in (("regular", 4), ("iid", IID_PMF)):
        lazy = mc.run_trials(mc.ExperimentConfig(degree_model=model, n_ladder=(n,),
                                                 trials=M, master_seed=71),
                             threads=suite_threads())
        with ProcessPoolExecutor(suite_threads(),
                                 mp_context=multiprocessing.get_context("spawn")) as ex:
            hops, lengths = zip(*ex.map(functools.partial(eager_trial, model, n),
                                        range(50_000, 50_000 + M), chunksize=50))
        _, p_hops = mc.ks_two_sample(np.array([o.H_n for o in lazy]), np.array(hops))
        _, p_len = mc.ks_two_sample(np.array([o.L_n for o in lazy]), np.array(lengths))
        assert p_hops > 1e-3 and p_len > 1e-3, (model[0], p_hops, p_len)


def test_trial_chunks_import_nothing():
    # a forked pool worker inherits the parent's import locks; if one was
    # held by another parent thread at fork time, the worker's first import
    # blocks forever. So a chunk of cm or nr trials, run after the parent's
    # own setup (constants and task), must import no module at all, and
    # numpy.random, which numpy loads lazily, must come with the package
    script = textwrap.dedent("""
        import sys
        import fpplab.cli
        from fpplab import montecarlo as mc

        if "numpy.random" not in sys.modules:
            sys.exit("numpy.random not loaded by import fpplab.cli")
        tasks = []
        for cfg in (mc.ExperimentConfig(master_seed=5),
                    mc.ExperimentConfig(graph_kind="nr", master_seed=5,
                                        vertex_weight_spec=("exponential", (1 / 3,)))):
            tasks.append(mc._TrialTask(cfg, 300, mc.constants_for_config(cfg), True))
        before = set(sys.modules)
        for task in tasks:
            mc._trial_chunk((task, 0, 3))
        print(sorted(set(sys.modules) - before))
    """)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched trial reaches the workers only by fork")
def test_dead_worker_is_named_error(monkeypatch):
    real = mc._run_single_trial

    def dying(task, index):
        if index == 70:
            os._exit(3)
        return real(task, index)

    monkeypatch.setattr(mc, "_run_single_trial", dying)
    cfg = mc.ExperimentConfig(n_ladder=(100,), trials=130, master_seed=611)
    with pytest.raises(mc.MonteCarloError) as err:
        mc.run_trials(cfg, threads=2)
    msg = str(err.value)
    assert "master seed 611" in msg and "chunk" in msg and "trials" in msg
    assert re.search(r"run_trials\(replace\(config, trials=\d+\), n=100, threads=1\)",
                     msg), msg


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched trial reaches the workers only by fork")
def test_dead_worker_in_a_later_rung_names_it(monkeypatch):
    # the whole ladder shares one pool; the worker on the last chunk of the
    # second rung dies after the other chunks have had time to finish, so
    # that chunk is the first lost
    real = mc._run_single_trial

    def dying(task, index):
        if task.n == 200 and index == 128:
            time.sleep(1.5)
            os._exit(3)
        return real(task, index)

    monkeypatch.setattr(mc, "_run_single_trial", dying)
    cfg = mc.ExperimentConfig(n_ladder=(100, 200), trials=130, master_seed=611,
                              threads=2)
    with pytest.raises(mc.MonteCarloError) as err:
        mc.run_experiment(cfg)
    msg = str(err.value)
    assert "chunk 2 (trials 128..129) of rung n=200, master seed 611" in msg
    assert "run_trials(replace(config, trials=130), n=200, threads=1)" in msg
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched trial reaches the workers only by fork")
def test_dead_worker_replay_hint_rewrites_the_lost_rows(monkeypatch, tmp_path):
    # the hint, run as printed with config bound to the run's config, must
    # write the lost chunk's rows as the pooled run does, byte for byte; the
    # chunk sits on a lower rung, which the run explores at m = 1 without
    # marks while the replay runs the full config
    cfg = mc.ExperimentConfig(n_ladder=(100, 200), trials=130, ranked_m=3,
                              master_seed=611, threads=2)
    mc.run_experiment(cfg, out_dir=tmp_path / "pooled")
    real = mc._run_single_trial

    def dying(task, index):
        if task.n == 100 and index == 70:
            os._exit(3)
        return real(task, index)

    monkeypatch.setattr(mc, "_run_single_trial", dying)
    with pytest.raises(mc.MonteCarloError) as err:
        mc.run_experiment(cfg)
    monkeypatch.undo()
    msg = str(err.value)
    lo, last, n = map(int, re.search(r"trials (\d+)\.\.(\d+)\) of rung n=(\d+)",
                                     msg).groups())
    replay = tmp_path / "replay.csv"
    eval(re.search(r"run_trials\(.*\)", msg).group(0),
         {"run_trials": functools.partial(mc.run_trials, csv_path=replay),
          "replace": replace, "config": cfg})
    rows = replay.read_bytes().splitlines(keepends=True)
    pooled = (tmp_path / "pooled" / f"outcomes_n{n}.csv").read_bytes()
    assert len(rows) == last + 2
    assert rows[lo + 1:] == pooled.splitlines(keepends=True)[lo + 1:last + 2]
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched trial reaches the workers only by fork")
def test_reference_error_cancels_queued_chunks(monkeypatch, tmp_path):
    # the parent builds the references while the pool runs the ladder; when
    # that raises, the chunks still queued must be dropped, not run
    real = mc._run_single_trial

    def slow(task, index):
        (tmp_path / f"{task.n}_{index}").touch()
        time.sleep(0.005)
        return real(task, index)

    def broken(*args):
        raise RuntimeError("reference failed")

    monkeypatch.setattr(mc, "_run_single_trial", slow)
    monkeypatch.setattr(mc, "build_ranked_reference", broken)
    cfg = mc.ExperimentConfig(n_ladder=(100, 150), trials=512, master_seed=611,
                              threads=2, thresholds={"min_outcomes": 100})
    with pytest.raises(RuntimeError, match="reference failed"):
        mc.run_experiment(cfg)
    # at most the two running chunks and the three the pool had queued ran
    assert len(list(tmp_path.iterdir())) <= 5 * mc._CHUNK < 2 * 512
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("threads", [1, 2])
def test_a_failing_trial_names_itself(monkeypatch, tmp_path, threads):
    # whatever a trial raises, serially or in a forked worker, surfaces as a
    # TrialError naming its rung, index and seeds and the serial replay call;
    # no CSV of the failed rung is left
    if threads > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched trial reaches the workers only by fork")
    real = mc._run_single_trial

    def failing(task, index):
        if index == 70:
            raise ZeroDivisionError("injected")
        return real(task, index)

    monkeypatch.setattr(mc, "_run_single_trial", failing)
    cfg = mc.ExperimentConfig(n_ladder=(100,), trials=130, master_seed=611)
    csv = tmp_path / "out.csv"
    with pytest.raises(mc.TrialError) as err:
        mc.run_trials(cfg, threads=threads, csv_path=csv)
    msg = str(err.value)
    assert (f"trial 70 of rung n=100 (trial seed {mc.trial_seed(611, 70)}, "
            "master seed 611) raised ZeroDivisionError: injected") in msg
    assert "run_trials(replace(config, trials=71), n=100, threads=1)" in msg
    assert not csv.exists()
    assert multiprocessing.active_children() == []


def test_persistent_disconnection(monkeypatch):
    # degree-1 vertices pair into a perfect matching, so two random
    # endpoints are almost never connected; with the resample budget cut to
    # 3 the trial must give up loudly rather than loop. The matching is
    # subcritical (nu_n = 0), so the 4-regular centring stands in for its own
    consts = mc.constants_for_config(mc.ExperimentConfig())
    monkeypatch.setattr(mc, "_centring_cached", lambda spec, nu_n: consts)
    monkeypatch.setattr(mc, "_MAX_RESAMPLES", 3)
    task = mc._TrialTask(mc.ExperimentConfig(degree_model=("regular", 1), master_seed=2),
                         100, consts, False)
    with pytest.raises(mc.PersistentDisconnection):
        mc._run_single_trial(task, 0)


# ---------------------------------------------------------------------------
# references and the residual table


def four_regular():
    cfg = mc.ExperimentConfig()
    return mc.constants_for_config(cfg), mc.bp_config_for(cfg)


def test_q_reference_deterministic_and_centered():
    consts, bp = four_regular()
    a = mc.build_q_reference(consts, bp, 400, 31)
    np.testing.assert_array_equal(a, mc.build_q_reference(consts, bp, 400, 31))
    # E[Q] = -0.36482 for this model; 4 sigma at 400 draws is about 0.17
    assert abs(float(a.mean()) + 0.36482) < 0.18


def test_ranked_reference_shape_and_order():
    consts, bp = four_regular()
    refs = mc.build_ranked_reference(consts, bp, 3, 300, 77)
    assert refs.shape == (300, 3)
    assert np.all(np.diff(refs, axis=1) > 0)
    np.testing.assert_array_equal(refs, mc.build_ranked_reference(consts, bp, 3, 300, 77))


def test_q_reference_is_first_ranked_column():
    consts, bp = four_regular()
    np.testing.assert_array_equal(mc.build_q_reference(consts, bp, 300, 77),
                                  mc.build_ranked_reference(consts, bp, 1, 300, 77)[:, 0])


def test_residual_table_matches_density():
    residual = ctbp.residual_density(weights.exponential(1.0), 2.0)
    cdf, inverse = mc.residual_cdf_table(residual, 12.0)
    xs = np.linspace(0.0, 8.0, 40)
    np.testing.assert_allclose(cdf(xs), 1.0 - np.exp(-xs), atol=1e-4)
    u = np.linspace(0.01, 0.99, 25)
    np.testing.assert_allclose(cdf(inverse(u)), u, atol=1e-9)


# ---------------------------------------------------------------------------
# verifier spot checks (exact-law synthetic data, one seed each; the full
# 100-seed calibration belongs to the acceptance suite)


def test_hopcount_verifier_null_and_power():
    z = philox(8).standard_normal(2000)
    ok = mc.verify_hopcount_clt({10 ** 5: z}, {"hop_ks": 0.06})
    assert ok.passed is True
    bad = mc.verify_hopcount_clt({10 ** 5: z + 1.0}, {"hop_ks": 0.06})
    assert bad.passed is False
    assert bad.statistics["mean_top"] > 0.5


def test_partial_thresholds_are_merged_over_the_defaults():
    z = philox(8).standard_normal(2000)
    full = dict(mc.DEFAULT_THRESHOLDS, hop_ks=0.06)
    assert (mc.verify_hopcount_clt({1000: z}, {"hop_ks": 0.06})
            == mc.verify_hopcount_clt({1000: z}, full))
    assert (mc.verify_hopcount_clt({1000: z})
            == mc.verify_hopcount_clt({1000: z}, mc.DEFAULT_THRESHOLDS))
    with pytest.raises(mc.MonteCarloError, match="hop_kz"):
        mc.verify_hopcount_clt({1000: z}, {"hop_kz": 0.06})


def test_hopcount_verifier_checks_ladder_monotonicity():
    rng = philox(9)
    z1 = rng.standard_normal(1500)
    z2 = rng.standard_normal(1500) * 1.6      # worse fit at the larger n
    entry = mc.verify_hopcount_clt({1000: z1, 10000: z2}, {"hop_ks": 0.06})
    assert entry.passed is False


def test_hopcount_verifier_skips_small_samples():
    entry = mc.verify_hopcount_clt({1000: np.zeros(10)}, {"hop_ks": 0.06})
    assert entry.passed is None


def test_weight_verifier_null_and_power():
    consts, _ = four_regular()
    rng = philox(10)
    a = consts.alpha
    ref = (consts.c - ctbp.standard_gumbel(rng, 10000)) / a
    q = (consts.c - ctbp.standard_gumbel(rng, 2000)) / a
    assert mc.verify_weight_limit(q, ref).passed is True
    shifted = mc.verify_weight_limit(q + math.log(2.0) / a, ref)
    assert shifted.passed is False
    assert shifted.statistics["ks"] > 0.15


def four_regular_residual():
    consts, _ = four_regular()
    return consts, ctbp.residual_density(weights.exponential(1.0), consts.alpha)


def test_ppp_verifier_null_and_power():
    consts, residual = four_regular_residual()
    marks = mc.exact_marks(philox(11), consts, residual, 2000, 2.0 * consts.alpha)
    entry = mc.verify_ppp(marks, 2000, consts, residual.cdf)
    assert entry.passed is True
    assert entry.statistics["slope"] == pytest.approx(2 * consts.alpha, rel=0.15)
    # wrong growth rate: half the true slope must be flagged
    bad = mc.exact_marks(philox(12), consts, residual, 2000, consts.alpha)
    entry_bad = mc.verify_ppp(bad, 2000, consts, residual.cdf)
    assert entry_bad.passed is False


def test_ppp_slope_is_the_likelihood_root():
    # the slope's mean equation at the estimate reproduces the marks' mean,
    # and marks spread evenly over the window read slope 0 (the midpoint
    # limit), decreasing ones a negative slope; every slope is finite
    consts, residual = four_regular_residual()
    lo, hi = mc._mark_window(consts.alpha)
    marks = mc.exact_marks(philox(13), consts, residual, 2000, 2.0 * consts.alpha)
    lam = mc.verify_ppp(marks, 2000, consts, residual.cdf).statistics["slope"]
    win = marks[(marks[:, 0] >= lo) & (marks[:, 0] <= hi), 0]
    assert hi - 1.0 / lam + (hi - lo) / math.expm1(lam * (hi - lo)) == pytest.approx(
        win.mean(), abs=1e-12)
    even = marks[:400].copy()
    even[:, 0] = np.linspace(lo, hi, 400)
    assert mc.verify_ppp(even, 2000, consts, residual.cdf).statistics["slope"] == (
        pytest.approx(0.0, abs=1e-9))
    even[:, 0] = lo + (hi - lo) * np.linspace(0.0, 1.0, 400) ** 3
    assert mc.verify_ppp(even, 2000, consts, residual.cdf).statistics["slope"] < -1.0


def test_exact_marks_fill_the_window_of_their_alpha():
    # the trials-nr law (Exp(1/3) vertex weights, exp(1) edges) has alpha = 5,
    # so its marks' window is (-3, 1)/5 and the verifier's slope target 10
    consts = mc.constants_for_config(RECORDED_CASES["nr"][0])
    assert consts.alpha == pytest.approx(5.0, rel=1e-12)
    residual = ctbp.residual_density(weights.exponential(1.0), consts.alpha)
    marks = mc.exact_marks(philox(16), consts, residual, 2000, 2.0 * consts.alpha)
    assert marks.shape[0] > mc._MIN_MARKS
    assert ((marks[:, 0] > -0.6) & (marks[:, 0] < 0.2)).all()
    entry = mc.verify_ppp(marks, 2000, consts, residual.cdf)
    assert entry.statistics["slope_target"] == pytest.approx(10.0, rel=1e-12)
    assert entry.statistics["ok_slope"] == 1.0


def test_ranked_verifier_null_and_power():
    consts, _ = four_regular()
    rng = philox(13)
    a = consts.alpha
    refs = (np.log(np.cumsum(rng.standard_exponential((10000, 3)), axis=1))
            + consts.c) / a
    t = (np.log(np.cumsum(rng.standard_exponential((2000, 3)), axis=1))
         + consts.c) / a
    assert mc.verify_ranked(t, refs).passed is True
    shift = math.log(2.0) / a
    assert mc.verify_ranked(t + shift, refs).passed is False


def test_ranked_matrix_centres_as_q_hat():
    # on realised iid degrees alpha_n differs from alpha; the rank-1 column
    # gate 9 tests must still be the Q_hat gate 5 tests, to the bit
    cfg, n = RECORDED_CASES["cm_iid"]
    out = mc.run_trials(replace(cfg, trials=30, master_seed=9), n=n, threads=1)
    consts = mc.constants_for_config(cfg)
    q_hat = mc.column(out, "Q_hat")
    limit_centred = mc.column(out, "L_n") - math.log(n) / consts.alpha
    assert np.abs(q_hat - limit_centred).max() > 1e-3
    ranked = mc.ranked_matrix(out, 3)
    np.testing.assert_array_equal(ranked[:, 0], q_hat)
    for row, o in zip(ranked, out):
        gaps = [r[0] - o.L_n for r in o.ranked]
        np.testing.assert_allclose(row[:len(gaps)] - row[0], gaps, rtol=0, atol=1e-12)


def test_ranked_matrix_counts_short_trials():
    # every fifth trial stops after two records: ranked_matrix reads NaN in
    # its third column, and the verifier drops and counts those rows
    consts, _ = four_regular()
    rng = philox(15)
    a = consts.alpha
    n = 1000
    refs = (ctbp.sample_ranked_gumbel(3, rng, 10000) + consts.c) / a
    w = (ctbp.sample_ranked_gumbel(3, rng, 2500) + consts.c) / a + math.log(n) / a
    outcomes = [mc.TrialOutcome(trial=i, seed=0, n=n, H_n=1, L_n=row[0], Z_hat=0.0,
                                Q_hat=row[0] - math.log(n) / a, W1=1.0, W2=1.0,
                                connected=True,
                                resamples=0, marks=np.empty((0, 5)),
                                ranked=tuple((x, 1) for x in row[:2 if i % 5 == 0 else 3]))
                for i, row in enumerate(w)]
    ranked = mc.ranked_matrix(outcomes, 3)
    assert ranked.shape == (2500, 3)
    short = np.isnan(ranked).any(axis=1)
    assert short.sum() == 500 and np.isnan(ranked[short, 2]).all()
    assert not np.isnan(ranked[:, :2]).any()
    entry = mc.verify_ranked(ranked, refs)
    assert entry.statistics["short_trials"] == 500.0
    assert entry.statistics["complete_trials"] == 2000.0
    assert entry.sample_size == 2000
    complete = mc.verify_ranked(ranked[~short], refs)
    assert complete.statistics["short_trials"] == 0.0
    for j in (1, 2, 3):
        assert entry.statistics[f"ks_rank{j}"] == complete.statistics[f"ks_rank{j}"]


def test_calibration_smoke():
    consts, residual = four_regular_residual()
    cal = mc.calibrate_verifiers(consts, residual, n_meta=2, M=1200)
    assert cal.passed
    assert set(cal.null_rates) == {"hopcount_clt", "weight_limit",
                                   "ppp_marks", "ranked_paths"}
    assert all(v == 1.0 for v in cal.null_rates.values())
    assert all(v == 1.0 for v in cal.power_rates.values())


# ---------------------------------------------------------------------------
# report plumbing


def test_report_json_and_text(tmp_path):
    z = philox(14).standard_normal(1000)
    entry = mc.verify_hopcount_clt({1000: z}, {"hop_ks": 0.06})
    report = mc.VerificationReport(master_seed=1, config={"n": 1000},
                                   entries=(entry,))
    text = report.to_text()
    assert "[PASS]" in text
    blob = report.to_json()
    import json
    parsed = json.loads(blob)
    assert parsed["passed"] is True
    assert parsed["entries"][0]["name"] == "hopcount_clt"
    assert parsed["config"] == {"n": 1000}


def test_report_skips_do_not_fail():
    entry = mc.verify_hopcount_clt({1000: np.zeros(5)}, {"hop_ks": 0.06})
    report = mc.VerificationReport(master_seed=1, config={}, entries=(entry,))
    assert entry.passed is None
    assert report.passed          # a skip is not a failure
    assert "[SKIP]" in report.to_text()
