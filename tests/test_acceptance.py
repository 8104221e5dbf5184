"""The ten acceptance gates, one test each, at their stated tolerances.

Gates 4, 5, 6, 9 and 10 share one `run_experiment` call, the pipeline that
`fpplab run` ships: a three-rung ladder (2000 trials per rung, 4-regular
pairing with unit-rate exponential weights, master seed 20260817) in one
process pool, whose rungs below the top stop at the best path. Gates 4, 6
and 9 read their entries from its report. Gate 5 recomputes the weight KS,
and a wrong-constant control, against the ranked reference the run draws.
Gate 10 reruns the lowest rung serially. The remaining gates build their
own small data. Each test prints one "criterion N: PASS/FAIL" line before
asserting, so the log always carries the verdict and the measured numbers.

Gates 4 and 6 state limit-law tolerances that this model family does not
reach at desk scale: the hopcount ladder tops out at n = 1e5 with an O(1)
centering offset still visible, and the collision-mark heights keep an
O(1/sqrt(log n)) skew. The thresholds are asserted as stated anyway; the
measured analysis is in the README section "Two gates fail, on purpose".
Do not soften them to make the suite green.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from fpplab import ctbp, degrees, graphs, oracle, weights
from fpplab import montecarlo as mc

from conftest import suite_threads

LADDER = (1000, 10_000, 100_000)
M_TRIALS = 2000
SEED = 20260817
RANKED_M = 3


_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_verdicts(capsys):
    # verdict lines go to the real terminal even under capture, so the
    # plain `pytest -v` log always carries all ten of them
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def emit(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(f"\n{line}")
    else:
        print(line)


def base_config():
    return mc.ExperimentConfig(n_ladder=LADDER, trials=M_TRIALS,
                               ranked_m=RANKED_M, master_seed=SEED,
                               thresholds={"hop_ks": 0.06})


@pytest.fixture(scope="module")
def threads():
    # at least two workers so the determinism gate really compares a
    # process-pool run against a serial rerun, even on a one-core box
    return max(2, suite_threads())


@pytest.fixture(scope="module")
def consts():
    return mc.constants_for_config(base_config())


@pytest.fixture(scope="module")
def ladder(threads, tmp_path_factory):
    out = tmp_path_factory.mktemp("ladder")
    t0 = time.monotonic()
    report, outcomes = mc.run_experiment(replace(base_config(), threads=threads),
                                         out_dir=out)
    elapsed = time.monotonic() - t0
    return {"report": report, "outcomes": outcomes, "out": out, "elapsed": elapsed}


def report_entry(ladder, name):
    return next(e for e in ladder["report"].entries if e.name == name)


@pytest.fixture(scope="module")
def ranked_reference(consts):
    bp = mc.bp_config_for(base_config())
    return mc.build_ranked_reference(consts, bp, RANKED_M, 10_000, SEED)


@pytest.fixture(scope="module")
def residual(consts):
    return ctbp.residual_density(weights.exponential(1.0), consts.alpha)


# ---------------------------------------------------------------------------


def test_criterion_01_oracle_equivalence():
    t0 = time.monotonic()
    res = oracle.run_corpus(500, SEED)
    elapsed = time.monotonic() - t0
    ok = res.passed and elapsed < 30.0
    emit(1, ok, f"{res.summary()} in {elapsed:.1f}s (budget 30s)")
    assert res.passed, res.summary()
    assert elapsed < 30.0


def test_criterion_02_closed_form_constants():
    t0 = time.monotonic()
    worst = 0.0
    for nu in (2.0, 3.0, 5.0):
        c = ctbp.constants(nu + 1.0, nu, weights.exponential(1.0))
        gaps = (
            abs(c.alpha - (nu - 1.0)),
            abs(c.nu_bar - 1.0 / nu),
            abs(c.sigma_bar_sq - 1.0 / nu ** 2),
            abs(c.gamma - nu / (nu - 1.0)),
            abs(c.beta - nu / (nu - 1.0)),
            abs(c.c - math.log((nu + 1.0) * (nu - 1.0))),
        )
        worst = max(worst, *gaps)
        assert max(gaps) < 1e-8, (nu, gaps)

    # shifted weights: root of (2k/(a+k)) e^{-a} = 1 by plain bisection,
    # sharing no code with the quadrature path
    def oracle_alpha(k):
        f = lambda a: (2.0 * k / (a + k)) * math.exp(-a) - 1.0
        lo, hi = 1e-12, 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(lo) * f(mid) <= 0:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    for k in (1.0, 10.0, 100.0):
        a = ctbp.solve_malthusian(2.0, weights.shifted_exponential(k))
        assert abs(a - oracle_alpha(k)) < 1e-10
        if k == 100.0:
            rel = abs(a - math.log(2.0)) / math.log(2.0)
            assert rel < 0.01, f"alpha(k=100) off log 2 by {rel:.4%}"

    for s, g_tol, b_tol in ((0.5, 0.10, 0.15), (2.0, 0.10, 0.15)):
        c = ctbp.constants(1000.0, 999.0, weights.power_exponential(s))
        assert abs(c.gamma - s) / s < g_tol, (s, c.gamma)
        assert abs(c.beta - s ** 2) / s ** 2 < b_tol, (s, c.beta)

    elapsed = time.monotonic() - t0
    emit(2, elapsed < 5.0, f"max closed-form gap {worst:.2e}, "
         f"power/shifted families inside tolerance, {elapsed:.2f}s (budget 5s)")
    assert elapsed < 5.0


def test_criterion_03_residual_identities():
    t0 = time.monotonic()
    kinds = (weights.exponential(1.0), weights.shifted_exponential(2.0),
             weights.power_exponential(1.3), weights.uniform(2.0))
    worst = 0.0
    for dist in kinds:
        for nu in (1.5, 2.0, 3.0, 5.0):
            c = ctbp.constants(nu + 1.0, nu, dist)
            checks = dict(c.checks)
            gap_f = abs(c.f_R0 - c.alpha / (nu - 1.0))
            gap_b = abs(c.B - c.nu_bar / (nu - 1.0))
            worst = max(worst, gap_f, gap_b, checks["f_R0_identity"],
                        checks["B_identity"])
            assert gap_f < 1e-8, (dist.kind, nu, gap_f)
            assert gap_b < 1e-8, (dist.kind, nu, gap_b)
    elapsed = time.monotonic() - t0
    emit(3, elapsed < 10.0,
         f"16 kind/offspring pairs, worst identity gap {worst:.2e}, "
         f"{elapsed:.2f}s (budget 10s)")
    assert elapsed < 10.0


def test_criterion_04_hopcount_clt(ladder):
    entry = report_entry(ladder, "hopcount_clt")
    s = entry.statistics
    detail = (f"KS {s['ks_n1000']:.3f}/{s['ks_n10000']:.3f}/{s['ks_n100000']:.3f} "
              f"(monotone={int(s['ladder_monotone'])}, need <0.06 at top), "
              f"mean {s['mean_top']:+.3f} (|.|<0.3), var {s['var_top']:.3f} "
              f"(within 0.3 of 1), ladder wall time {ladder['elapsed']:.0f}s "
              f"(budget 900s)")
    emit(4, bool(entry.passed) and ladder["elapsed"] < 900.0, detail)
    assert ladder["elapsed"] < 900.0
    assert entry.passed, (
        "hopcount limit law not reached at n = 1e5: " + detail +
        "; finite-size centering offset, see the README section "
        "'Two gates fail, on purpose'")


def test_criterion_05_weight_limit(ladder, consts, ranked_reference):
    q = mc.column(ladder["outcomes"][LADDER[-1]], "Q_hat")
    q_reference = ranked_reference[:, 0]
    d_null, p_null = mc.ks_two_sample(q, q_reference)
    d_power, _ = mc.ks_two_sample(q, q_reference + math.log(2.0) / consts.alpha)
    ok = d_null < 0.08 and d_power > 0.15
    emit(5, ok, f"two-sample KS {d_null:.4f} (p={p_null:.3f}, need <0.08); "
         f"wrong-constant check {d_power:.4f} (need >0.15)")
    assert d_null == report_entry(ladder, "weight_limit").statistics["ks"]
    assert d_null < 0.08
    assert d_power > 0.15


def test_criterion_06_ppp_structure(ladder, consts, residual):
    entry = report_entry(ladder, "ppp_marks")
    s = entry.statistics
    cal = mc.calibrate_verifiers(consts, residual, n_meta=100, M=M_TRIALS)
    rates = {**{f"null_{k}": v for k, v in cal.null_rates.items()},
             **{f"power_{k}": v for k, v in cal.power_rates.items()}}
    source_sigmas = s["source_dev"] / (0.5 / math.sqrt(s["marks_in_window"]))
    detail = (f"slope {s['slope']:.2f} vs {s['slope_target']:.0f} (15%), "
              f"source dev {source_sigmas:.2f} sigma (<3), "
              f"height KS or/de {s['height_ks_origin']:.3f}/"
              f"{s['height_ks_dest']:.3f} (<0.08), "
              f"residual KS {s['residual_ks']:.3f} (<0.05), "
              f"calibration min rate {min(rates.values()):.2f} (>=0.99 over "
              f"{cal.n_meta} meta-seeds)")
    emit(6, bool(entry.passed) and cal.passed, detail)
    assert cal.passed, rates
    assert entry.passed, (
        "collision-mark heights keep a finite-size skew at n = 1e5: " + detail +
        "; see the README section 'Two gates fail, on purpose'")


def test_criterion_07_simple_graph_acceptance():
    t0 = time.monotonic()
    seq = degrees.regular(3, 1000)
    rng = np.random.Generator(np.random.Philox(key=mc.derived_seed(SEED, 5, 7)))
    simple = 0
    for _ in range(1000):
        if graphs.pair_configuration(seq, rng).is_simple:
            simple += 1
    rate = simple / 1000
    p = math.exp(-2.0)
    band = 3.0 * math.sqrt(p * (1.0 - p) / 1000)
    elapsed = time.monotonic() - t0
    ok = abs(rate - p) <= band and elapsed < 60.0
    emit(7, ok, f"acceptance rate {rate:.4f} vs e^-2 = {p:.4f} "
         f"(3 sigma band {band:.4f}), {elapsed:.1f}s (budget 60s)")
    assert abs(rate - p) <= band
    assert elapsed < 60.0


def test_criterion_08_rank1_degree_law():
    t0 = time.monotonic()
    n = 10_000
    dist = weights.exponential(2.0)
    rng = np.random.Generator(np.random.Philox(key=mc.derived_seed(SEED, 5, 8)))
    w = weights.sample(dist, rng, size=n)
    g = graphs.sample_rank1(w, "nr", rng)
    deg = g.degrees()
    k_max = 40
    law = graphs.mixed_poisson_pmf(dist)   # stops at k = 31, below 1e-15
    want = np.zeros(k_max + 1)
    want[:min(law.size, k_max + 1)] = law[:k_max + 1]
    got = np.bincount(deg, minlength=k_max + 1).astype(float) / n
    # partition TV: each degree up to k_max is its own cell, everything
    # beyond is one shared tail cell
    tv = 0.5 * (np.abs(got[:k_max + 1] - want).sum()
                + abs(got[k_max + 1:].sum() - max(0.0, 1.0 - want.sum())))
    elapsed = time.monotonic() - t0
    ok = tv < 0.05 and elapsed < 60.0
    emit(8, ok, f"total variation {tv:.4f} vs mixed-Poisson quadrature "
         f"(need <0.05), {elapsed:.1f}s (budget 60s)")
    assert tv < 0.05
    assert elapsed < 60.0


def test_criterion_09_ranked_paths(ladder):
    entry = report_entry(ladder, "ranked_paths")
    s = entry.statistics
    ks = [s[f"ks_rank{j + 1}"] for j in range(RANKED_M)]
    detail = (f"per-rank KS {'/'.join(f'{d:.3f}' for d in ks)} (<0.1), "
              f"strictly increasing in {s['frac_strictly_increasing']:.2%} "
              f"of trials (need 100%)")
    emit(9, bool(entry.passed), detail)
    assert s["frac_strictly_increasing"] == 1.0
    assert entry.passed, detail


def test_criterion_10_determinism(ladder, threads, tmp_path_factory):
    n = LADDER[0]
    rerun = tmp_path_factory.mktemp("rerun") / "again.csv"
    mc.run_trials(base_config(), n=n, threads=1, csv_path=rerun)
    same = rerun.read_bytes() == (ladder["out"] / f"outcomes_n{n}.csv").read_bytes()
    emit(10, same, f"rung n={n} rerun single-threaded: outcome CSV "
         f"{'byte-identical' if same else 'DIFFERS'} vs {threads}-worker run")
    assert same
