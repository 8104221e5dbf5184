"""Seeding, KS statistics, trial harness determinism, verifier spot checks."""

import math
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.stats
from scipy.special import ndtr

from fpplab import ctbp, degrees, explore, graphs, weights
from fpplab import montecarlo as mc


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
    consts = mc.constants_for_config(mc.ExperimentConfig())
    for m in (600, 2500):
        z = philox(2).standard_normal(m)
        entry = mc.verify_hopcount_clt({1000: z}, consts)
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


def test_pmf_of_model():
    assert mc.pmf_of_model(("regular", 4)) == {4: 1.0}
    pmf = {1: 0.5, 3: 0.5}
    assert mc.pmf_of_model(("iid", pmf)) == pmf


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


def test_experiment_config_threshold_validation():
    cfg = mc.ExperimentConfig(thresholds={"weight_ks": 0.2})
    assert cfg.threshold("weight_ks") == 0.2
    assert cfg.threshold("ranked_ks") == 0.1
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


def test_lazy_trials_match_eager_law():
    # cm trials pair lazily; H_n and L_n must have the law of exploring a
    # graph paired and weighted in full beforehand (4-regular, Exp(1))
    n, M = 10_000, 1000
    lazy = mc.run_trials(mc.ExperimentConfig(n_ladder=(n,), trials=M,
                                             master_seed=71), threads=1)
    seq = degrees.regular(4, n)
    dist = weights.exponential(1.0)
    hops, lengths = [], []
    for i in range(M):
        rng = philox(50_000 + i)
        g = graphs.assign_weights(graphs.pair_configuration(seq, rng), dist, rng)
        while True:
            u1, u2 = rng.choice(n, size=2, replace=False)
            res = explore.run(g, int(u1), int(u2))
            if res.connected:
                break
        hops.append(res.hops)
        lengths.append(res.weight)
    _, p_hops = mc.ks_two_sample(np.array([o.H_n for o in lazy]), np.array(hops))
    _, p_len = mc.ks_two_sample(np.array([o.L_n for o in lazy]), np.array(lengths))
    assert p_hops > 1e-3 and p_len > 1e-3, (p_hops, p_len)


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
    assert "master_seed=611, n=100, threads=1)" in msg


def test_persistent_disconnection():
    # degree-1 vertices pair into a perfect matching, so two random
    # endpoints are almost never connected; with the resample budget cut to
    # 3 the trial must give up loudly rather than loop
    consts = mc.constants_for_config(mc.ExperimentConfig())
    task = mc._TrialTask(master_seed=2, n=100, graph_kind="cm",
                         degree_model=("regular", 1),
                         weight_spec=("exponential", (1.0,)),
                         vertex_weight_spec=None, ranked_m=1, window_hi=0.5,
                         consts_n=consts, consts_limit=consts,
                         collect_marks=False, max_resamples=3)
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
    consts, _ = four_regular()
    z = philox(8).standard_normal(2000)
    ok = mc.verify_hopcount_clt({10 ** 5: z}, consts, threshold=0.06)
    assert ok.passed is True
    bad = mc.verify_hopcount_clt({10 ** 5: z + 1.0}, consts, threshold=0.06)
    assert bad.passed is False
    assert bad.statistics["mean_top"] > 0.5


def test_hopcount_verifier_checks_ladder_monotonicity():
    consts, _ = four_regular()
    rng = philox(9)
    z1 = rng.standard_normal(1500)
    z2 = rng.standard_normal(1500) * 1.6      # worse fit at the larger n
    entry = mc.verify_hopcount_clt({1000: z1, 10000: z2}, consts, threshold=0.06)
    assert entry.passed is False


def test_hopcount_verifier_skips_small_samples():
    consts, _ = four_regular()
    entry = mc.verify_hopcount_clt({1000: np.zeros(10)}, consts, threshold=0.06)
    assert entry.passed is None


def test_weight_verifier_null_and_power():
    consts, _ = four_regular()
    rng = philox(10)
    a = consts.alpha
    ref = (consts.c - ctbp.standard_gumbel(rng, 10000)) / a
    q = (consts.c - ctbp.standard_gumbel(rng, 2000)) / a
    assert mc.verify_weight_limit(q, consts, ref).passed is True
    shifted = mc.verify_weight_limit(q + math.log(2.0) / a, consts, ref)
    assert shifted.passed is False
    assert shifted.statistics["ks"] > 0.15


def exact_ppp_marks(rng, consts, n_trials, slope, window=(-1.5, 0.5)):
    lam = n_trials * 2.0 * consts.nu * consts.f_R0 / consts.mu
    total = lam * (math.exp(slope * window[1]) - math.exp(slope * window[0])) / slope
    count = int(rng.poisson(total))
    u = rng.random(count)
    lo_e, hi_e = math.exp(slope * window[0]), math.exp(slope * window[1])
    tbar = np.log(lo_e + u * (hi_e - lo_e)) / slope
    return np.column_stack([
        tbar,
        rng.integers(1, 3, count).astype(float),
        rng.standard_normal(count),
        rng.standard_normal(count),
        -np.log(1.0 - rng.random(count)),     # exp(1) residual law
    ])


def test_ppp_verifier_null_and_power():
    consts, _ = four_regular()
    residual_cdf = lambda x: 1.0 - np.exp(-np.asarray(x, dtype=float))
    marks = exact_ppp_marks(philox(11), consts, 2000, 2.0 * consts.alpha)
    entry = mc.verify_ppp(None, consts, residual_cdf, marks=marks, n_trials=2000)
    assert entry.passed is True
    assert entry.statistics["slope"] == pytest.approx(2 * consts.alpha, rel=0.15)
    # wrong growth rate: half the true slope must be flagged
    bad = exact_ppp_marks(philox(12), consts, 2000, consts.alpha)
    entry_bad = mc.verify_ppp(None, consts, residual_cdf, marks=bad, n_trials=2000)
    assert entry_bad.passed is False


def test_ranked_verifier_null_and_power():
    consts, _ = four_regular()
    rng = philox(13)
    a = consts.alpha
    refs = (np.log(np.cumsum(rng.standard_exponential((10000, 3)), axis=1))
            + consts.c) / a
    t = (np.log(np.cumsum(rng.standard_exponential((2000, 3)), axis=1))
         + consts.c) / a
    assert mc.verify_ranked(t, consts, 3, refs).passed is True
    shift = math.log(2.0) / a
    assert mc.verify_ranked(t + shift, consts, 3, refs).passed is False


def test_calibration_smoke():
    consts, _ = four_regular()
    residual = ctbp.residual_density(weights.exponential(1.0), consts.alpha)
    cdf, inverse = mc.residual_cdf_table(residual, 15.0)
    cal = mc.calibrate_verifiers(consts, cdf, inverse, n_meta=2, M=1200)
    assert cal.passed
    assert set(cal.null_rates) == {"hopcount_clt", "weight_limit",
                                   "ppp_marks", "ranked_paths"}
    assert all(v == 1.0 for v in cal.null_rates.values())
    assert all(v == 1.0 for v in cal.power_rates.values())


# ---------------------------------------------------------------------------
# report plumbing


def test_report_json_and_text(tmp_path):
    consts, _ = four_regular()
    z = philox(14).standard_normal(1000)
    entry = mc.verify_hopcount_clt({1000: z}, consts, threshold=0.06)
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
    consts, _ = four_regular()
    entry = mc.verify_hopcount_clt({1000: np.zeros(5)}, consts, threshold=0.06)
    report = mc.VerificationReport(master_seed=1, config={}, entries=(entry,))
    assert entry.passed is None
    assert report.passed          # a skip is not a failure
    assert "[SKIP]" in report.to_text()
