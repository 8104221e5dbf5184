"""Branching-process constants against closed forms and independent oracles.

Every numeric expectation here is either a hand-derivable closed form or is
recomputed inside the test with nothing but math.exp and bisection, so the
quadrature and root-finding code is checked against arithmetic it does not
share.
"""

import math

import numpy as np
import pytest

from fpplab import ctbp, weights
from fpplab.montecarlo import (ExperimentConfig, bp_config_for, build_q_reference,
                               constants_for_config, ks_one_sample, ks_two_sample)


def bisect(f, lo, hi, iters=200):
    flo = f(lo)
    assert flo * f(hi) < 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Laplace transforms


def test_laplace_exponential_closed_form():
    # integral of e^(-st) against rate-lam exponential is lam/(lam+s)
    d = weights.exponential(1.7)
    for s in (0.3, 0.9, 2.4):
        assert ctbp.laplace_stieltjes(d, s) == pytest.approx(1.7 / (1.7 + s), abs=1e-12)


def test_laplace_shifted_exponential_closed_form():
    d = weights.shifted_exponential(2.5)
    for s in (0.2, 1.1):
        want = math.exp(-s) * 2.5 / (2.5 + s)
        assert ctbp.laplace_stieltjes(d, s) == pytest.approx(want, abs=1e-12)


def test_laplace_uniform_closed_form():
    d = weights.uniform(2.0)
    for s in (0.5, 0.8, 3.0):
        want = (1.0 - math.exp(-2.0 * s)) / (2.0 * s)
        assert ctbp.laplace_stieltjes(d, s) == pytest.approx(want, abs=1e-12)


def test_laplace_at_zero_is_one():
    for d in (weights.exponential(1.0), weights.uniform(3.0),
              weights.power_exponential(0.7)):
        assert ctbp.laplace_stieltjes(d, 0.0) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# Malthusian root


def test_malthusian_exponential_is_nu_minus_one():
    d = weights.exponential(1.0)
    for nu in (2.0, 3.0, 5.0):
        assert ctbp.solve_malthusian(nu, d) == pytest.approx(nu - 1.0, abs=1e-10)


def test_malthusian_shifted_exponential_vs_bisection():
    # independent oracle: solve (nu k/(a+k)) e^(-a) = 1 with plain bisection
    for k in (1.0, 10.0):
        d = weights.shifted_exponential(k)
        want = bisect(lambda a: (2.0 * k / (a + k)) * math.exp(-a) - 1.0, 1e-12, 2.0)
        assert ctbp.solve_malthusian(2.0, d) == pytest.approx(want, abs=1e-10)


def test_malthusian_uniform_vs_bisection():
    d = weights.uniform(2.0)
    want = bisect(lambda a: (1.0 - math.exp(-2.0 * a)) / a - 1.0, 1e-9, 2.0)
    assert ctbp.solve_malthusian(2.0, d) == pytest.approx(want, abs=1e-10)


def test_malthusian_requires_supercritical():
    with pytest.raises(ctbp.SubcriticalError):
        ctbp.solve_malthusian(0.9, weights.exponential(1.0))
    with pytest.raises(ctbp.SubcriticalError):
        ctbp.solve_malthusian(1.0, weights.exponential(1.0))


# ---------------------------------------------------------------------------
# stable-age moments and the full constant set


def test_stable_age_exponential():
    # tilted lifetime law of exp(1) at alpha = nu - 1 has mean 1/nu and
    # variance 1/nu^2 (it is exp(nu))
    for nu in (2.0, 3.0, 5.0):
        nu_bar, sig2 = ctbp.stable_age_moments(nu, nu - 1.0, weights.exponential(1.0))
        assert nu_bar == pytest.approx(1.0 / nu, abs=1e-10)
        assert sig2 == pytest.approx(1.0 / nu ** 2, abs=1e-10)


def test_constants_four_regular_exponential():
    c = ctbp.constants(4.0, 3.0, weights.exponential(1.0))
    assert c.alpha == pytest.approx(2.0, abs=1e-8)
    assert c.nu_bar == pytest.approx(1.0 / 3.0, abs=1e-8)
    assert c.sigma_bar_sq == pytest.approx(1.0 / 9.0, abs=1e-8)
    assert c.gamma == pytest.approx(1.5, abs=1e-8)
    assert c.beta == pytest.approx(1.5, abs=1e-8)
    assert c.c == pytest.approx(math.log(8.0), abs=1e-8)
    assert c.f_R0 == pytest.approx(1.0, abs=1e-8)
    assert c.B == pytest.approx(1.0 / 6.0, abs=1e-8)
    assert dict(c.checks)["malthusian"] < 1e-8
    assert dict(c.checks)["f_R0_identity"] < 1e-8
    assert dict(c.checks)["B_identity"] < 1e-8


def test_constants_rejects_subcritical():
    with pytest.raises(ctbp.SubcriticalError):
        ctbp.constants(1.2, 0.5, weights.exponential(1.0))


def test_constants_survive_extreme_power_weights():
    # steep power weights push alpha into the 1e5 range; the adaptive
    # quadrature has to follow without losing the structural identities
    c = ctbp.constants(1000.0, 999.0, weights.power_exponential(2.0))
    assert dict(c.checks)["f_R0_identity"] < 1e-8
    assert dict(c.checks)["B_identity"] < 1e-8
    assert c.alpha > 1e4


def test_mean_growth_constant_four_regular():
    c = ctbp.constants(4.0, 3.0, weights.exponential(1.0))
    assert ctbp.mean_growth_constant(c) == pytest.approx(1.0, rel=1e-9)


def test_default_horizon_formula():
    c = ctbp.constants(4.0, 3.0, weights.exponential(1.0))
    mu_a = c.mu * ctbp.mean_growth_constant(c)
    want = math.log(10000.0 / mu_a) / c.alpha
    assert ctbp.default_w_horizon(c) == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------------------
# residual lifetime


def test_residual_exponential_is_memoryless():
    r = ctbp.residual_density(weights.exponential(1.0), 2.0)
    for x in (0.0, 0.3, 1.0, 2.5, 4.0):
        assert r.density(x) == pytest.approx(math.exp(-x), abs=1e-9)
        assert r.cdf(x) == pytest.approx(1.0 - math.exp(-x), abs=1e-9)


def test_residual_cdf_normalizes():
    r = ctbp.residual_density(weights.uniform(2.0), 0.7968)
    assert r.cdf(0.0) == 0.0
    assert r.cdf(2.0) == pytest.approx(1.0, abs=1e-8)
    assert r.cdf(5.0) == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# simulation: martingale mean, offspring bookkeeping


def test_simulated_population_martingale_mean():
    # deterministic offspring (root 3, later 2) with exp(1) lifetimes:
    # e^(-t) E[Z_t] = 3 for every t, so the horizon estimate averages to 3
    root = ctbp.OffspringLaw(np.array([3]), np.array([1.0]))
    later = ctbp.OffspringLaw(np.array([2]), np.array([1.0]))
    d = weights.exponential(1.0)
    rng = np.random.Generator(np.random.Philox(key=42))
    west = [
        ctbp.simulate_bp(root, later, d, 5.0, rng, alpha=1.0,
                         record_trajectory=False).w_estimate
        for _ in range(3000)
    ]
    assert not any(math.isnan(w) for w in west)
    assert abs(float(np.mean(west)) - 3.0) < 0.12


def test_trajectory_bookkeeping():
    root = ctbp.OffspringLaw(np.array([3]), np.array([1.0]))
    later = ctbp.OffspringLaw(np.array([2]), np.array([1.0]))
    tr = ctbp.simulate_bp(root, later, weights.exponential(1.0), 4.0,
                          np.random.Generator(np.random.Philox(key=9)), alpha=1.0)
    assert tr.alive_counts[0] == 3          # root splits at time zero
    assert tr.event_times[0] == 0.0
    assert np.all(np.diff(tr.event_times) >= 0)
    assert np.all(tr.alive_counts >= 0)
    assert not tr.extinct                   # two children each, cannot die out
    assert tr.total_born >= tr.alive_counts[-1]


def test_extinction_flag():
    # root produces nothing: immediate extinction
    root = ctbp.OffspringLaw(np.array([0]), np.array([1.0]))
    later = ctbp.OffspringLaw(np.array([2]), np.array([1.0]))
    tr = ctbp.simulate_bp(root, later, weights.exponential(1.0), 2.0,
                          np.random.Generator(np.random.Philox(key=1)), alpha=1.0)
    assert tr.extinct
    assert tr.w_estimate == 0.0


# ---------------------------------------------------------------------------
# martingale limit W and the weight-fluctuation variable Q


def four_regular():
    c = ctbp.constants(4.0, 3.0, weights.exponential(1.0))
    bp = ctbp.BpConfig(root_law=ctbp.OffspringLaw(np.array([4]), np.array([1.0])),
                       later_law=ctbp.OffspringLaw(np.array([3]), np.array([1.0])),
                       dist=weights.exponential(1.0))
    return c, bp


def gamma22_cdf(x):
    # for the 4-regular exponential tree the a.s. limit of e^(-2t) Z_t is
    # Gamma(shape 2, scale 2): mean 4, and the cdf is known in closed form
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    return 1.0 - np.exp(-arr / 2.0) * (1.0 + arr / 2.0)


def test_sample_w_matches_gamma_limit():
    c, bp = four_regular()
    rng = np.random.Generator(np.random.Philox(key=17))
    ws = np.array([ctbp.sample_w(c, bp, rng) for _ in range(2000)])
    assert abs(ws.mean() - 4.0) < 0.26
    d_stat, p_value = ks_one_sample(ws, gamma22_cdf)
    assert d_stat < 0.045
    assert p_value > 1e-3


def test_sample_w_pool_matches_gamma_limit():
    c, bp = four_regular()
    ws = ctbp.sample_w_pool(c, bp, 20_000, np.random.Generator(np.random.Philox(key=17)))
    assert ws.shape == (20_000,)
    d_stat, p_value = ks_one_sample(ws, gamma22_cdf)
    assert d_stat < 0.045
    assert p_value > 1e-3


def test_sample_w_pool_matches_simulation():
    # uniform lifetimes (not Markov) and a later law with mass at 0, so the
    # pool holds extinct lines (V = 0) and root draws W = 0 are rejected;
    # the simulated, survival-conditioned sample_w is the reference
    cfg = ExperimentConfig(degree_model=("iid", ((1, 0.3), (3, 0.4), (5, 0.3))),
                           weight_spec=("uniform", (1.0,)))
    c, bp = constants_for_config(cfg), bp_config_for(cfg)
    pooled = ctbp.sample_w_pool(c, bp, 20_000, np.random.Generator(np.random.Philox(key=41)))
    assert np.all(pooled > 0)
    rng = np.random.Generator(np.random.Philox(key=43))
    simulated = np.array([ctbp.sample_w(c, bp, rng) for _ in range(3000)])
    d_stat, p_value = ks_two_sample(pooled, simulated)
    assert d_stat < 0.045
    assert p_value > 1e-3


def test_sample_w_pool_mean_is_mu_a():
    # no extinction on the 3-regular tree, so E W = mu A holds unconditioned
    dist = weights.uniform(1.0)
    c = ctbp.constants(3.0, 2.0, dist)
    bp = ctbp.BpConfig(root_law=ctbp.OffspringLaw.point(3),
                       later_law=ctbp.OffspringLaw.point(2), dist=dist)
    ws = ctbp.sample_w_pool(c, bp, 20_000, np.random.Generator(np.random.Philox(key=5)))
    want = c.mu * ctbp.mean_growth_constant(c)
    assert abs(ws.mean() - want) < 5.0 * ws.std() / math.sqrt(ws.size)


def test_sample_w_pool_deterministic():
    c, bp = four_regular()
    a = ctbp.sample_w_pool(c, bp, 500, np.random.Generator(np.random.Philox(key=3)))
    b = ctbp.sample_w_pool(c, bp, 500, np.random.Generator(np.random.Philox(key=3)))
    np.testing.assert_array_equal(a, b)
    other = ctbp.sample_w_pool(c, bp, 500, np.random.Generator(np.random.Philox(key=4)))
    assert not np.array_equal(a, other)


def test_q_formula_reduces_to_c_over_alpha():
    c, _ = four_regular()
    assert ctbp.q_formula(c, 1.0, 1.0, 0.0) == pytest.approx(c.c / c.alpha, rel=1e-12)
    shifted = ctbp.q_formula(c, math.e, 1.0, 0.0)
    assert shifted == pytest.approx(c.c / c.alpha - 1.0 / c.alpha, rel=1e-9)


def test_sample_q_mean():
    # E[Q] = (c - 2 E[log W] - euler_gamma)/alpha with E[log W] = psi(2)+log 2
    # = 1 - euler + log 2; everything below is that arithmetic spelled out
    euler = 0.5772156649015329
    e_log_w = 1.0 - euler + math.log(2.0)
    want = (math.log(8.0) - 2.0 * e_log_w - euler) / 2.0
    assert want == pytest.approx(-0.36482, abs=5e-6)
    c, bp = four_regular()
    qs = build_q_reference(c, bp, 4000, 23)
    assert qs.shape == (4000,)
    assert abs(float(qs.mean()) - want) < 0.055


# ---------------------------------------------------------------------------
# Gumbel utilities


def test_standard_gumbel_moments():
    rng = np.random.Generator(np.random.Philox(key=31))
    g = ctbp.standard_gumbel(rng, size=20000)
    # mean euler_gamma, sd pi/sqrt(6); 5 sigma on the mean is about 0.045
    assert abs(float(g.mean()) - 0.5772156649) < 0.045
    assert abs(float(g.std()) - math.pi / math.sqrt(6.0)) < 0.05


def test_ranked_gumbel_ascending_and_marginal():
    rng = np.random.Generator(np.random.Philox(key=13))
    draws = np.array([ctbp.sample_ranked_gumbel(3, rng) for _ in range(5000)])
    assert np.all(np.diff(draws, axis=1) > 0)
    # minus the first coordinate is a standard Gumbel variable
    first = -draws[:, 0]
    assert abs(float(first.mean()) - 0.5772156649) < 0.1
