"""Branching-process constants against closed forms and independent oracles.

Every numeric expectation here is either a hand-derivable closed form or is
recomputed inside the test with math.exp and bisection, with plain scipy
quad on the defining integral (the residual law), or with 30-digit mpmath
(the power-law transforms), so the quadrature and root-finding code is
checked against arithmetic it does not share.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from fpplab import ctbp, weights
from fpplab.montecarlo import (ExperimentConfig, bp_config_for, build_q_reference,
                               constants_for_config, ks_one_sample, ks_two_sample)
from conftest import write_exp_table
from test_weights import GOLDEN_LAWS


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


def test_laplace_is_memoised_per_law(monkeypatch):
    # a fresh law object is a fresh cache key; count the binade evaluations
    # behind it
    seen = []
    real = ctbp._moment

    def counting(k, s, dist, **tol):
        seen.append(s)
        return real(k, s, dist, **tol)

    monkeypatch.setattr(ctbp, "_moment", counting)
    d = weights.exponential(1.0)
    first = ctbp.laplace_stieltjes(d, 0.7)
    assert len(seen) == 1
    assert ctbp.laplace_stieltjes(d, 0.7) == first and len(seen) == 1
    # LS does not depend on nu: a solve at a new nu on a warm law re-runs
    # none of the doubling bracket's points, only its own Brent iterates
    # (the roots 1.5 and 1.7 share the bracket [1, 2])
    ctbp.solve_malthusian(2.5, d)
    cold = seen[1:]
    assert {1.0, 2.0} <= set(cold)
    del seen[:]
    ctbp.solve_malthusian(2.7, d)
    assert seen and not set(seen) & {1.0, 2.0}
    assert len(seen) < len(cold)
    del seen[:]
    with pytest.raises(ctbp.CtbpError):
        ctbp.laplace_stieltjes(d, -0.1)
    assert ctbp.laplace_stieltjes(d, 0.0) == 1.0 and not seen


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


def power_moment_30_digits(p, s, k):
    """integral t^k e^{-s t} dG(t) for G the law of E^p, E ~ Exp(1): in E the
    integrand e^{-s E^p - E} E^{pk} is free of the density's cusp at 0."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        return float(mpmath.quad(lambda e: e ** (p * k) * mpmath.exp(-s * e ** p - e),
                                 [0, 1, 10, mpmath.inf]))


@pytest.mark.parametrize("p", (0.1, 0.5, 1.3, 2.0, 3.0, 5.0))
def test_power_transform_and_stable_age_mean_vs_mpmath(p):
    # p = 1.3 has the density cusp t^-0.23 at the origin, p = 2 a t^-0.5 one;
    # for p = 3 and 5 (t^-0.67, t^-0.8) the innermost graded cell holds 1e-6
    # and 2e-4 of the mass; p = 0.1 puts the mass in a peak of width ~0.1
    d = weights.power_exponential(p)
    for s in (0.05, 0.7, 13.0):
        assert ctbp.laplace_stieltjes(d, s) == pytest.approx(
            power_moment_30_digits(p, s, 0), abs=1e-12)
        assert ctbp.stable_age_mean(1.0, s, d) == pytest.approx(
            power_moment_30_digits(p, s, 1), abs=1e-12)


def moment_closed_form(spec, k, s):
    """integral t^k e^{-s t} dG(t) in 30 digits: lam k!/(lam+s)^{k+1} for
    Exp(lam), e^{-s} kap sum_j C(k, j) j!/(s+kap)^{j+1} for 1 + Exp(kap), and
    gamma(k+1, s b)/(b s^{k+1}) (lower incomplete) for uniform(0, b)."""
    mpmath = pytest.importorskip("mpmath")
    kind, (p,) = spec
    with mpmath.workdps(30):
        s, p = mpmath.mpf(s), mpmath.mpf(p)
        if kind == "exponential":
            value = p * math.factorial(k) / (p + s) ** (k + 1)
        elif kind == "shifted_exponential":
            value = mpmath.exp(-s) * p * sum(math.comb(k, j) * math.factorial(j)
                                             / (s + p) ** (j + 1) for j in range(k + 1))
        else:
            value = mpmath.gammainc(k + 1, 0, s * p) / (p * s ** (k + 1))
        return float(value)


@pytest.mark.parametrize("spec", (("exponential", (1.0,)), ("exponential", (1.0 / 3.0,)),
                                  ("shifted_exponential", (5.0,)), ("uniform", (2.0,))))
def test_binade_moments_match_closed_forms(spec):
    # every rate of a binade [2^(e-1), 2^e) reads one node set built at its
    # ends, so check 64 rates across each, both ends and the float below 2^e
    d = weights.from_spec(*spec)
    for e in range(-3, 5):
        rates = np.linspace(2.0 ** (e - 1), 2.0 ** e, 64)
        rates[-1] = np.nextafter(2.0 ** e, 0.0)
        for s in [*rates.tolist(), 2.0 ** e]:
            for k in range(3):
                got = ctbp._moment(k, s, d, epsabs=0.0, epsrel=1e-12, what="moment")
                assert got == pytest.approx(moment_closed_form(spec, k, s), rel=1e-14, abs=0)


def test_a_moment_past_its_certification_names_its_integral():
    # a density ripple between the cell edges moves the sum on halved cells
    # by far more than 1e-18 of it
    e = weights.exponential(1.0)
    rough = dataclasses.replace(
        e, density=lambda x: e.density(x) * (1.0 + 1e-6 * np.cos(400.0 * np.asarray(x))))
    with pytest.raises(weights.QuadratureError, match="stable-age mean: halving"):
        ctbp._moment(1, 2.0, rough, epsabs=0.0, epsrel=1e-18, what="stable-age mean")


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


def horner(coeffs):
    def f(x):
        v = 0.0
        for c in coeffs:
            v = v * x + c
        return v
    return f


def test_brent_is_scipy_brentq_bit_for_bit(monkeypatch, exp_table):
    # the port must return scipy's own float (==, not approx) on every
    # bracket solve_malthusian hands it, over a grid of laws and nu, and on
    # generic cubics and quintics at three tolerances
    from scipy.optimize import brentq

    pairs = []
    real = ctbp._brent

    def both(f, a, b, xtol, rtol):
        pairs.append((real(f, a, b, xtol, rtol), brentq(f, a, b, xtol=xtol, rtol=rtol)))
        return pairs[-1][0]

    monkeypatch.setattr(ctbp, "_brent", both)
    laws = [weights.exponential(1.0), weights.exponential(0.3), weights.uniform(1.0),
            weights.shifted_exponential(2.0), weights.power_exponential(0.5),
            weights.power_exponential(2.0), exp_table]
    for d in laws:
        for nu in (1.01, 1.3, 2.0, 3.0, 4.7, 10.0, 99.0, 999.0):
            ctbp.solve_malthusian(nu, d)
    assert len(pairs) == 56
    rng = np.random.Generator(np.random.Philox(key=2024))
    for degree in (3, 5):
        for _ in range(100):
            f = horner(rng.standard_normal(degree + 1))
            if f(-3.0) * f(3.0) < 0.0:
                for xtol in (1e-12, 1e-8, 1e-4):
                    pairs.append((real(f, -3.0, 3.0, xtol, 8.881784197001252e-16),
                                  brentq(f, -3.0, 3.0, xtol=xtol)))
    assert len(pairs) > 400
    assert [got for got, _ in pairs] == [want for _, want in pairs]


def test_brent_failures_are_quadrature_errors(monkeypatch):
    # a NaN transform value and a root that 100 iterations cannot reach:
    # a step in nu LS at 1.5, asked for a bracket narrower than a float
    real = ctbp.laplace_stieltjes
    d = weights.exponential(1.0)
    monkeypatch.setattr(ctbp, "laplace_stieltjes",
                        lambda dist, s: math.nan if 1.0 < s < 2.0 else real(dist, s))
    with pytest.raises(ctbp.QuadratureError, match="NaN"):
        ctbp.solve_malthusian(2.5, d)
    monkeypatch.setattr(ctbp, "laplace_stieltjes", lambda dist, s: 0.5 if s < 1.5 else 0.3)
    monkeypatch.setattr(ctbp, "_ROOT_REL_WIDTH", 1e-300)
    with pytest.raises(ctbp.QuadratureError, match="100 iterations"):
        ctbp.solve_malthusian(3.0, d)


def test_brent_refuses_a_bracket_without_a_sign_change():
    # as scipy's brentq does: x^2 + 1 is positive at both ends of [0, 1]
    with pytest.raises(ctbp.QuadratureError, match=r"\[0.0, 1.0\]"):
        ctbp._brent(lambda x: x * x + 1.0, 0.0, 1.0, 1e-12, 1e-12)


# ---------------------------------------------------------------------------
# stable-age moments and the full constant set


def test_stable_age_exponential():
    # tilted lifetime law of exp(1) at alpha = nu - 1 has mean 1/nu and
    # variance 1/nu^2 (it is exp(nu))
    for nu in (2.0, 3.0, 5.0):
        c = ctbp.constants(nu + 1.0, nu, weights.exponential(1.0))
        assert c.nu_bar == pytest.approx(1.0 / nu, abs=1e-10)
        assert c.sigma_bar_sq == pytest.approx(1.0 / nu ** 2, abs=1e-10)


@pytest.mark.parametrize("nu", (2.1, 3.0, 4.7))
@pytest.mark.parametrize("name", sorted(GOLDEN_LAWS))
def test_centring_is_the_start_of_constants(name, nu):
    # trials centre by ctbp.centring at their own nu_n; the limit constants
    # must carry the same three floats
    law = weights.from_spec(*GOLDEN_LAWS[name])
    got = ctbp.centring(nu, law)
    full = ctbp.constants(4.0, nu, law)
    assert (got.alpha, got.nu_bar, got.gamma) == (full.alpha, full.nu_bar, full.gamma)


@pytest.mark.parametrize("rate", (1e-14, 1e-10, 1e-8, 1e-5, 1e5))
def test_exponential_rate_only_rescales_time(rate):
    # exp(rate) is exp(1) in time units of 1/rate: alpha scales by rate,
    # nu_bar by 1/rate and sigma_bar_sq by 1/rate^2, however slow the law,
    # and the identity residuals, relative to the value, stay at rounding
    one = ctbp.constants(4.0, 3.0, weights.exponential(1.0))
    c = ctbp.constants(4.0, 3.0, weights.exponential(rate))
    assert c.alpha / rate == pytest.approx(one.alpha, rel=1e-10)
    assert c.nu_bar * rate == pytest.approx(one.nu_bar, rel=1e-10)
    assert c.sigma_bar_sq * rate ** 2 == pytest.approx(one.sigma_bar_sq, rel=1e-10)
    assert dict(c.checks)["f_R0_identity"] < 1e-12
    assert dict(c.checks)["B_identity"] < 1e-12


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


@pytest.fixture(scope="module")
def exp_table(tmp_path_factory):
    """exp(1) as a 257-row table file, read back by load_table."""
    path = tmp_path_factory.mktemp("table") / "exp1.tsv"
    write_exp_table(path)
    return weights.load_table(path)


def test_constants_of_table_law(exp_table):
    # the table's density jumps at every row; the quadratures must break
    # there or they cannot certify their tolerance
    c = ctbp.constants(4.0, 3.0, exp_table)
    assert abs(c.alpha - 2.0) < 1e-4
    for name, value in c.checks:
        assert value < 1e-8, name


def test_table_law_without_its_rows_fails_the_certificate(exp_table, monkeypatch):
    # cells that straddle the table's density jumps cannot hold their sum when
    # halved; a fresh law object keeps the transform memo out of the way
    fresh = weights.from_spec(*exp_table.spec())
    monkeypatch.setattr(weights, "_kinks", lambda dist: np.empty(0))
    with pytest.raises(ctbp.QuadratureError):
        ctbp.laplace_stieltjes(fresh, 0.7)
    with pytest.raises(ctbp.QuadratureError):
        ctbp.constants(4.0, 3.0, fresh)


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


# Test-side reference for the residual law: plain adaptive quad on u = x + t^2
# (the substitution makes the square-root cusp of power s = 2 at 0 smooth),
# truncated at t^2 = 60/alpha, where the tilt has cut the integrand by e^-60.
# The density uses its definition integral e^{-alpha y} g(x+y) dy / D, not
# the (1 - G) - alpha K form that ctbp evaluates.

RESIDUAL_LAWS = (weights.exponential(1.0), weights.uniform(2.0),
                 weights.shifted_exponential(2.0), weights.power_exponential(0.5),
                 weights.power_exponential(1.3), weights.power_exponential(2.0))


def tilted_integral(fn, dist, alpha, x):
    """integral_0^inf e^{-alpha y} fn(x + y) dy, by quad on y = t^2, broken
    at the support edges and at every row of a table law."""
    t_hi = math.sqrt(60.0 / alpha)
    edges = [dist.support_lo, dist.support_hi]
    if dist.kind == "user_table":
        edges += list(dist.params[1])
    kinks = sorted({math.sqrt(e - x) for e in edges if x < e < x + t_hi * t_hi})
    val, _ = quad(lambda t: 2.0 * t * math.exp(-alpha * t * t) * fn(x + t * t),
                  0.0, t_hi, points=kinks or None, epsabs=1e-16, epsrel=1e-11, limit=500)
    return val


def reference_residual(dist, alpha, xs):
    """(cdf, density) of the residual law at each x >= 0."""
    def survival(u):
        return 1.0 - float(dist.cdf(u))

    def density(u):
        return float(dist.density(u))

    denom = tilted_integral(survival, dist, alpha, 0.0)
    cdf = np.array([1.0 - tilted_integral(survival, dist, alpha, x) / denom for x in xs])
    dens = np.array([tilted_integral(density, dist, alpha, x) / denom for x in xs])
    return cdf, dens


def assert_close(got, want, tol=1e-9):
    np.testing.assert_array_less(np.abs(got - want), tol * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("dist", RESIDUAL_LAWS, ids=lambda d: f"{d.kind}{d.params}")
def test_residual_matches_quadrature_reference(dist):
    for alpha in (0.4, 3.0):
        # the tilt's scale 1/alpha and the weight law's scale, in one array
        xs = np.concatenate([[0.0], np.array([0.05, 0.3, 1.0, 3.0, 10.0]) / alpha,
                             [0.7, 1.0, 1.6, 2.0, 2.5, 4.0]])
        r = ctbp.residual_density(dist, alpha)
        want_cdf, want_density = reference_residual(dist, alpha, xs)
        assert_close(r.cdf(xs), want_cdf)
        assert_close(r.density(xs), want_density)


def test_residual_of_table_law_matches_reference(exp_table):
    alpha = ctbp.solve_malthusian(3.0, exp_table)
    r = ctbp.residual_density(exp_table, alpha)
    # sparse points, most of them between table rows
    xs = np.array([0.0, 0.013, 0.2, 0.77, 1.3, 2.9, 6.1, 12.0, 19.5])
    want_cdf, want_density = reference_residual(exp_table, alpha, xs)
    assert_close(r.cdf(xs), want_cdf)
    assert_close(r.density(xs), want_density)


def test_residual_matches_reference_at_extreme_alpha():
    # alpha > 1e4 (steep power weights at large offspring means): the law
    # has mass on both the 1/alpha scale and the weight scale
    dist, alpha = weights.power_exponential(2.0), 5e4
    xs = np.array([0.0, 0.2, 1.0, 5.0, 30.0]) / alpha
    xs = np.concatenate([xs, [0.01, 0.1, 0.7, 2.5, 9.0]])
    r = ctbp.residual_density(dist, alpha)
    want_cdf, want_density = reference_residual(dist, alpha, xs)
    assert_close(r.cdf(xs), want_cdf)
    assert_close(r.density(xs), want_density)


@pytest.mark.parametrize("dist", (weights.uniform(2.0), weights.shifted_exponential(2.0),
                                  weights.power_exponential(2.0)),
                         ids=lambda d: d.kind)
def test_residual_array_matches_scalar_calls(dist):
    r = ctbp.residual_density(dist, 1.1)
    xs = np.array([2.5, -1.0, 0.3, 0.0, 2.5, 1.0, -0.2, 0.3, 7.0, 1.9, 0.0])
    cdf, dens = r.cdf(xs), r.density(xs)
    assert cdf.shape == dens.shape == xs.shape
    assert_close(cdf, np.array([r.cdf(float(x)) for x in xs]), tol=1e-12)
    assert_close(dens, np.array([r.density(float(x)) for x in xs]), tol=1e-12)
    assert np.all(cdf[xs <= 0] == 0.0) and np.all(dens[xs < 0] == 0.0)
    assert r.cdf(xs.reshape(1, 11, 1)).shape == (1, 11, 1)
    assert r.cdf(np.empty(0)).shape == r.density(np.empty(0)).shape == (0,)
    assert isinstance(r.cdf(0.3), float)


@pytest.mark.parametrize("dist", RESIDUAL_LAWS, ids=lambda d: f"{d.kind}{d.params}")
def test_residual_cdf_far_out_is_finite(dist):
    # e^{alpha x} at x = 1000/alpha overflows; the shifted evaluation must
    # not, and reads exactly 1 once the weight law's tail is below rounding
    alpha = ctbp.solve_malthusian(3.0, dist)
    r = ctbp.residual_density(dist, alpha)
    far = 1000.0 / alpha
    want_cdf, want_density = reference_residual(dist, alpha, [far])
    cdf = r.cdf(np.array([0.0, far]))
    assert cdf[0] == 0.0 and cdf[1] == r.cdf(far)
    assert abs(cdf[1] - want_cdf[0]) < 1e-12
    assert abs(r.density(far) - want_density[0]) < 1e-12
    if dist.cdf(far) == 1.0:
        assert r.cdf(far) == 1.0


@pytest.mark.parametrize("dist", (weights.exponential(1.0), weights.uniform(2.0),
                                  weights.power_exponential(1.3)),
                         ids=lambda d: d.kind)
def test_residual_sample_follows_cdf(dist):
    # the rejection sampler shares no code with the quadrature cdf; for
    # exp(1) the law is memoryless, so the test reads 1 - e^{-x} directly
    alpha = ctbp.solve_malthusian(3.0, dist)
    r = ctbp.residual_density(dist, alpha)
    x = r.sample(np.random.Generator(np.random.Philox(key=41)), 20_000)
    assert x.shape == (20_000,) and x.min() > 0.0
    cdf = (lambda q: 1.0 - np.exp(-q)) if dist.kind == "exponential" else r.cdf
    d, _ = ks_one_sample(x, cdf)
    assert d < 1.94947 / math.sqrt(x.size)      # the p = 0.001 critical value
    assert r.sample(np.random.Generator(np.random.Philox(key=41)), 0).shape == (0,)


def test_gauss_legendre_matches_leggauss():
    from numpy.polynomial.legendre import leggauss
    for m in (1, 2, 7, 20):
        nodes, wts = weights._gauss_legendre(m)
        want_nodes, want_wts = leggauss(m)
        np.testing.assert_allclose(nodes, want_nodes, rtol=0, atol=1e-14)
        np.testing.assert_allclose(wts, want_wts, rtol=0, atol=1e-14)


def test_residual_norm_check_sees_lost_cell_mass(monkeypatch):
    # the check compares K(0) summed over Gauss-Legendre cells with
    # (1 - LS(alpha))/alpha, LS memoised from the density; cells that lose
    # 1e-5 of their mass must raise
    dist = weights.exponential(1.0)
    assert ctbp.residual_density(dist, 2.0).norm_residual < 1e-12
    monkeypatch.setattr(weights, "_GL_W", weights._GL_W * (1.0 - 1e-5))
    with pytest.raises(ctbp.QuadratureError):
        ctbp.residual_density(dist, 2.0)


@pytest.mark.parametrize("pmf", [{1: math.nan, 2: 1.0}, {1: -0.5, 2: 1.5}, {1: 0.5, 2: 0.6}])
def test_offspring_pmf_must_be_a_probability_law(pmf):
    # NaN must fail too: draw() would return the first support point forever
    with pytest.raises(ctbp.CtbpError, match="offspring pmf"):
        ctbp.OffspringLaw.from_pmf(pmf)


# ---------------------------------------------------------------------------
# simulation: martingale mean, alive counts


def test_simulated_population_martingale_mean():
    # deterministic offspring (root 3, later 2) with exp(1) lifetimes:
    # e^(-t) E[Z_t] = 3 for every t, so the horizon estimate averages to 3
    root = ctbp.OffspringLaw(np.array([3]), np.array([1.0]))
    later = ctbp.OffspringLaw(np.array([2]), np.array([1.0]))
    d = weights.exponential(1.0)
    rng = np.random.Generator(np.random.Philox(key=42))
    west = [math.exp(-5.0) * ctbp.simulate_bp(root, later, d, 5.0, rng)
            for _ in range(3000)]
    assert not any(math.isnan(w) for w in west)
    assert abs(float(np.mean(west)) - 3.0) < 0.12


def test_alive_count():
    root = ctbp.OffspringLaw(np.array([3]), np.array([1.0]))
    later = ctbp.OffspringLaw(np.array([2]), np.array([1.0]))
    d = weights.exponential(1.0)
    # at horizon 0 the root has split and none of its children has died
    assert ctbp.simulate_bp(root, later, d, 0.0,
                            np.random.Generator(np.random.Philox(key=9))) == 3
    # two children each: the population cannot die out
    assert ctbp.simulate_bp(root, later, d, 4.0,
                            np.random.Generator(np.random.Philox(key=9))) > 0


def test_extinction_flag():
    # root produces nothing: immediate extinction
    root = ctbp.OffspringLaw(np.array([0]), np.array([1.0]))
    later = ctbp.OffspringLaw(np.array([2]), np.array([1.0]))
    assert ctbp.simulate_bp(root, later, weights.exponential(1.0), 2.0,
                            np.random.Generator(np.random.Philox(key=1))) == 0


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
    bp = ctbp.BpConfig(root_law=ctbp.OffspringLaw.from_pmf({3: 1.0}),
                       later_law=ctbp.OffspringLaw.from_pmf({2: 1.0}), dist=dist)
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


def test_pool_steps_of_the_gate_model():
    # rho = E[D'] LS(2 alpha) = 3 * 1/(1 + 4) = 0.6, and 0.6^24 < 1/200,000 < 0.6^23
    c, bp = four_regular()
    assert ctbp.pool_steps(c, bp) == 24


def near_critical(p3):
    """iid degrees {2: 1 - p3, 3: p3} with exp(1) weights: nu = 1 + 3 p3/(2 + p3)."""
    cfg = ExperimentConfig(degree_model=("iid", ((2, 1.0 - p3), (3, p3))))
    return constants_for_config(cfg), bp_config_for(cfg)


def test_sample_w_pool_second_moment_near_critical():
    # nu = 1.044, so the pool contracts by rho = 0.959 per step and needs 294
    # steps; E V^2 solves its own fixed-point equation exactly, and with
    # no degree below 2 no line dies out, so E W^2 is unconditioned
    c, bp = near_critical(0.03)
    a = ctbp.mean_growth_constant(c)
    ls2 = ctbp.laplace_stieltjes(bp.dist, 2.0 * c.alpha)

    def falling(law):
        return float((law.support * (law.support - 1) * law.probs).sum())

    ev2 = ls2 * falling(bp.later_law) * a * a / (1.0 - bp.later_law.mean * ls2)
    ew2 = bp.root_law.mean * ev2 + falling(bp.root_law) * a * a
    w2 = ctbp.sample_w_pool(c, bp, 20_000, np.random.Generator(np.random.Philox(key=5))) ** 2
    assert abs(w2.mean() - ew2) < 4.0 * w2.std() / math.sqrt(w2.size)


def test_sample_w_pool_refuses_a_near_critical_law():
    # nu = 1.0015 would need 8,160 steps: the pool refuses before taking one
    c, bp = near_critical(0.001)
    with pytest.raises(ctbp.NearCriticalError, match=r"nu=1\.0015.*rho=0\.99.*8160 steps"):
        ctbp.pool_steps(c, bp)
    with pytest.raises(ctbp.NearCriticalError):
        ctbp.sample_w_pool(c, bp, 10, np.random.Generator(np.random.Philox(key=1)))


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
    draws = ctbp.sample_ranked_gumbel(3, rng, 5000)
    assert draws.shape == (5000, 3)
    assert np.all(np.diff(draws, axis=1) > 0)
    # minus the first coordinate is a standard Gumbel variable
    first = -draws[:, 0]
    assert abs(float(first.mean()) - 0.5772156649) < 0.1


def test_ranked_gumbel_block_equals_row_draws():
    # one (size, m) block consumes the stream exactly as size row draws
    # would, so references built either way are bit-identical
    block = ctbp.sample_ranked_gumbel(4, np.random.Generator(np.random.Philox(key=5)), 300)
    rng = np.random.Generator(np.random.Philox(key=5))
    rows = np.array([np.log(np.cumsum(rng.standard_exponential(4))) for _ in range(300)])
    np.testing.assert_array_equal(block, rows)
