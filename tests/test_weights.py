"""Edge-weight distribution round trips and frozen values."""

import dataclasses
import hashlib
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fpplab import weights

from conftest import write_exp_table


KINDS = {
    "exponential": weights.exponential(1.0),
    "exponential_fast": weights.exponential(2.5),
    "shifted": weights.shifted_exponential(2.0),
    "power_flat": weights.power_exponential(0.5),
    "power_steep": weights.power_exponential(2.0),
    "uniform": weights.uniform(2.0),
}


def test_exponential_cdf_frozen():
    d = weights.exponential(1.0)
    # 1 - exp(-1), computed independently
    assert d.cdf(1.0) == pytest.approx(0.6321205588285577, abs=1e-15)
    assert d.cdf(0.0) == 0.0
    assert d.density(0.0) == pytest.approx(1.0)


def test_exponential_rate_scales_quantiles():
    slow = weights.exponential(1.0)
    fast = weights.exponential(4.0)
    for u in (0.1, 0.5, 0.9):
        assert fast.quantile(u) == pytest.approx(slow.quantile(u) / 4.0, rel=1e-12)


def test_shifted_exponential_support_starts_at_one():
    d = weights.shifted_exponential(2.0)
    assert d.support_lo == 1.0
    assert d.cdf(1.0) == 0.0
    assert d.cdf(0.5) == 0.0
    assert d.density(0.5) == 0.0
    # G(1 + x) = 1 - exp(-k x): at x = 0.5, k = 2 this is 1 - exp(-1)
    assert d.cdf(1.5) == pytest.approx(0.6321205588285577, abs=1e-15)
    assert d.quantile(0.6321205588285577) == pytest.approx(1.5, rel=1e-10)


def test_power_exponential_s_one_is_standard_exponential():
    p = weights.power_exponential(1.0)
    e = weights.exponential(1.0)
    for x in (0.1, 0.7, 2.3, 5.0):
        assert p.cdf(x) == pytest.approx(e.cdf(x), rel=1e-12)
        assert p.density(x) == pytest.approx(e.density(x), rel=1e-12)


def test_power_exponential_density_at_origin():
    # G(x) = 1 - exp(-x^(1/s)): the density at 0 vanishes for s < 1 and
    # blows up for s > 1; both ends must be represented honestly.
    assert weights.power_exponential(0.5).density(0.0) == 0.0
    assert weights.power_exponential(2.0).density(0.0) == math.inf


def test_uniform_quantile_is_linear():
    d = weights.uniform(2.0)
    for u in (0.0, 0.25, 0.5, 1.0):
        assert d.quantile(u) == pytest.approx(2.0 * u, abs=1e-15)
    assert d.density(1.0) == pytest.approx(0.5)
    assert d.density(2.5) == 0.0


@pytest.mark.parametrize("name", sorted(KINDS))
def test_quantile_cdf_round_trip(name):
    d = KINDS[name]
    for u in (0.001, 0.1, 0.5, 0.9, 0.999):
        x = d.quantile(u)
        assert d.cdf(x) == pytest.approx(u, abs=1e-9)


@given(u=st.floats(min_value=1e-6, max_value=1 - 1e-6))
def test_quantile_monotone_under_cdf(u):
    d = KINDS["power_steep"]
    x = d.quantile(u)
    assert d.cdf(x) == pytest.approx(u, abs=1e-8)


def test_from_spec_round_trip():
    for d in KINDS.values():
        kind, params = d.spec()
        again = weights.from_spec(kind, params)
        assert again.spec() == (kind, params)
        for u in (0.2, 0.8):
            assert again.quantile(u) == pytest.approx(d.quantile(u), rel=1e-12)


def test_from_spec_rejects_unknown_kind():
    with pytest.raises(weights.WeightModelError):
        weights.from_spec("cauchy", (1.0,))


def test_from_spec_rejects_bad_params():
    with pytest.raises(weights.WeightModelError):
        weights.exponential(-1.0)
    with pytest.raises(weights.WeightModelError):
        weights.uniform(0.0)
    with pytest.raises(weights.WeightModelError):
        weights.power_exponential(0.0)
    # quantiles of 0 and inf only: the round trip is NaN, which must fail
    with np.errstate(all="ignore"), \
            pytest.raises(weights.WeightModelError, match="deviates by nan"):
        weights.power_exponential(1e200)


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("kind", ["exponential", "shifted_exponential",
                                  "power_exponential", "uniform", "user_table"])
def test_from_spec_refuses_non_finite_params_by_name(kind, value):
    # inf once put every quantile on support_lo (an IndexError in _validate)
    # or left a density that integrates to 0 or nan
    params = ((0.0, 0.5, 1.0), (0.0, 1.0, value)) if kind == "user_table" else (value,)
    with pytest.raises(weights.WeightModelError, match=f"^{kind} .*finite"):
        weights.from_spec(kind, params)


@pytest.mark.parametrize("s", [0.05, 0.3, 1.0, 2.0, 5.0, 10.0, 20.0])
def test_power_laws_hold_their_mass(s):
    # the density check sums cells whose first one, 2^-50 of the mass, is
    # taken from G; power:20 puts that cell below 1e-300, where a density
    # cusp x^(1/20 - 1) lives
    d = weights.power_exponential(s)
    edges = weights._mass_edges(d)
    cells = weights._cells(lambda a, y: d.density(a + y), edges)
    cells[0] = d.cdf(edges[1])
    assert abs(cells.sum() - 1.0) < 1e-12


def test_mass_below_the_normal_floats_is_a_named_error():
    # power:30 holds 2^-50 of its mass below 1e-450, which float64 cannot
    # represent; that must be a WeightModelError, not an overflow
    with pytest.raises(weights.WeightModelError, match="smallest normal"):
        weights.power_exponential(30.0)


def test_density_off_by_a_tenth_of_a_percent_is_rejected():
    # the check must see a density that integrates to 1.001; the laws with
    # a cusp, a shifted support and a bounded support are each tried
    for d in (weights.exponential(1.0), weights.power_exponential(3.0),
              weights.shifted_exponential(2.0), weights.uniform(2.0)):
        scaled = dataclasses.replace(d, density=lambda x, d=d: 1.001 * d.density(x))
        with pytest.raises(weights.WeightModelError, match="integrates to 1.001"):
            weights._validate(scaled)


# ---------------------------------------------------------------------------
# moments


MOMENT_LAWS = {
    "exp_third": (weights.exponential(1.0 / 3.0), 3.0, 18.0),
    "exp_2": (weights.exponential(2.0), 0.5, 0.5),
    # W = 1 + E/3
    "shifted_3": (weights.shifted_exponential(3.0), 4.0 / 3.0, 1.0 + 2.0 / 3.0 + 2.0 / 9.0),
    "uniform_2": (weights.uniform(2.0), 1.0, 4.0 / 3.0),
    # W = E^s: E W^k = Gamma(1 + ks)
    **{f"power_{s}": (weights.power_exponential(s), math.gamma(1.0 + s),
                      math.gamma(1.0 + 2.0 * s)) for s in (0.5, 1.0, 2.0, 3.0, 4.0)},
}


@pytest.mark.parametrize("name", sorted(MOMENT_LAWS))
def test_moments_match_closed_forms(name):
    # power:3 and power:4 leave 4.5e-10 and 1.2e-8 of E W^2 past the
    # 1 - 2^-53 quantile where _mass_edges stops: the doubling cells past it
    # must carry that
    dist, m1, m2 = MOMENT_LAWS[name]
    assert weights.moments(dist) == pytest.approx((m1, m2), rel=1e-12, abs=0)


def test_moments_of_a_user_table_vs_mpmath():
    # E W^k = integral over u in (0, 1) of Q(u)^k, Q piecewise linear; the
    # table starts at 0.5, so the first cell's support_lo^k G-mass counts
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    p, q = (0.0, 0.3, 0.9, 0.99, 1.0), (0.5, 1.0, 4.0, 9.0, 30.0)
    dist = weights.user_table(p, q)

    def quantile(u):
        i = max(j for j in range(len(p) - 1) if p[j] <= u)
        return q[i] + (u - p[i]) * (q[i + 1] - q[i]) / (p[i + 1] - p[i])

    want = [float(mpmath.quad(lambda u: quantile(u) ** k, p)) for k in (1, 2)]
    assert weights.moments(dist) == pytest.approx(want, rel=1e-12, abs=0)


def test_moments_certification_is_a_named_error(monkeypatch):
    # a density ripple between the cell edges moves the sum on halved cells;
    # power:4's W^2 tail is not done one doubling past the quantile
    e = weights.exponential(1.0)
    rough = dataclasses.replace(
        e, density=lambda x: e.density(x) * (1.0 + 0.01 * np.cos(400.0 * np.asarray(x))))
    with pytest.raises(weights.QuadratureError, match="halving"):
        weights.moments(rough)
    monkeypatch.setattr(weights, "_DOUBLINGS", 1)
    with pytest.raises(weights.QuadratureError, match="does not fall off"):
        weights.moments(weights.power_exponential(4.0))


def test_mixed_poisson_pmf_certification_is_a_named_error():
    # a density that is NaN above 3 makes every P(D = k) NaN, which the
    # halving certificate must refuse by name
    e = weights.exponential(2.0)
    broken = dataclasses.replace(
        e, density=lambda x: np.where(np.asarray(x) > 3.0, np.nan, e.density(x)))
    with pytest.raises(weights.QuadratureError, match="mixed-Poisson pmf.*halving"):
        weights.mixed_poisson_pmf(broken)


def test_user_table_interpolates():
    # piecewise-linear quantile through (0,0) (0.4,1) (1,3)
    d = weights.user_table((0.0, 0.4, 1.0), (0.0, 1.0, 3.0))
    assert d.quantile(0.2) == pytest.approx(0.5)
    assert d.quantile(0.7) == pytest.approx(2.0)
    assert d.cdf(0.5) == pytest.approx(0.2)
    assert d.cdf(2.0) == pytest.approx(0.7)
    assert d.support_lo == 0.0
    assert d.support_hi == 3.0


def test_user_table_validation():
    with pytest.raises(weights.WeightModelError):
        weights.user_table((0.0, 0.5, 0.9), (0.0, 1.0, 2.0))   # levels stop short of 1
    with pytest.raises(weights.WeightModelError):
        weights.user_table((0.0, 0.6, 0.4, 1.0), (0.0, 1.0, 2.0, 3.0))
    with pytest.raises(weights.WeightModelError):
        weights.user_table((0.0, 0.5, 1.0), (0.0, 2.0, 1.0))   # values not sorted


def test_load_table_reads_a_two_column_file(tmp_path):
    d = weights.exponential(1.0)
    path = tmp_path / "table.tsv"
    write_exp_table(path, n_rows=513)
    back = weights.load_table(path)
    for u in (0.05, 0.3, 0.6, 0.95):
        assert back.quantile(u) == pytest.approx(d.quantile(u), rel=5e-3)


def test_sample_is_inverse_cdf_of_uniforms():
    # the sampling contract: one uniform per variate, transformed by the
    # quantile function, so draws are reproducible from the generator alone
    d = weights.exponential(1.0)
    got = weights.sample(d, np.random.Generator(np.random.Philox(key=99)), size=64)
    u = np.random.Generator(np.random.Philox(key=99)).random(64)
    want = np.array([d.quantile(v) for v in u])
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_sample_deterministic_and_positive():
    d = KINDS["power_flat"]
    a = weights.sample(d, np.random.Generator(np.random.Philox(key=7)), size=200)
    b = weights.sample(d, np.random.Generator(np.random.Philox(key=7)), size=200)
    np.testing.assert_array_equal(a, b)
    assert (a > 0).all()


def test_sample_mean_matches_exponential():
    d = weights.exponential(2.0)
    x = weights.sample(d, np.random.Generator(np.random.Philox(key=3)), size=20000)
    # mean 1/2, sd 1/2: 5 sigma of the sample mean is about 0.018
    assert abs(x.mean() - 0.5) < 0.018


# ---------------------------------------------------------------------------
# quadrature golden values: every float the cell engine returns, to the bit

GOLDEN_LAWS = {
    "exp1": ("exponential", (1.0,)),
    "shifted5": ("shifted_exponential", (5.0,)),
    "power0.5": ("power_exponential", (0.5,)),
    "power2": ("power_exponential", (2.0,)),
    "uniform2": ("uniform", (2.0,)),
    "table": ("user_table", ((0.0, 0.4, 0.9, 1.0), (0.1, 0.5, 1.0, 2.5))),
}


def quadrature_golden(spec) -> dict:
    """float.hex of moments and of constants(4, 3, law).report(), and the
    sha256 of the law's mixed-Poisson pmf as vertex weights (read through
    the references' own path, montecarlo._limit_pmf)."""
    from fpplab import ctbp, montecarlo as mc
    law = weights.from_spec(*spec)
    config = mc.ExperimentConfig(graph_kind="nr", vertex_weight_spec=spec)
    pmf = np.array(list(mc._limit_pmf(config).values()))
    return {
        "moments": [float.hex(v) for v in weights.moments(law)],
        "constants": {k: float.hex(v) for k, v in ctbp.constants(4, 3, law).report().items()},
        "pmf_sha256": hashlib.sha256(pmf.tobytes()).hexdigest(),
    }


@pytest.mark.parametrize("name", sorted(GOLDEN_LAWS))
def test_quadrature_matches_golden_bits(name):
    path = pathlib.Path(__file__).parent / "data" / "quadrature_golden.json"
    golden = json.loads(path.read_text(encoding="utf-8"))
    assert quadrature_golden(GOLDEN_LAWS[name]) == golden[name]
