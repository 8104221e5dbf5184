"""Continuous edge-weight distributions, the quadrature over them, and the
mixed-Poisson degree law they give rank-1 graphs as vertex weights.

Each distribution bundles its CDF, density, and quantile function as plain
callables that accept scalars or numpy arrays. Sampling is inverse-CDF
throughout: one uniform draw per sample, so a fixed random stream produces
the same number of draws no matter which distribution is in play.

Distributions must be continuous with support on [0, inf). Atoms are
rejected at construction time, as is any law whose density fails to
integrate to one.

Every integral over a law in the package is one cell sum (_sum): 20-point
Gauss-Legendre cells at the law's kinks and quantiles (_cells), the innermost
one at support_lo taken from its G-mass, certified by one halving check
(_certified). Its callers: _integral on _edges for ctbp's residual law (K,
D and B); and on _mass_edges the density check, moments and
mixed_poisson_pmf. ctbp's transforms and stable-age moments use the same
rule in node form (_nodes), on one node set per binade of the rate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "WeightDistribution",
    "WeightModelError",
    "QuadratureError",
    "exponential",
    "shifted_exponential",
    "power_exponential",
    "uniform",
    "user_table",
    "from_spec",
    "load_table",
    "moments",
    "mixed_poisson_pmf",
    "sample",
]


class WeightModelError(ValueError):
    """Invalid weight-distribution construction or evaluation."""


class QuadratureError(RuntimeError):
    """A quadrature or root solve could not certify its requested tolerance."""


def _scalar_ok(fn: Callable[[np.ndarray], np.ndarray]) -> Callable:
    """Wrap an array-only function so scalars in give scalars out."""

    def wrapped(x):
        arr = np.asarray(x, dtype=float)
        out = fn(arr)
        if arr.ndim == 0:
            return float(out)
        return out

    return wrapped


@dataclass(frozen=True)
class WeightDistribution:
    """A continuous weight law on [0, inf).

    cdf, density and quantile are vectorized callables. support_hi is the
    essential supremum of the law (inf for unbounded kinds); support_lo is
    the left edge of the support. params, together with kind, fully
    describe the law, so spec() is a cheap picklable handle.
    """

    kind: str
    params: tuple
    cdf: Callable
    density: Callable
    quantile: Callable
    support_lo: float
    support_hi: float

    def spec(self) -> tuple:
        """Picklable (kind, params) handle; rebuild with from_spec()."""
        return (self.kind, self.params)

    def __repr__(self) -> str:  # keep reprs short, the callables are noise
        inner = ",".join(repr(p) for p in self.params)
        return f"WeightDistribution({self.kind}:{inner})"


# ---------------------------------------------------------------------------
# quadrature: graded Gauss-Legendre cells


def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """m-point Gauss-Legendre nodes (ascending) and weights on [-1, 1], by
    Newton's method on the recurrence for P_m; unlike numpy's leggauss it
    needs no eigen-solve, so importing this module does not start LAPACK."""
    x = np.cos(np.pi * (np.arange(m, 0, -1) - 0.25) / (m + 0.5))
    for _ in range(8):
        p0, p1 = np.ones_like(x), x
        for k in range(2, m + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = m * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


# 20-point Gauss-Legendre nodes and weights on [0, 1]
_GL_S, _GL_W = _gauss_legendre(20)
_GL_S, _GL_W = 0.5 * (_GL_S + 1.0), 0.5 * _GL_W

# Steps of 1/rate cover the first 40/rate of a gap (e^{-40} of the decay is
# left past them); the cell from support_lo is halved 60 times toward it, and
# _sum takes the innermost one, home to any density cusp, from its G-mass.
# Quantile edges 1 - 2^-j resolve peaked laws (power:S, S <= 0.2) below
# 1/rate.
_STEPS = 40
_GRADE = 60
_LEVELS = 1.0 - 0.5 ** np.arange(1, 51)
# _mass_edges' quantiles: 2^-50 of the mass lies below, 2^-53 above
_MASS_LEVELS = np.concatenate([0.5 ** np.arange(50, 1, -1), 1.0 - 0.5 ** np.arange(1, 54)])


def _kinks(dist: WeightDistribution) -> np.ndarray:
    """Sorted points where G is not smooth: the finite support edges, and
    every row of a table law (its density jumps there)."""
    pts = [e for e in (dist.support_lo, dist.support_hi) if math.isfinite(e)]
    if dist.kind == "user_table":
        pts.extend(dist.params[1])
    return np.unique(pts)


def _edges(dist: WeightDistribution, rate: float, pts: np.ndarray) -> np.ndarray:
    """Cell edges from pts[0] to pts[-1]: the sorted points, the law's kinks
    between them, steps of 1/rate into each gap (at most _STEPS), the cell
    from support_lo graded toward it, and the _LEVELS quantiles."""
    kinks = _kinks(dist)
    edges = np.union1d(pts, kinks[(pts[0] < kinks) & (kinks < pts[-1])])
    extra = np.minimum(np.ceil(rate * np.diff(edges)) - 1.0, _STEPS).astype(int)
    edges = np.union1d(edges, _fill(edges, extra, lambda lo, r: lo + r / rate))
    lo = dist.support_lo
    i = np.searchsorted(edges, lo)
    if i + 1 < edges.size and edges[i] == lo:
        edges = np.union1d(edges, lo + (edges[i + 1] - lo) * 0.5 ** np.arange(1, _GRADE + 1))
    q = dist.quantile(_LEVELS)
    return np.union1d(edges, q[(pts[0] < q) & (q < pts[-1])])


def _fill(edges: np.ndarray, extra: np.ndarray, place) -> np.ndarray:
    """extra[i] points place(edges[i], r), r = 1..extra[i], inside gap i."""
    rank = np.arange(extra.sum()) - np.repeat(np.cumsum(extra) - extra, extra) + 1
    return place(np.repeat(edges[:-1], extra), rank)


@np.errstate(over="ignore")   # a quantile that overflows to inf is refused below
def _mass_edges(dist: WeightDistribution, pts=()) -> np.ndarray:
    """Cell edges from support_lo to the 1 - 2^-53 quantile, or to pts[-1] if
    further (not past support_hi): kinks, _MASS_LEVELS quantiles and pts, and
    geometric steps so no edge is over twice as far from support_lo as the
    one before. The first cell (2^-50 of the mass, any cusp) is for G."""
    lo = dist.support_lo
    top = min(dist.support_hi, np.max(pts, initial=float(dist.quantile(_MASS_LEVELS[-1]))))
    edges = np.union1d(np.union1d(_kinks(dist), dist.quantile(_MASS_LEVELS)), pts)
    edges = edges[(edges >= lo) & (edges <= top)]
    off = edges - lo   # off[0] = 0: the first cell is never split
    ratio = off[2:] / off[1:-1]
    if not np.isfinite(ratio).all():   # an inf edge that no geometric step reaches
        raise WeightModelError(f"{dist.kind}: its 1 - 2^-53 quantile {top:.3g} is not finite")
    extra = np.append(0, np.ceil(np.log2(ratio)) - 1.0).astype(int)
    return np.union1d(edges, lo + _fill(off, extra, lambda a, r: a * 2.0 ** r))


def _cells(fn, edges: np.ndarray) -> np.ndarray:
    """integral of fn over each cell [a, a+h] of edges, where fn(a, y) is the
    integrand at a + y for the cell's left edge a: 20-point Gauss-Legendre
    under y = h s^2, which smooths a square-root cusp at a. fn may return
    leading axes of its own, (..., cells, 20); the result is then (..., cells)."""
    a = edges[:-1, None]
    h = np.diff(edges)[:, None]
    return (2.0 * h * _GL_S * fn(a, h * _GL_S ** 2)) @ _GL_W


def _sum(fn, dist: WeightDistribution, edges: np.ndarray, w_lo) -> np.ndarray:
    """_cells of fn on edges, summed over the last axis. Given w_lo, the
    innermost graded cell [support_lo, b], home to any density cusp, is
    w_lo (G(b) - G(support_lo)) instead: for an integrand w(t) g(t) with
    w(support_lo) = w_lo that is off by < |w'| (b - support_lo) G(b)."""
    cells = _cells(fn, edges)
    lo = dist.support_lo
    i = np.searchsorted(edges, lo)
    if w_lo is not None and i + 1 < edges.size and edges[i] == lo:
        cells[..., i] = w_lo * (dist.cdf(edges[i + 1]) - dist.cdf(lo))
    return cells.sum(axis=-1)


def _nodes(dist: WeightDistribution, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_sum's rule on edges as nodes t and weights against the density, so
    that weights @ w(t) is _sum of w g with w_lo = w(support_lo): the
    20 nodes of each cell of _cells weighted by 2 h s w_GL g(t), the
    innermost graded cell as one node at support_lo weighted by its G-mass.
    Nodes of weight 0 (where g is) are dropped."""
    a = edges[:-1, None]
    h = np.diff(edges)[:, None]
    t = a + h * _GL_S ** 2
    w = 2.0 * h * _GL_S * _GL_W * dist.density(t)
    lo = dist.support_lo
    i = np.searchsorted(edges, lo)
    if i + 1 < edges.size and edges[i] == lo:
        t[i], w[i] = lo, 0.0
        w[i, 0] = dist.cdf(edges[i + 1]) - dist.cdf(lo)
    keep = w.ravel() != 0.0
    return t.ravel()[keep], w.ravel()[keep]


def _halved(edges: np.ndarray) -> np.ndarray:
    """edges with every cell split at its midpoint."""
    return np.union1d(edges, 0.5 * (edges[:-1] + edges[1:]))


def _certify(coarse, value, *, epsabs: float, epsrel: float, what: str):
    """value, unless some entry is more than max(epsabs, epsrel |value|) from
    coarse, its sum on cells twice as wide, or is NaN: QuadratureError."""
    moved = np.abs(value - coarse)
    # written so that a NaN sum fails too
    if not np.all(moved <= np.maximum(epsabs, epsrel * np.abs(value))):
        raise QuadratureError(f"{what}: halving the cells moved the sum by up to "
                              f"{np.max(moved):.3e} (requested abs {epsabs:.1e} "
                              f"/ rel {epsrel:.1e})")
    return value


def _certified(fn, dist: WeightDistribution, edges: np.ndarray, w_lo, *,
               epsabs: float, epsrel: float, what: str) -> np.ndarray:
    """_sum on edges with every cell halved, _certify'd against _sum on edges."""
    return _certify(_sum(fn, dist, edges, w_lo), _sum(fn, dist, _halved(edges), w_lo),
                    epsabs=epsabs, epsrel=epsrel, what=what)


def _decay_edges(dist: WeightDistribution, rate: float, start: float,
                 doublings: int) -> np.ndarray:
    """Cells for a decay e^{-rate v} from start, as offsets v: _edges to
    40/rate, then geometric cells out to 40 2^doublings / rate."""
    reach = start + _STEPS / rate * 2.0 ** np.arange(doublings + 1)
    return np.union1d(_edges(dist, rate, np.array([start, reach[-1]])), reach) - start


def _integral(fn, dist: WeightDistribution, rate: float, start: float = 0.0, *,
              epsabs: float, epsrel: float, what: str) -> float:
    """integral over v >= 0 of fn(v), the integrand at start + v (the offset
    keeps a decay e^{-rate v} far from the origin), on _edges to 40/rate and
    geometric cells to 640/rate, _certified."""
    edges = _decay_edges(dist, rate, start, 4)
    return float(_certified(lambda a, y: fn(a + y), dist, edges, None,
                            epsabs=epsabs, epsrel=epsrel, what=what))


# moments(): the W^2 mass of the first doubling cell left out, relative to the
# W^2 mass before it; at most _DOUBLINGS cells past the 1 - 2^-53 quantile; the
# halving tolerance, relative
_TAIL = 0.5 ** 53
_DOUBLINGS = 64
_MOMENT_TOL = 1e-13


def moments(dist: WeightDistribution) -> tuple[float, float]:
    """(E W, E W^2), summed on _mass_edges cells, the first one (2^-50 of the
    mass, any cusp) as support_lo^k times its G-mass.

    _mass_edges stops at the 1 - 2^-53 quantile, which leaves 1e-8 of E W^2
    of power:4 beyond it, so cells that double the distance from support_lo
    carry the edges on, up to the first one whose W^2 mass is below _TAIL of
    the mass before it. The sum is _certified to _MOMENT_TOL relative; a
    failure, or a tail still heavy after _DOUBLINGS cells, raises
    QuadratureError."""
    k = np.array([1.0, 2.0])
    lo = dist.support_lo

    def mass(a, y):   # (2, cells, 20): W and W^2 mass density
        return (a + y) ** k[:, None, None] * dist.density(a + y)

    edges = _mass_edges(dist)
    with np.errstate(all="ignore"):   # far doubling cells may overflow to NaN
        if edges[-1] < dist.support_hi:
            far = lo + (edges[-1] - lo) * 2.0 ** np.arange(_DOUBLINGS + 1)
            tail = _cells(mass, far)[1]
            before = _sum(mass, dist, edges, lo ** k)[1] + np.cumsum(tail) - tail
            small = tail <= _TAIL * before   # NaN is never small
            if not small.any():
                raise QuadratureError(f"moments of {dist!r}: the W^2 mass of {_DOUBLINGS} "
                                      "cells doubling past the 1 - 2^-53 quantile does not "
                                      "fall off")
            edges = np.append(edges, far[1:int(np.argmax(small)) + 1])
        value = _certified(mass, dist, edges, lo ** k, epsabs=0.0, epsrel=_MOMENT_TOL,
                           what=f"moments (E W, E W^2) of {dist!r}")
    return float(value[0]), float(value[1])


_PMF_ROWS = 32  # values of k summed in one pass, which bounds its temporaries
# power:3 vertex weights need 52,000 rows and take 27 s; the limit constants
# take two moments instead, so this bounds only bp_config_for's references
# (fpplab run, bp-sim) and gate 8
_PMF_MAX_K = 100_000


def mixed_poisson_pmf(dist: WeightDistribution) -> np.ndarray:
    """Limiting degree law of rank-1 graphs with vertex weights W ~ dist,
    P(D = k) = E[e^{-W} W^k / k!], up to the first k whose remaining mass is
    below 1e-15, renormalised. Read by montecarlo.bp_config_for (the
    references' offspring draws) and gate 8; the limit constants need only
    moments.

    k runs to hi + 10 sqrt(hi) + 40, hi the 1 - 2^-53 quantile of W (at most
    _PMF_MAX_K, else WeightModelError). Each k is a row of the log-space
    Poisson kernel (p_{k-1} w/k underflows through e^{-w} for w > 745) on one
    layout, _mass_edges plus edges (j/2)^2 at the kernel's width, _certified
    per block of _PMF_ROWS rows to 1e-15 absolute or 1e-10 relative."""
    from scipy.special import gammaln, xlogy
    hi = _mass_edges(dist)[-1]
    if not hi + 10.0 * math.sqrt(hi) + 40.0 <= _PMF_MAX_K:
        raise WeightModelError(f"{dist!r} vertex weights put degree mass out to k = "
                               f"{hi:.3g}; the mixed-Poisson law is summed to k = "
                               f"{_PMF_MAX_K} at most")
    k = np.arange(int(hi + 10.0 * math.sqrt(hi)) + 41)
    lgk = gammaln(k + 1.0)
    edges = _mass_edges(dist, (np.arange(1.0, 2.0 * math.sqrt(k[-1]) + 2.0) / 2.0) ** 2)
    pmf = np.empty(k.size)
    for r in range(0, k.size, _PMF_ROWS):
        rows = slice(r, r + _PMF_ROWS)

        def kernel(a, y):
            t = a + y
            with np.errstate(divide="ignore"):
                x = np.multiply.outer(k[rows], np.log(t)) + (np.log(dist.density(t)) - t)
            return np.exp(x - lgk[rows, None, None])

        w_lo = np.exp(xlogy(k[rows], dist.support_lo) - dist.support_lo - lgk[rows])
        pmf[rows] = _certified(kernel, dist, edges, w_lo, epsabs=1e-15, epsrel=1e-10,
                               what=f"mixed-Poisson pmf of {dist!r}")
    remaining = np.cumsum(pmf[::-1])[::-1] - pmf
    pmf = pmf[:int(np.argmax(remaining < 1e-15)) + 1]
    return pmf / pmf.sum()


# ---------------------------------------------------------------------------
# validation

_DENSITY_INTEGRAL_TOL = 1e-8
_ROUND_TRIP_TOL = 1e-9


def _validate(dist: WeightDistribution) -> WeightDistribution:
    # The density must integrate to 1 on _mass_edges cells, the first one
    # (2^-50 of the mass, any cusp) from G; NaN fails too, as under -O.
    edges = _mass_edges(dist)
    width = edges[1] - edges[0] if edges.size > 1 else 0.0
    if not width >= np.finfo(float).tiny:
        raise WeightModelError(
            f"{dist.kind}: {_MASS_LEVELS[0]:.3g} of the mass lies within "
            f"{width:.3g} of the support's left edge, below the "
            "smallest normal float64; the density's mass cannot be summed")
    total = float(_sum(lambda a, y: dist.density(a + y), dist, edges, 1.0))
    if not abs(total - 1.0) <= _DENSITY_INTEGRAL_TOL:
        raise WeightModelError(
            f"{dist.kind}: density integrates to {total!r}, not 1 "
            f"(tolerance {_DENSITY_INTEGRAL_TOL})"
        )

    # quantile must invert the cdf on the interior of the support
    grid = np.linspace(1e-6, 1.0 - 1e-6, 101)
    x = dist.quantile(grid)
    back = dist.quantile(dist.cdf(x))
    scale = np.maximum(np.abs(x), 1.0)
    worst = float(np.max(np.abs(back - x) / scale))
    if not worst <= _ROUND_TRIP_TOL:   # NaN fails too
        raise WeightModelError(
            f"{dist.kind}: quantile(cdf(x)) deviates by {worst:.3e} "
            f"(tolerance {_ROUND_TRIP_TOL})"
        )
    return dist


# ---------------------------------------------------------------------------
# built-in kinds


def _positive(what: str, x) -> float:
    """float(x), refused unless 0 < x < inf (NaN included)."""
    if not 0 < x < math.inf:
        raise WeightModelError(f"{what} must be positive and finite, got {x}")
    return float(x)


def _law(kind: str, params: tuple, cdf, density, quantile, lo: float,
         hi: float) -> WeightDistribution:
    """The _validated law of kind on [lo, hi], its callables _scalar_ok."""
    return _validate(WeightDistribution(kind, params, _scalar_ok(cdf), _scalar_ok(density),
                                        _scalar_ok(quantile), support_lo=lo, support_hi=hi))


def exponential(rate: float = 1.0) -> WeightDistribution:
    """Exponential law with the given rate; mean 1/rate."""
    r = _positive("exponential rate", rate)

    def cdf(x):
        return np.where(x <= 0, 0.0, -np.expm1(-r * np.maximum(x, 0.0)))

    def density(x):
        return np.where(x < 0, 0.0, r * np.exp(-r * np.maximum(x, 0.0)))

    def quantile(u):
        return -np.log1p(-np.asarray(u, dtype=float)) / r

    return _law("exponential", (r,), cdf, density, quantile, 0.0, np.inf)


def shifted_exponential(k: float) -> WeightDistribution:
    """1 + E/k with E standard exponential: support [1, inf).

    Large k concentrates the law near 1, which is the deterministic-weight
    limit; the growth-rate solver is exercised against that limit in tests.
    """
    kk = _positive("shifted_exponential k", k)

    def cdf(x):
        z = np.maximum(np.asarray(x, dtype=float) - 1.0, 0.0)
        return -np.expm1(-kk * z)

    def density(x):
        arr = np.asarray(x, dtype=float)
        return np.where(arr < 1.0, 0.0, kk * np.exp(-kk * np.maximum(arr - 1.0, 0.0)))

    def quantile(u):
        return 1.0 - np.log1p(-np.asarray(u, dtype=float)) / kk

    return _law("shifted_exponential", (kk,), cdf, density, quantile, 1.0, np.inf)


def power_exponential(s: float) -> WeightDistribution:
    """Law of E^s for E standard exponential: cdf 1 - exp(-x^(1/s)).

    For s > 1 the density diverges at the origin (integrably); density(0)
    returns inf there as a sentinel. s < 1 squeezes the law toward small
    weights and pushes the growth rate very high at large offspring means.
    """
    ss = _positive("power_exponential s", s)
    p = 1.0 / ss
    if ss > 1.0:
        at_zero = np.inf
    elif ss == 1.0:
        at_zero = 1.0
    else:
        at_zero = 0.0

    def cdf(x):
        arr = np.maximum(np.asarray(x, dtype=float), 0.0)
        return -np.expm1(-np.power(arr, p))

    def density(x):
        arr = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            core = p * np.power(arr, p - 1.0) * np.exp(-np.power(np.maximum(arr, 0.0), p))
        return np.where(arr < 0, 0.0, np.where(arr == 0.0, at_zero, core))

    def quantile(u):
        return np.power(-np.log1p(-np.asarray(u, dtype=float)), ss)

    return _law("power_exponential", (ss,), cdf, density, quantile, 0.0, np.inf)


def uniform(b: float) -> WeightDistribution:
    """Uniform law on (0, b)."""
    bb = _positive("uniform upper endpoint", b)

    def cdf(x):
        return np.clip(np.asarray(x, dtype=float) / bb, 0.0, 1.0)

    def density(x):
        arr = np.asarray(x, dtype=float)
        return np.where((arr >= 0) & (arr <= bb), 1.0 / bb, 0.0)

    def quantile(u):
        return np.asarray(u, dtype=float) * bb

    return _law("uniform", (bb,), cdf, density, quantile, 0.0, bb)


def user_table(levels, quantiles) -> WeightDistribution:
    """Piecewise-linear quantile function from a (probability, quantile) table.

    levels must start at 0.0, end at 1.0, and be strictly increasing;
    quantiles must be nonnegative and strictly increasing (strictness in
    both columns is what rules out atoms and flat spots). The implied cdf
    is the piecewise-linear inverse and the density is piecewise constant.
    """
    p = np.asarray(levels, dtype=float)
    q = np.asarray(quantiles, dtype=float)
    if p.ndim != 1 or q.ndim != 1 or p.size != q.size or p.size < 2:
        raise WeightModelError("user_table needs two equal-length columns, >= 2 rows")
    if not (np.isfinite(p).all() and np.isfinite(q).all()):
        raise WeightModelError("user_table entries must be finite")
    if p[0] != 0.0 or p[-1] != 1.0:
        raise WeightModelError("user_table probability column must run 0.0 .. 1.0")
    if np.any(np.diff(p) <= 0):
        raise WeightModelError("user_table probability column must be strictly increasing")
    if np.any(np.diff(q) <= 0):
        raise WeightModelError(
            "user_table quantile column must be strictly increasing (atoms not allowed)"
        )
    if q[0] < 0:
        raise WeightModelError("user_table quantiles must be nonnegative")
    slopes = np.diff(p) / np.diff(q)  # density value on each segment

    def cdf(x):
        return np.interp(np.asarray(x, dtype=float), q, p, left=0.0, right=1.0)

    def density(x):
        arr = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(q, arr, side="right") - 1, 0, slopes.size - 1)
        inside = (arr >= q[0]) & (arr <= q[-1])
        return np.where(inside, slopes[idx], 0.0)

    def quantile(u):
        return np.interp(np.asarray(u, dtype=float), p, q)

    return _law("user_table", (tuple(p.tolist()), tuple(q.tolist())), cdf, density,
                quantile, float(q[0]), float(q[-1]))


_FACTORIES = {
    "exponential": exponential,
    "shifted_exponential": shifted_exponential,
    "power_exponential": power_exponential,
    "uniform": uniform,
}


def from_spec(kind: str, params) -> WeightDistribution:
    """Rebuild a distribution from a (kind, params) handle."""
    if kind == "user_table":
        levels, quants = params
        return user_table(levels, quants)
    try:
        factory = _FACTORIES[kind]
    except KeyError:
        raise WeightModelError(f"unknown weight kind {kind!r}") from None
    return factory(*params)


# ---------------------------------------------------------------------------
# io


def load_table(path) -> WeightDistribution:
    """Read a two-column (probability, quantile) text table."""
    try:
        rows = np.loadtxt(path, dtype=float, ndmin=2)
    except (OSError, ValueError) as exc:
        raise WeightModelError(f"{path}: {exc}") from exc
    if rows.shape[1] != 2:
        raise WeightModelError(f"{path}: expected two columns, got {rows.shape[1]}")
    return user_table(rows[:, 0], rows[:, 1])


# ---------------------------------------------------------------------------
# operations


def sample(dist: WeightDistribution, rng: np.random.Generator, size=None):
    """Inverse-CDF sampling: exactly one uniform consumed per variate."""
    return dist.quantile(rng.random(size))
