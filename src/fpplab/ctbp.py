"""Constants and simulation for the two-stage age-dependent branching process.

The process: a root dies at time zero leaving a root-law number of children;
every later individual lives an i.i.d. lifetime drawn from the edge-weight
law G and leaves an i.i.d. later-law number of children at death. With
offspring mean nu > 1 the population grows like e^{alpha t}, where the
growth rate alpha solves

    nu * LS(alpha) = 1,        LS(s) = integral e^{-s t} dG(t).

All limit constants used downstream derive from alpha and the first two
moments of the stable-age measure nu * t e^{-alpha t} dG(t):

    nu_bar        = nu * integral t   e^{-alpha t} dG(t)
    sigma_bar_sq  = nu * integral t^2 e^{-alpha t} dG(t) - nu_bar^2
    gamma = 1/(alpha nu_bar),   beta = sigma_bar_sq/(nu_bar^3 alpha)
    c     = log( mu (nu-1)^2 / (nu alpha nu_bar) )

plus the residual-lifetime law of an alive individual in the exponentially
tilted population. With K(x) = integral e^{-alpha y} (1 - G(x+y)) dy over
y >= 0 and D = K(0) = (nu-1)/(alpha nu), Fubini gives

    F_R(x) = 1 - K(x)/D,        f_R(x) = ((1 - G(x)) - alpha K(x))/D,

so f_R(0) = alpha/(nu-1), and the damped mass B = integral F_R(z) e^{-alpha z}
dz equals nu_bar/(nu-1). The residuals of both identities are embedded in
the returned record as a self-check.

Everything here is quadrature plus a bracketed Brent root solve; no closed
forms are wired in, so the closed-form test cases genuinely cross-check the
numerics. LS is memoised per (law, s), so growth-rate solves on one law share
their bracket points. The growth limit W is drawn by simulation to a horizon
(sample_w) or from its fixed point by population dynamics (sample_w_pool).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .weights import WeightDistribution, sample as sample_weight

__all__ = [
    "CtbpError",
    "SubcriticalError",
    "QuadratureError",
    "CtbpConstants",
    "Centring",
    "ResidualLife",
    "OffspringLaw",
    "BpConfig",
    "BpTrajectory",
    "laplace_stieltjes",
    "solve_malthusian",
    "stable_age_mean",
    "stable_age_moments",
    "residual_density",
    "constants",
    "mean_growth_constant",
    "default_w_horizon",
    "simulate_bp",
    "sample_w",
    "sample_w_pool",
    "q_formula",
    "standard_gumbel",
    "sample_ranked_gumbel",
]


class CtbpError(ValueError):
    """Inconsistent branching-process inputs."""


class SubcriticalError(CtbpError):
    """Offspring mean nu <= 1: no exponential growth, no limit constants."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


# ---------------------------------------------------------------------------
# quadrature plumbing

_TAIL_TINY = 1e-15


def _tail_cut(dist: WeightDistribution, s: float, tiny: float = _TAIL_TINY) -> float:
    """Smallest T (by doubling) with e^{-sT} (1-G(T)) below tiny.

    Beyond T the transform integrand is bounded by tiny, so truncating
    there costs less than tiny * T_extra, far under every tolerance used.
    Bounded supports cap T at the essential sup.
    """
    hi = dist.support_hi
    t = max(1.0 / s, 1e-12)
    if math.isfinite(hi):
        t = min(t, hi)
    for _ in range(300):
        if math.exp(-s * t) * (1.0 - dist.cdf(t)) <= tiny:
            return t
        t = min(t * 2.0, hi) if math.isfinite(hi) else t * 2.0
    raise QuadratureError(f"tail cut did not converge (s={s}, kind={dist.kind})")


def _kinks(dist: WeightDistribution) -> np.ndarray:
    """Sorted points where G is not smooth: the finite support edges, and
    every row of a table law (its density jumps there)."""
    pts = [e for e in (dist.support_lo, dist.support_hi) if math.isfinite(e)]
    if dist.kind == "user_table":
        pts.extend(dist.params[1])
    return np.unique(pts)


def _break_points(dist: WeightDistribution, s: float, T: float) -> list[float]:
    """Panel boundaries: the 1/s boundary layer, distribution quantiles and
    the law's kinks."""
    pts = set(_kinks(dist).tolist())
    scale = 1.0 / s
    for j in range(-6, 8):
        pts.add(scale * 2.0 ** j)
    for q in (0.05, 0.25, 0.5, 0.75, 0.95):
        pts.add(float(dist.quantile(q)))
    return sorted(p for p in pts if 0.0 < p < T)


def _quad_checked(fn, lo, hi, points, epsabs, epsrel, what):
    # QUADPACK needs more subintervals than break points (a table law has one
    # per row)
    out = quad(fn, lo, hi, points=points or None, epsabs=epsabs, epsrel=epsrel,
               limit=max(500, 2 * len(points)), full_output=True)
    val, err = out[0], out[1]
    if err <= max(epsabs, abs(val) * max(epsrel, 1e-13)) * 10:
        return val, err
    return None, err


def _transform_integral(dist, fn, s, *, epsabs, epsrel, what):
    """integral fn(t) g(t) dt with the tail beyond the e^{-st} cut dropped.

    Primary route is t-space adaptive quadrature. If scipy cannot certify
    the tolerance (power-law densities at extreme s, say) the same integral
    is recomputed in quantile space, where the integrand is bounded:
    integral fn(Q(p)) dp over p in (0, G(T)).
    """
    T = _tail_cut(dist, s, tiny=1e-18)
    pts = _break_points(dist, s, T)
    val, err = _quad_checked(lambda t: fn(t) * dist.density(t), 0.0, T, pts,
                             epsabs, epsrel, what)
    if val is not None:
        return val
    p_hi = float(dist.cdf(T))
    p_pts = sorted({float(dist.cdf(p)) for p in pts if 0 < dist.cdf(p) < p_hi})
    val, err2 = _quad_checked(lambda p: fn(float(dist.quantile(p))), 0.0, p_hi,
                              p_pts, epsabs, epsrel, what)
    if val is not None:
        return val
    raise QuadratureError(f"{what}: achieved tolerance {min(err, err2):.3e} "
                          f"(requested abs {epsabs:.1e} / rel {epsrel:.1e})")


def _damped_integral(fn, rate, *, epsabs=1e-15, epsrel=1e-11, tiny=1e-18,
                     points=(), what="damped"):
    """integral fn(y) dy over [0, inf) for |fn(y)| <= e^{-rate*y}.

    Any jump or kink of fn must be listed in points, or QUADPACK's error
    estimate can certify a value that quietly integrates across it.
    """
    y_hi = -math.log(tiny) / rate
    pts = {y_hi * 2.0 ** (-j) for j in range(1, 22)}
    pts.update(p for p in points if 0.0 < p < y_hi)
    val, err = _quad_checked(fn, 0.0, y_hi, sorted(pts), epsabs, epsrel, what)
    if val is None:
        raise QuadratureError(f"{what}: achieved tolerance {err:.3e}")
    return val


# ---------------------------------------------------------------------------
# transforms and constants


@lru_cache(maxsize=4096)
def laplace_stieltjes(dist: WeightDistribution, s: float) -> float:
    """integral e^{-s t} dG(t), to 1e-12 absolute tolerance (memoised)."""
    if s < 0:
        raise CtbpError(f"transform argument must be >= 0, got {s}")
    if s == 0.0:
        return 1.0
    return _transform_integral(dist, lambda t: math.exp(-s * t), s,
                               epsabs=1e-13, epsrel=1e-12, what="laplace_stieltjes")


def solve_malthusian(nu: float, dist: WeightDistribution, *,
                     rel_width: float = 1e-12, residual_tol: float = 1e-10) -> float:
    """Growth rate alpha with nu * LS(alpha) = 1.

    nu * LS(s) decreases from nu (> 1 required) toward 0, so the root is
    bracketed by doubling and then located by Brent's method to the
    requested relative width. The returned root must satisfy
    |nu*LS(alpha) - 1| < residual_tol.
    """
    if not nu > 1.0:
        raise SubcriticalError(
            f"offspring mean nu={nu!r} is not supercritical (need nu > 1); "
            "the exploration growth rate is undefined"
        )

    def excess(s: float) -> float:
        return nu * laplace_stieltjes(dist, s) - 1.0

    lo, hi = 0.0, 1.0
    for _ in range(200):
        if excess(hi) < 0.0:
            break
        lo, hi = hi, hi * 2.0
    else:
        raise QuadratureError("could not bracket the growth rate by doubling")

    alpha = brentq(excess, lo, hi, xtol=rel_width * hi, rtol=rel_width)
    resid = abs(nu * laplace_stieltjes(dist, alpha) - 1.0)
    if resid > residual_tol:
        raise QuadratureError(f"growth-rate residual {resid:.3e} exceeds {residual_tol:.1e}")
    return alpha


def stable_age_mean(nu: float, alpha: float, dist: WeightDistribution) -> float:
    """nu_bar = nu * integral t e^{-alpha t} dG(t): the stable-age mean alone."""
    return nu * _transform_integral(dist, lambda t: t * math.exp(-alpha * t), alpha,
                                    epsabs=5e-12, epsrel=5e-12, what="stable-age mean")


def stable_age_moments(nu: float, alpha: float, dist: WeightDistribution
                       ) -> tuple[float, float]:
    """(nu_bar, sigma_bar_sq): mean and variance of the stable-age measure.

    Precondition: (nu, alpha, dist) are consistent, i.e. nu*LS(alpha) ~ 1.
    """
    resid = abs(nu * laplace_stieltjes(dist, alpha) - 1.0)
    if resid > 1e-8:
        raise CtbpError(f"(nu, alpha) inconsistent with the weight law: "
                        f"|nu*LS(alpha)-1| = {resid:.3e}")
    nu_bar = stable_age_mean(nu, alpha, dist)
    m2 = _transform_integral(dist, lambda t: t * t * math.exp(-alpha * t), alpha,
                             epsabs=5e-12, epsrel=5e-12, what="stable-age second moment")
    sigma_sq = nu * m2 - nu_bar * nu_bar
    if sigma_sq <= 0:
        raise CtbpError(f"stable-age variance came out nonpositive ({sigma_sq!r})")
    return nu_bar, sigma_sq


def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """m-point Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on the three-term recurrence for P_m, from the usual
    cosine guesses; unlike numpy's leggauss it needs no eigen-solve, so
    importing this module does not start LAPACK.
    """
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


def _tail_beyond(dist: WeightDistribution, alpha: float, x0: float) -> float:
    """K(x0) = integral e^{-alpha y}(1 - G(x0+y)) dy over y >= 0, adaptively."""
    return _damped_integral(
        lambda y: math.exp(-alpha * y) * (1.0 - float(dist.cdf(x0 + y))),
        alpha, points=_kinks(dist) - x0, what="residual tail mass")


@dataclass(frozen=True)
class ResidualLife:
    """Residual lifetime of an alive individual under exponential tilting:
    density and cdf take scalars or arrays (zero below 0); denom is D = K(0)."""

    alpha: float
    denom: float
    _dist: WeightDistribution
    norm_residual: float

    def density(self, x):
        x = np.asarray(x, dtype=float)
        tail = 1.0 - self._dist.cdf(np.maximum(x, 0.0))
        f = np.where(x < 0, 0.0, (tail - self.alpha * self._tail_mass(x)) / self.denom)
        return float(f) if f.ndim == 0 else f

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        f = np.where(x > 0, 1.0 - self._tail_mass(x) / self.denom, 0.0)
        return float(f) if f.ndim == 0 else f

    def _tail_mass(self, x: np.ndarray) -> np.ndarray:
        """K at every point of x (negative points read as 0), in one pass.

        Nodes are the distinct points, the law's kinks between them, and
        steps of 1/alpha into each gap (40 at most: past them the decay
        e^{-40} lets one cell finish the gap). Each cell [u, u+h] is
        integrated by Gauss-Legendre under y = h s^2, which smooths a
        square-root cusp of 1 - G at u; then K(u) = cell + e^{-alpha h}
        K(u+h) is solved for all nodes by a doubling scan, all factors <= 1.
        """
        if x.size == 0:
            return np.zeros(x.shape)
        a, dist = self.alpha, self._dist
        pts, inverse = np.unique(np.maximum(x, 0.0), return_inverse=True)
        kinks = _kinks(dist)
        nodes = np.union1d(pts, kinks[(pts[0] < kinks) & (kinks < pts[-1])])
        extra = np.minimum(np.ceil(a * np.diff(nodes)) - 1.0, 40).astype(int)
        # rank runs 1..extra[i] within gap i
        rank = np.arange(extra.sum()) - np.repeat(np.cumsum(extra) - extra, extra) + 1
        nodes = np.union1d(nodes, np.repeat(nodes[:-1], extra) + rank / a)
        h = np.diff(nodes)[:, None]
        y = h * _GL_S ** 2
        cells = (2.0 * h * _GL_S * np.exp(-a * y)
                 * (1.0 - dist.cdf(nodes[:-1, None] + y))) @ _GL_W
        mass = np.append(cells, _tail_beyond(dist, a, nodes[-1]))
        decay = np.append(np.exp(-a * h[:, 0]), 0.0)
        shift = 1
        while shift < mass.size:
            mass[:-shift] += decay[:-shift] * mass[shift:]
            decay[:-shift] *= decay[shift:]
            shift *= 2
        return mass[np.searchsorted(nodes, pts)][inverse].reshape(x.shape)


def residual_density(dist: WeightDistribution, alpha: float) -> ResidualLife:
    """Residual-life law at growth rate alpha. Checks that K(0) from cells
    on [0, 45/alpha] (where the tilt puts the mass) plus the tail beyond
    matches the adaptive D to 1e-6 relative."""
    if not alpha > 0:
        raise CtbpError(f"alpha must be positive, got {alpha}")
    res = ResidualLife(alpha=alpha, denom=_tail_beyond(dist, alpha, 0.0),
                       _dist=dist, norm_residual=0.0)
    norm_resid = abs(res._tail_mass(np.arange(46.0) / alpha)[0] / res.denom - 1.0)
    if norm_resid > 1e-6:
        raise QuadratureError(f"residual tail mass from cells is off the adaptive "
                              f"denominator by {norm_resid:.3e}, more than 1e-6")
    object.__setattr__(res, "norm_residual", norm_resid)
    return res


@dataclass(frozen=True)
class Centring:
    """alpha, nu_bar and gamma = 1/(alpha nu_bar): the centring constants."""

    alpha: float
    nu_bar: float
    gamma: float


@dataclass(frozen=True)
class CtbpConstants(Centring):
    """Every limit constant the experiments need, plus self-check residuals.

    f_R0 and B come from quadratures; checks records how far they sit
    from their closed identities alpha/(nu-1) and nu_bar/(nu-1), along with
    the growth-rate residual and the residual-cdf normalization defect.
    """

    mu: float
    nu: float
    sigma_bar_sq: float
    beta: float
    f_R0: float
    B: float
    c: float
    checks: tuple = ()

    def report(self) -> dict[str, float]:
        """Flat key/value dump (the CLI table and JSON export read this)."""
        out = {
            "mu": self.mu, "nu": self.nu, "alpha": self.alpha,
            "nu_bar": self.nu_bar, "sigma_bar_sq": self.sigma_bar_sq,
            "gamma": self.gamma, "beta": self.beta,
            "f_R0": self.f_R0, "B": self.B, "c": self.c,
        }
        for name, value in self.checks:
            out[f"residual_{name}"] = value
        return out


def constants(mu: float, nu: float, dist: WeightDistribution) -> CtbpConstants:
    """Solve for the growth rate and assemble all limit constants.

    mu is the plain mean degree (the root generation's mean offspring); nu
    is the size-biased mean offspring driving the growth.
    """
    if not mu > 0:
        raise CtbpError(f"mean degree mu must be positive, got {mu}")
    alpha = solve_malthusian(nu, dist)
    nu_bar, sigma_sq = stable_age_moments(nu, alpha, dist)
    res = residual_density(dist, alpha)
    f0 = (1.0 - alpha * res.denom) / res.denom
    # B = int F_R(z) e^{-az} dz; pushing the residual cdf's own integral
    # through by Fubini collapses the double integral to a single damped
    # quadrature of (u - 1/a) e^{-au} G(u), which is both faster and free of
    # nested-quad error stacking
    b_val = _damped_integral(
        lambda u: (u - 1.0 / alpha) * math.exp(-alpha * u) * float(dist.cdf(u)),
        alpha, epsabs=1e-13, epsrel=1e-9, points=_kinks(dist),
        what="damped residual mass",
    ) / res.denom
    gamma = 1.0 / (alpha * nu_bar)
    beta = sigma_sq / (nu_bar ** 3 * alpha)
    c = math.log(mu * (nu - 1.0) ** 2 / (nu * alpha * nu_bar))
    checks = (
        ("malthusian", abs(nu * laplace_stieltjes(dist, alpha) - 1.0)),
        ("f_R0_identity", abs(f0 - alpha / (nu - 1.0))),
        ("B_identity", abs(b_val - nu_bar / (nu - 1.0))),
        ("residual_norm", res.norm_residual),
    )
    return CtbpConstants(mu=float(mu), nu=float(nu), alpha=alpha, nu_bar=nu_bar,
                         sigma_bar_sq=sigma_sq, gamma=gamma, beta=beta,
                         f_R0=f0, B=b_val, c=c, checks=checks)


def mean_growth_constant(consts: CtbpConstants) -> float:
    """A = (nu-1)/(alpha nu nu_bar): e^{-alpha t} E[size] -> mu * A."""
    return (consts.nu - 1.0) / (consts.alpha * consts.nu * consts.nu_bar)


# ---------------------------------------------------------------------------
# simulation


class _PmfSampler:
    """Integer pmf with a vectorized draw; point masses skip the machinery."""

    __slots__ = ("support", "probs", "_cum")

    def __init__(self, support: np.ndarray, probs: np.ndarray):
        self.support = support
        self.probs = probs
        self._cum = np.cumsum(probs)
        self._cum[-1] = 1.0

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.support.size == 1:
            return np.full(size, self.support[0], dtype=np.int64)
        u = rng.random(size)
        idx = np.searchsorted(self._cum, u, side="right")
        return self.support[idx]


@dataclass(frozen=True)
class OffspringLaw:
    """Offspring count distribution on {0, 1, 2, ...}."""

    support: np.ndarray
    probs: np.ndarray

    @classmethod
    def from_pmf(cls, pmf) -> "OffspringLaw":
        items = sorted((int(k), float(v)) for k, v in dict(pmf).items())
        support = np.array([k for k, _ in items], dtype=np.int64)
        probs = np.array([v for _, v in items], dtype=float)
        if support.size == 0 or np.any(support < 0):
            raise CtbpError("offspring law needs nonnegative integer support")
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-9:
            raise CtbpError(f"offspring pmf must sum to 1, got {probs.sum()!r}")
        return cls(support=support, probs=probs / probs.sum())

    @classmethod
    def point(cls, k: int) -> "OffspringLaw":
        return cls.from_pmf({k: 1.0})

    @property
    def mean(self) -> float:
        return float((self.support * self.probs).sum())

    def sampler(self) -> _PmfSampler:
        return _PmfSampler(self.support, self.probs)


@dataclass(frozen=True)
class BpConfig:
    """Bundles the two offspring laws and the lifetime law."""

    root_law: OffspringLaw
    later_law: OffspringLaw
    dist: WeightDistribution


@dataclass(frozen=True)
class BpTrajectory:
    """One simulated population path, observed on [0, horizon].

    event_times/alive_counts list every death epoch (each death births the
    dying individual's offspring simultaneously) with the population size
    after the event. w_estimate = e^{-alpha*horizon} * alive(horizon).
    """

    event_times: np.ndarray
    alive_counts: np.ndarray
    w_estimate: float
    extinct: bool
    total_born: int
    horizon: float


def simulate_bp(root_law: OffspringLaw, later_law: OffspringLaw,
                dist: WeightDistribution, horizon: float, rng: np.random.Generator,
                *, alpha: float, max_population: int = 10_000_000,
                record_trajectory: bool = True) -> BpTrajectory:
    """Simulate the two-stage process generation by generation.

    Children's clocks start at the parent's death, so drawing a whole
    generation's lifetimes and offspring in batches is exact; no event heap
    is needed. Individuals dying beyond the horizon stay alive in-window
    and spawn nothing. Raises if total births exceed max_population.
    """
    if horizon < 0:
        raise CtbpError(f"horizon must be >= 0, got {horizon}")
    root_children = int(root_law.sampler().draw(rng, 1)[0])
    later = later_law.sampler()

    event_times = [np.zeros(1)]
    deltas = [np.array([root_children - 1.0])]
    total_born = root_children
    survivors = 0

    pending = sample_weight(dist, rng, root_children) if root_children else np.empty(0)
    while pending.size:
        in_window = pending <= horizon
        dead_times = pending[in_window]
        survivors += int(pending.size - dead_times.size)
        if dead_times.size == 0:
            break
        # every pending individual is now accounted for: survivor or dying
        counts = later.draw(rng, dead_times.size)
        if record_trajectory:
            event_times.append(dead_times)
            deltas.append(counts.astype(float) - 1.0)
        n_children = int(counts.sum())
        total_born += n_children
        if total_born > max_population:
            raise CtbpError(f"population exceeded the cap of {max_population} "
                            f"before the horizon {horizon}")
        if n_children == 0:
            pending = np.empty(0)
            continue
        births = np.repeat(dead_times, counts)
        pending = births + sample_weight(dist, rng, n_children)

    alive_end = survivors
    if record_trajectory:
        times = np.concatenate(event_times)
        dlt = np.concatenate(deltas)
        order = np.argsort(times, kind="stable")
        times = times[order]
        alive = 1.0 + np.cumsum(dlt[order])
        assert int(alive[-1]) == alive_end, "population bookkeeping drifted"
        times_arr, alive_arr = times, alive.astype(np.int64)
    else:
        times_arr = np.empty(0)
        alive_arr = np.empty(0, dtype=np.int64)

    return BpTrajectory(
        event_times=times_arr,
        alive_counts=alive_arr,
        w_estimate=math.exp(-alpha * horizon) * alive_end,
        extinct=alive_end == 0,
        total_born=total_born,
        horizon=float(horizon),
    )


def default_w_horizon(consts: CtbpConstants, target_population: float = 1e4) -> float:
    """Horizon at which E[size] ~ target: log(target/(mu A))/alpha."""
    scale = consts.mu * mean_growth_constant(consts)
    return math.log(target_population / scale) / consts.alpha


def sample_w(consts: CtbpConstants, bp: BpConfig, rng: np.random.Generator, *,
             horizon: float | None = None, max_extinct_streak: int = 10_000) -> float:
    """One draw of the growth limit W conditioned on survival.

    Rejection on extinct runs; errors out after max_extinct_streak
    consecutive extinctions (a sign the configuration is not really
    supercritical).
    """
    if horizon is None:
        horizon = default_w_horizon(consts)
    for _ in range(max_extinct_streak):
        traj = simulate_bp(bp.root_law, bp.later_law, bp.dist, horizon, rng,
                           alpha=consts.alpha, record_trajectory=False)
        if not traj.extinct:
            return traj.w_estimate
    raise CtbpError(f"{max_extinct_streak} consecutive extinct runs while "
                    "sampling W; check supercriticality")


# Population dynamics: the pool size sets the O(1/size) bias of the pooled
# law; each step contracts the distance to the fixed point by the factor
# nu E e^{-2 alpha X} < 1 (0.6 for 4-regular exp(1), 0.76 for power s = 2);
# blocks bound the index temporaries of a step, and with them peak memory.
_POOL_SIZE = 200_000
_POOL_STEPS = 40
_POOL_BLOCK = 25_000


def _sum_pool_draws(pool: np.ndarray, counts: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    """Per entry i, the sum of counts[i] pool values drawn with replacement."""
    picks = pool[rng.integers(0, pool.size, int(counts.sum()))]
    owners = np.repeat(np.arange(counts.size), counts)
    return np.bincount(owners, weights=picks, minlength=counts.size)


def sample_w_pool(consts: CtbpConstants, bp: BpConfig, size: int,
                  rng: np.random.Generator) -> np.ndarray:
    """size draws of the growth limit W conditioned on survival.

    A newborn individual's limit solves V = e^{-alpha X} (V_1 + ... + V_D')
    in law, X ~ G and D' from the later law; E V = A (mean_growth_constant)
    picks the solution among its multiples. A pool of V's is iterated on
    that equation, rescaled to mean A after each step; then W = V_1 + ... +
    V_{D_root} with W = 0 (extinction) rejected. A block of _POOL_BLOCK
    root draws without a survivor raises.
    """
    later = bp.later_law.sampler()
    target = mean_growth_constant(consts)
    pool = np.full(_POOL_SIZE, target)
    for _ in range(_POOL_STEPS):
        nxt = np.empty_like(pool)
        for lo in range(0, _POOL_SIZE, _POOL_BLOCK):
            k = min(_POOL_BLOCK, _POOL_SIZE - lo)
            decay = np.exp(-consts.alpha * sample_weight(bp.dist, rng, k))
            nxt[lo:lo + k] = decay * _sum_pool_draws(pool, later.draw(rng, k), rng)
        nxt *= target / nxt.mean()
        pool = nxt

    root = bp.root_law.sampler()
    out = np.empty(size)
    filled = 0
    while filled < size:
        w = _sum_pool_draws(pool, root.draw(rng, _POOL_BLOCK), rng)
        w = w[w > 0.0][:size - filled]
        if w.size == 0:
            raise CtbpError(f"all {_POOL_BLOCK} root draws of W were extinct; "
                            "check supercriticality")
        out[filled:filled + w.size] = w
        filled += w.size
    return out


def standard_gumbel(rng: np.random.Generator, size=None):
    """-log(-log U): standard Gumbel via inverse CDF."""
    u = rng.random(size)
    return -np.log(-np.log(u))


def q_formula(consts: CtbpConstants, w1, w2, gumbel):
    """Limit of the recentred optimal weight, given the two growth limits
    and the Gumbel variable: (-log w1 - log w2 - gumbel + c)/alpha.
    Elementwise on arrays, with numpy broadcasting."""
    return (-np.log(w1) - np.log(w2) - gumbel + consts.c) / consts.alpha


def sample_ranked_gumbel(m: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """(size, m) ordered Gumbel points for the m best paths, one row per
    draw: t_i = log(E_1+...+E_i).

    The E_j are i.i.d. standard exponentials, so each row ascends and -t_1 is
    standard Gumbel; successive e^{t_i} gaps are standard exponentials.
    """
    if m < 1:
        raise CtbpError(f"need m >= 1 ranked points, got {m}")
    return np.log(np.cumsum(rng.standard_exponential((size, m)), axis=1))
