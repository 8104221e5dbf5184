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

Every integral is summed over 20-point Gauss-Legendre cells, whose edges
come from the law's kinks and quantiles, and certified on halved cells by
the engine in weights. LS and the stable-age moments integrate against the
density on one node set per (law, binade of the rate) (_binade, in
weights._nodes form), so each is one exp and two dot products; K, D and B
integrate against 1 - G or G (weights._integral), so the identities compare
different integrals. alpha is a Brent root of LS, which is memoised per
(law, s), on the binade of s that holds it (solve_malthusian), so a weight
law's rate changed by a power of two rescales alpha and every constant
bit for bit. No closed forms are wired in, so the closed-form
test cases genuinely cross-check the numerics.
The growth limit W is drawn by simulation to a horizon (sample_w) or from
its fixed point by population dynamics (sample_w_pool).
"""
from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import weights
from .weights import QuadratureError, WeightDistribution, sample as sample_weight

__all__ = [
    "CtbpError",
    "SubcriticalError",
    "NearCriticalError",
    "QuadratureError",
    "CtbpConstants",
    "Centring",
    "ResidualLife",
    "OffspringLaw",
    "BpConfig",
    "laplace_stieltjes",
    "solve_malthusian",
    "stable_age_mean",
    "residual_density",
    "centring",
    "constants",
    "mean_growth_constant",
    "default_w_horizon",
    "simulate_bp",
    "sample_w",
    "pool_steps",
    "sample_w_pool",
    "q_formula",
    "standard_gumbel",
    "sample_ranked_gumbel",
]


class CtbpError(ValueError):
    """Inconsistent branching-process inputs."""


class SubcriticalError(CtbpError):
    """Offspring mean nu <= 1, or within the growth rate's residual tolerance
    of 1: no resolvable exponential growth, no limit constants."""


class NearCriticalError(CtbpError):
    """nu so close to 1 that the W pool (sample_w_pool) would need more than
    _MAX_POOL_STEPS steps to converge."""


# ---------------------------------------------------------------------------
# moments against the density, on one node set per binade of the rate


@lru_cache(maxsize=64)
def _binade(dist: WeightDistribution, e: int) -> tuple:
    """The node set of every rate s in [2^(e-1), 2^e): weights._nodes on the
    cells of a decay at the binade's upper rate 2^e, out to the reach
    640/2^(e-1) of its lower rate, coarse and halved. Returns the nodes of
    both, concatenated, the count of coarse ones, and the two weight rows
    times t^k for k = 0, 1, 2."""
    edges = weights._decay_edges(dist, math.ldexp(1.0, e), 0.0, 5)
    coarse, fine = (weights._nodes(dist, x) for x in (edges, weights._halved(edges)))
    powers = np.arange(3)[:, None]
    return (np.concatenate([coarse[0], fine[0]]), coarse[0].size,
            coarse[1] * coarse[0] ** powers, fine[1] * fine[0] ** powers)


def _moment(k: int, s: float, dist: WeightDistribution, *, epsabs: float, epsrel: float,
            what: str) -> float:
    """integral t^k e^{-s t} dG(t), k = 0, 1 or 2, on s's _binade: one exp
    and two dot products, certified coarse against halved (weights._certify)."""
    nodes, n_coarse, coarse, fine = _binade(dist, math.frexp(s)[1])
    decay = np.exp(-s * nodes)
    return float(weights._certify(coarse[k] @ decay[:n_coarse], fine[k] @ decay[n_coarse:],
                                  epsabs=epsabs, epsrel=epsrel, what=what))


# ---------------------------------------------------------------------------
# transforms and constants


@lru_cache(maxsize=4096)
def laplace_stieltjes(dist: WeightDistribution, s: float) -> float:
    """integral e^{-s t} dG(t), to 1e-12 absolute tolerance (memoised)."""
    if s < 0:
        raise CtbpError(f"transform argument must be >= 0, got {s}")
    if s == 0.0:
        return 1.0
    return _moment(0, s, dist, epsabs=1e-13, epsrel=1e-12, what="laplace_stieltjes")


# relative width of Brent's bracket at the root, the largest accepted
# |nu LS(alpha) - 1| there, and the binades scanned from s = 1 either way
_ROOT_REL_WIDTH = 1e-12
_ROOT_RESIDUAL_TOL = 1e-10
_SCAN_BINADES = 1000


def _brent(f, a: float, b: float, xtol: float, rtol: float) -> float:
    """Root of f in [a, b], f(a) and f(b) of opposite signs, by Brent's method in
    100 iterations at most: scipy's brentq.c step for step, so its float. Like
    brentq it refuses a bracket whose ends have the same sign."""
    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise QuadratureError(f"root bracket: the function is NaN at {x!r}")
        return fx

    xpre, xcur = a, b
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise QuadratureError(f"root bracket [{a!r}, {b!r}]: the function has the "
                              "same sign at both ends")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf                 # bisect unless interpolation steps short
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:            # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                       # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = value(xcur)
    raise QuadratureError(f"Brent's method did not converge in 100 iterations "
                          f"(last iterate {xcur!r})")


def solve_malthusian(nu: float, dist: WeightDistribution) -> float:
    """Growth rate alpha with nu * LS(alpha) = 1.

    nu * LS(s) decreases from nu toward 0, so the binade [2^(e-1), 2^e]
    that holds the root is found by doubling or halving s from 1 (at most
    _SCAN_BINADES steps), and Brent's method locates the root there to the
    width _ROOT_REL_WIDTH 2^e. Every iterate is then the rate-1 law's times
    the law's rate, when the rate is a power of two. nu - 1 must exceed
    _ROOT_RESIDUAL_TOL, and the returned root must satisfy
    |nu*LS(alpha) - 1| < _ROOT_RESIDUAL_TOL.
    """
    if not nu - 1.0 > _ROOT_RESIDUAL_TOL:   # e.g. E W^2 = E W, and NaN
        raise SubcriticalError(
            f"offspring mean nu={nu!r} is not supercritical (need nu - 1 > "
            f"{_ROOT_RESIDUAL_TOL:.0e}): at or near critical, the exploration "
            "growth rate is undefined or unresolved")

    def excess(s: float) -> float:
        return nu * laplace_stieltjes(dist, s) - 1.0

    down = excess(1.0) < 0.0
    e = 0
    for _ in range(_SCAN_BINADES):
        e += -1 if down else 1
        if (excess(math.ldexp(1.0, e)) < 0.0) != down:
            break
    else:
        raise QuadratureError(f"no sign change of nu LS(s) - 1 within {_SCAN_BINADES} "
                              "binades of s = 1: the growth rate is out of range")
    hi = math.ldexp(1.0, e + 1 if down else e)
    alpha = _brent(excess, hi / 2, hi, _ROOT_REL_WIDTH * hi, _ROOT_REL_WIDTH)
    resid = abs(excess(alpha))
    if resid > _ROOT_RESIDUAL_TOL:
        raise QuadratureError(f"growth-rate residual {resid:.3e} exceeds "
                              f"{_ROOT_RESIDUAL_TOL:.1e}")
    return alpha


def _time_units(alpha: float, d: int) -> float:
    """max(1, 1/alpha)^d: the factor on the absolute tolerance of an integral
    carrying units of time^d, so a law slower than rate 1 (which only
    rescales time) is certified as its rate-1 form is."""
    return max(1.0, 1.0 / alpha) ** d


def stable_age_mean(nu: float, alpha: float, dist: WeightDistribution) -> float:
    """nu_bar = nu * integral t e^{-alpha t} dG(t): the stable-age mean alone."""
    return nu * _moment(1, alpha, dist, epsabs=5e-12 * _time_units(alpha, 1),
                        epsrel=5e-12, what="stable-age mean")


def _tail_mass(dist: WeightDistribution, alpha: float, x: np.ndarray) -> np.ndarray:
    """K at every point of x (negative points read as 0), in one pass: cells
    on _edges over the distinct points, _integral beyond the last node, and
    K(u) = cell + e^{-alpha h} K(u+h) solved by a doubling scan (factors <= 1)."""
    if x.size == 0:
        return np.zeros(x.shape)
    pts, inverse = np.unique(np.maximum(x, 0.0), return_inverse=True)
    nodes = weights._edges(dist, alpha, pts)
    x0 = nodes[-1]
    beyond = weights._integral(lambda v: np.exp(-alpha * v) * (1.0 - dist.cdf(x0 + v)),
                               dist, alpha, x0, epsabs=1e-15 * _time_units(alpha, 1),
                               epsrel=1e-11, what="residual tail mass")
    cells = weights._cells(lambda u, y: np.exp(-alpha * y) * (1.0 - dist.cdf(u + y)), nodes)
    mass = np.append(cells, beyond)
    decay = np.append(np.exp(-alpha * np.diff(nodes)), 0.0)
    shift = 1
    while shift < mass.size:
        mass[:-shift] += decay[:-shift] * mass[shift:]
        decay[:-shift] *= decay[shift:]
        shift *= 2
    return mass[np.searchsorted(nodes, pts)][inverse].reshape(x.shape)


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
        mass = _tail_mass(self._dist, self.alpha, x)
        f = np.where(x < 0, 0.0, (tail - self.alpha * mass) / self.denom)
        return float(f) if f.ndim == 0 else f

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        f = np.where(x > 0, 1.0 - _tail_mass(self._dist, self.alpha, x) / self.denom, 0.0)
        return float(f) if f.ndim == 0 else f

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """size exact draws, with no quadrature: a lifetime X ~ G is kept with
        probability 1 - e^{-alpha X} (a share 1 - 1/nu of them), and an age
        Y ~ Exp(alpha) conditioned to lie below X is taken off it."""
        parts = [np.empty(0)]
        while sum(map(len, parts)) < size:
            x = sample_weight(self._dist, rng, size)
            below = -np.expm1(-self.alpha * x)       # P(Y < X) given X
            keep = rng.random(size) < below
            x, below = x[keep], below[keep]
            parts.append(x + np.log1p(-rng.random(x.size) * below) / self.alpha)
        return np.concatenate(parts)[:size]


def residual_density(dist: WeightDistribution, alpha: float) -> ResidualLife:
    """Residual-life law at growth rate alpha. D = K(0) from _integral must
    match, to 1e-6 relative, K(0) from _tail_mass's nodes on [0, 45/alpha]
    (norm_residual) and (1 - LS(alpha))/alpha, its by-parts form with LS from
    the density (recorded by constants() as the f_R0 identity)."""
    if not alpha > 0:
        raise CtbpError(f"alpha must be positive, got {alpha}")
    denom = weights._integral(lambda v: np.exp(-alpha * v) * (1.0 - dist.cdf(v)), dist, alpha,
                              epsabs=1e-15 * _time_units(alpha, 1), epsrel=1e-11,
                              what="residual tail mass")
    norm_resid = abs(_tail_mass(dist, alpha, np.arange(46.0) / alpha)[0] / denom - 1.0)
    by_parts = abs(alpha * denom / (1.0 - laplace_stieltjes(dist, alpha)) - 1.0)
    if max(norm_resid, by_parts) > 1e-6:
        raise QuadratureError(f"residual tail mass D is off K(0) by {norm_resid:.3e} and "
                              f"(1 - LS(alpha))/alpha by {by_parts:.3e} (relative, > 1e-6)")
    return ResidualLife(alpha=alpha, denom=denom, _dist=dist, norm_residual=norm_resid)


@dataclass(frozen=True)
class Centring:
    """alpha, nu_bar and gamma = 1/(alpha nu_bar): the centring constants."""

    alpha: float
    nu_bar: float
    gamma: float


@dataclass(frozen=True)
class CtbpConstants(Centring):
    """Every limit constant the experiments need, plus self-check residuals.

    f_R0 and B come from quadratures; checks records how far they sit,
    relative to the value, from their closed identities alpha/(nu-1) and
    nu_bar/(nu-1), along with the growth-rate residual and the residual-cdf
    normalization defect.
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


def centring(nu: float, dist: WeightDistribution) -> Centring:
    """alpha, nu_bar and gamma = 1/(alpha nu_bar) at offspring mean nu: what
    the trials centre by at their own nu_n, and the start of constants()."""
    alpha = solve_malthusian(nu, dist)
    nu_bar = stable_age_mean(nu, alpha, dist)
    return Centring(alpha, nu_bar, 1.0 / (alpha * nu_bar))


def constants(mu: float, nu: float, dist: WeightDistribution) -> CtbpConstants:
    """Solve for the growth rate and assemble all limit constants.

    mu is the plain mean degree (the root generation's mean offspring); nu
    is the size-biased mean offspring driving the growth.
    """
    if not mu > 0:
        raise CtbpError(f"mean degree mu must be positive, got {mu}")
    alpha, nu_bar, gamma = astuple(centring(nu, dist))
    sigma_sq = nu * _moment(2, alpha, dist, epsabs=5e-12 * _time_units(alpha, 2), epsrel=5e-12,
                            what="stable-age second moment") - nu_bar * nu_bar
    if sigma_sq <= 0:
        raise CtbpError(f"stable-age variance came out nonpositive ({sigma_sq!r})")
    res = residual_density(dist, alpha)
    f0 = (1.0 - alpha * res.denom) / res.denom
    # B = int F_R(z) e^{-az} dz; pushing the residual cdf's own integral
    # through by Fubini collapses the double integral to a single damped
    # integral of (u - 1/a) e^{-au} G(u)
    b_val = weights._integral(lambda u: (u - 1.0 / alpha) * np.exp(-alpha * u) * dist.cdf(u),
                              dist, alpha, epsabs=1e-13 * _time_units(alpha, 2),
                              epsrel=1e-9, what="damped residual mass") / res.denom
    beta = sigma_sq / (nu_bar ** 3 * alpha)
    c = math.log(mu * (nu - 1.0) ** 2 / (nu * alpha * nu_bar))
    # the identities' gaps are relative: f_R0 carries units of 1/time and B
    # of time, and a weight law's rate only rescales time
    f_closed, b_closed = alpha / (nu - 1.0), nu_bar / (nu - 1.0)
    checks = (
        ("malthusian", abs(nu * laplace_stieltjes(dist, alpha) - 1.0)),
        ("f_R0_identity", abs(f0 - f_closed) / f_closed),
        ("B_identity", abs(b_val - b_closed) / b_closed),
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
        # written so that a NaN probability fails too
        if not (np.all(probs >= 0) and abs(probs.sum() - 1.0) <= 1e-9):
            raise CtbpError(f"offspring pmf must be nonnegative and sum to 1, got "
                            f"sum {probs.sum()!r}, least {probs.min()!r}")
        return cls(support=support, probs=probs / probs.sum())

    @property
    def mean(self) -> float:
        return float((self.support * self.probs).sum())

    @cached_property
    def _cum(self) -> np.ndarray:
        cum = np.cumsum(self.probs)
        cum[-1] = 1.0
        return cum

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """size vectorized draws; a point mass consumes no uniform."""
        if self.support.size == 1:
            return np.full(size, self.support[0], dtype=np.int64)
        return self.support[np.searchsorted(self._cum, rng.random(size), side="right")]


@dataclass(frozen=True)
class BpConfig:
    """Bundles the two offspring laws and the lifetime law."""

    root_law: OffspringLaw
    later_law: OffspringLaw
    dist: WeightDistribution


# Total births allowed in one simulate_bp run, a guard against horizons
# that would exhaust memory.
_MAX_POPULATION = 10_000_000


def simulate_bp(root_law: OffspringLaw, later_law: OffspringLaw,
                dist: WeightDistribution, horizon: float,
                rng: np.random.Generator) -> int:
    """Simulate the two-stage process generation by generation and return
    the number of individuals alive at the horizon (0 if it died out).

    Children's clocks start at the parent's death, so drawing a whole
    generation's lifetimes and offspring in batches is exact; no event heap
    is needed. Individuals dying beyond the horizon stay alive in-window
    and spawn nothing. Raises if total births exceed _MAX_POPULATION.
    """
    if horizon < 0:
        raise CtbpError(f"horizon must be >= 0, got {horizon}")
    root_children = int(root_law.draw(rng, 1)[0])
    total_born = root_children
    alive = 0

    pending = sample_weight(dist, rng, root_children) if root_children else np.empty(0)
    while pending.size:
        dead_times = pending[pending <= horizon]
        alive += int(pending.size - dead_times.size)
        if dead_times.size == 0:
            break
        # every pending individual is now accounted for: survivor or dying
        counts = later_law.draw(rng, dead_times.size)
        n_children = int(counts.sum())
        total_born += n_children
        if total_born > _MAX_POPULATION:
            raise CtbpError(f"population exceeded the cap of {_MAX_POPULATION} "
                            f"before the horizon {horizon}")
        if n_children == 0:
            break
        births = np.repeat(dead_times, counts)
        pending = births + sample_weight(dist, rng, n_children)
    return alive


def default_w_horizon(consts: CtbpConstants, target_population: float = 1e4) -> float:
    """Horizon at which E[size] ~ target: log(target/(mu A))/alpha."""
    scale = consts.mu * mean_growth_constant(consts)
    return math.log(target_population / scale) / consts.alpha


# Consecutive extinct runs after which sample_w gives up: the configuration
# is then not really supercritical.
_MAX_EXTINCT_STREAK = 10_000


def sample_w(consts: CtbpConstants, bp: BpConfig, rng: np.random.Generator, *,
             horizon: float | None = None) -> float:
    """One draw of the growth limit W conditioned on survival:
    e^{-alpha*horizon} times the alive count of the first run that
    survives to the horizon.
    """
    if horizon is None:
        horizon = default_w_horizon(consts)
    for _ in range(_MAX_EXTINCT_STREAK):
        alive = simulate_bp(bp.root_law, bp.later_law, bp.dist, horizon, rng)
        if alive > 0:
            return math.exp(-consts.alpha * horizon) * alive
    raise CtbpError(f"{_MAX_EXTINCT_STREAK} consecutive extinct runs while "
                    "sampling W; check supercriticality")


# Population dynamics: the pool size sets the O(1/size) bias of the pooled
# law; each step contracts the Mallows distance to the fixed point by the
# factor rho = E[D'] E e^{-2 alpha X} < 1 (0.6 for 4-regular exp(1), 0.76
# for power s = 2), and pool_steps takes as many steps as shrink it below
# that bias, up to _MAX_POOL_STEPS (about 25 s of pool); blocks bound the
# index temporaries of a step, and with them peak memory.
_POOL_SIZE = 200_000
_MAX_POOL_STEPS = 2_000
_POOL_BLOCK = 25_000


def pool_steps(consts: CtbpConstants, bp: BpConfig) -> int:
    """Steps of sample_w_pool: the least k with rho^k <= 1/_POOL_SIZE, where
    rho = E[D'] LS(2 alpha). rho < 1 for every supercritical law with a
    density, since nu LS(alpha) = 1 and LS decreases strictly, but it nears
    1 with nu; a law needing more than _MAX_POOL_STEPS raises
    NearCriticalError."""
    rho = bp.later_law.mean * laplace_stieltjes(bp.dist, 2.0 * consts.alpha)
    steps = math.ceil(math.log(_POOL_SIZE) / -math.log(rho)) if rho < 1.0 else math.inf
    if steps > _MAX_POOL_STEPS:
        raise NearCriticalError(
            f"offspring mean nu={consts.nu:.6g} is too close to critical for the W "
            f"reference: its pool contracts by rho={rho:.6g} per step and needs "
            f"{steps} steps, above the cap of {_MAX_POOL_STEPS}")
    return steps


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
    that equation from the point mass at A for pool_steps steps, rescaled to
    mean A after each; then W = V_1 + ... + V_{D_root} with W = 0
    (extinction) rejected. A block of _POOL_BLOCK root draws without a
    survivor raises, and so does a law pool_steps refuses.
    """
    target = mean_growth_constant(consts)
    pool = np.full(_POOL_SIZE, target)
    for _ in range(pool_steps(consts, bp)):
        nxt = np.empty_like(pool)
        for lo in range(0, _POOL_SIZE, _POOL_BLOCK):
            k = min(_POOL_BLOCK, _POOL_SIZE - lo)
            decay = np.exp(-consts.alpha * sample_weight(bp.dist, rng, k))
            nxt[lo:lo + k] = decay * _sum_pool_draws(pool, bp.later_law.draw(rng, k), rng)
        nxt *= target / nxt.mean()
        pool = nxt

    out = np.empty(size)
    filled = 0
    while filled < size:
        w = _sum_pool_draws(pool, bp.root_law.draw(rng, _POOL_BLOCK), rng)
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
