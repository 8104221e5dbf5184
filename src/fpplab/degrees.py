"""Degree laws and the degree sequences drawn from them, plus their summary
statistics. This module owns the degree law: every check of a degree model
and every build of its sequence happens here.

A degree model is a pair (kind, parameter): ("regular", r), ("iid", pmf
table) or ("deterministic", CDF table), a table being a {degree: value}
mapping or (degree, value) pairs. limit_pmf(model) checks a model by the
rules its builder applies and returns its limiting degree pmf, which is all
the limit constants and the references read; build(model, n, rng) draws its
sequence on n vertices.

A sequence is stored as blocks, runs of (degree, count) in vertex order, so
it takes O(distinct degrees) memory at any n; `degrees` expands it per
vertex on demand. The sequence is also the configuration model's half-edge
layout: half_edges(v) and owner(h) are computed from the blocks, and a
vertex's degree is the length of its half-edge range.
Two constructions emit one block per degree, ascending: a deterministic
quantile-matching build from a target CDF (vertex counts per degree are
consecutive differences of ceil(n * F(k)), so empirical marginals converge
to F as n grows), and an i.i.d. draw from a pmf, which draws the counts at
once. Either way the total degree is forced even by giving one vertex one
more half-edge; the deterministic build bumps a vertex of the top degree k,
so its bump shows as the final block (k + 1, 1).
"""
from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain

import numpy as np

__all__ = [
    "DegreeSequence",
    "DegreeDiagnostics",
    "DegreeModelError",
    "limit_pmf",
    "build",
    "build_deterministic",
    "build_iid",
    "regular",
    "subcritical_bound",
    "diagnostics",
    "load_pmf_table",
]


class DegreeModelError(ValueError):
    """Invalid degree model input."""


@dataclass(frozen=True)
class DegreeSequence:
    """Vertex degrees, all >= 1, as runs: blocks[j] = (degree, count) covers
    the next count vertices. The builders emit one block per degree,
    ascending.

    It is also the half-edge layout of the configuration model: vertex v owns
    the half-edge ids offset[v] .. offset[v+1]-1, vertex-major. Block j =
    (k_j, c_j) starts at vertex v_j and half-edge h_j, and its vertex v owns
    the k_j ids from h_j + k_j (v - v_j) on. half_edges(v) bisects the
    block starts by vertex, owner(h) by half-edge, and a one-block
    (regular) sequence answers both with one multiply or divide, so a
    lazily paired graph holds no array whose size grows with n.
    """

    blocks: tuple
    n: int = field(init=False)
    total: int = field(init=False)      # number of half-edges, twice the edges
    regular_degree: int = field(init=False)   # the degree of a one-block sequence, else 0
    _vertex_starts: list = field(init=False, repr=False, compare=False)
    _he_starts: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ks, cs = zip(*self.blocks) if self.blocks else ((), ())
        ks, cs = tuple(map(int, ks)), tuple(map(int, cs))
        if cs and min(cs) < 1:
            raise DegreeModelError("every block needs at least one vertex")
        if ks and min(ks) < 1:
            raise DegreeModelError("degree-0 vertices are not allowed")
        vertex_starts = list(accumulate(cs, initial=0))
        he_starts = list(accumulate(map(operator.mul, ks, cs), initial=0))
        n, total = vertex_starts.pop(), he_starts.pop()
        if n < 2:
            raise DegreeModelError("need at least two vertices")
        if total % 2 != 0:
            raise DegreeModelError("total degree must be even")
        object.__setattr__(self, "blocks", tuple(zip(ks, cs)))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "regular_degree", ks[0] if len(ks) == 1 else 0)
        object.__setattr__(self, "_vertex_starts", vertex_starts)
        object.__setattr__(self, "_he_starts", he_starts)

    @classmethod
    def from_degrees(cls, degrees) -> "DegreeSequence":
        """The runs of a per-vertex degree array, vertex order kept."""
        arr = np.asarray(degrees, dtype=np.int64)
        if arr.ndim != 1 or arr.size < 2:
            raise DegreeModelError("need at least two vertices")
        starts = np.flatnonzero(np.diff(arr, prepend=arr[0] - 1))
        counts = np.diff(starts, append=arr.size)
        return cls(tuple(zip(arr[starts].tolist(), counts.tolist())))

    @property
    def degrees(self) -> np.ndarray:
        """Per-vertex degrees, expanded from the blocks (n entries)."""
        flat = np.fromiter(chain.from_iterable(self.blocks), dtype=np.int64,
                           count=2 * len(self.blocks))
        return np.repeat(flat[0::2], flat[1::2])

    @property
    def nu_n(self) -> float:
        """Size-biased mean offspring sum d(d-1) / sum d, from exact integer sums."""
        return sum(k * (k - 1) * c for k, c in self.blocks) / self.total

    def half_edges(self, v: int) -> tuple[int, int]:
        """(lo, hi): vertex v owns the half-edge ids lo .. hi - 1."""
        r = self.regular_degree
        if r:
            return v * r, v * r + r
        j = bisect_right(self._vertex_starts, v) - 1
        k = self.blocks[j][0]
        lo = self._he_starts[j] + k * (v - self._vertex_starts[j])
        return lo, lo + k

    def owner(self, h: int) -> int:
        if self.regular_degree:
            return h // self.regular_degree
        j = bisect_right(self._he_starts, h) - 1
        return self._vertex_starts[j] + (h - self._he_starts[j]) // self.blocks[j][0]


@dataclass(frozen=True)
class DegreeDiagnostics:
    mu_n: float            # mean degree
    nu_n: float            # size-biased mean offspring, sum d(d-1) / sum d
    second_moment: float   # mean of d^2
    max_degree: int
    x2logx: float          # (1/n) sum d^2 * max(log(d / cutoff), 0)
    cutoff: float

    @property
    def supercritical(self) -> bool:
        return self.nu_n > 1.0


def _finish(counts: dict[int, int], bumped: int | None) -> DegreeSequence:
    """Ascending blocks of the vertex counts per degree; one vertex of degree
    `bumped`, if given, gets one more half-edge to make the total even."""
    if bumped is not None:
        counts = dict(counts)
        counts[bumped] -= 1
        counts[bumped + 1] = counts.get(bumped + 1, 0) + 1
    return DegreeSequence(tuple((k, c) for k, c in sorted(counts.items()) if c))


def _odd_total(counts: dict[int, int]) -> bool:
    return sum(k * c for k, c in counts.items()) % 2 == 1


_MODEL_KINDS = ("regular", "iid", "deterministic")


def _unpack(model) -> tuple:
    """(kind, parameter) of a degree model whose kind is one of _MODEL_KINDS."""
    kind = model[0] if isinstance(model, (tuple, list)) and len(model) == 2 else None
    if kind not in _MODEL_KINDS:
        raise DegreeModelError(f"unknown degree model {model!r}: need (kind, parameter) "
                               f"with kind one of {', '.join(_MODEL_KINDS)}")
    return model


def limit_pmf(model) -> dict[int, float]:
    """Limiting degree pmf of a degree model, checked by its builder's rules.

    A regular degree must be an integer >= 1; an iid pmf passes _check_pmf
    and comes back as given, a deterministic CDF passes _check_cdf and comes
    back as its positive steps F(k) - F(k-), ascending. ("regular", r) is
    the CDF {r: 1.0}, so it gives {r: 1.0}.
    """
    kind, param = _unpack(model)
    if kind == "iid":
        _check_pmf(param)
        return {int(k): float(v) for k, v in dict(param).items()}
    out = {}
    prev = 0.0
    for k, v in _check_cdf({param: 1.0} if kind == "regular" else param):
        if v > prev:
            out[k] = v - prev
        prev = v
    return out


def build(model, n: int, rng: np.random.Generator) -> DegreeSequence:
    """The degree sequence of a model on n vertices; only iid draws from rng."""
    kind, param = _unpack(model)
    if kind == "regular":
        return regular(param, n)
    if kind == "deterministic":
        return build_deterministic(param, n)
    return build_iid(param, n, rng)


def subcritical_bound(model, n: int) -> float:
    """An upper bound on P(nu_n <= 1) for the sequence build(model, n, rng)
    draws; nu_n <= 1 is sum d(d - 2) <= 0 over its degrees.

    A regular or deterministic sequence draws nothing: 0 or 1 from its exact
    nu_n. An iid law with no mass at degree 1 has d(d - 2) >= 0, with
    equality at d = 2 only, so the chance is p_2^n, every degree 2. Any
    other iid law gets the Chernoff bound M(theta)^n, M(theta) the mean of
    e^(-theta d(d - 2)), at the theta in [0, -log p_1] where the convex M
    is least (M(0) = 1 and M(-log p_1) >= 1), found by bisection on M'. A
    parity bump adds 2d - 1 > 0 to the sum, so it only lowers the chance.
    """
    kind, param = _unpack(model)
    if kind != "iid":
        return float(build(model, n, None).nu_n <= 1.0)
    support, probs = _check_pmf(param)
    p1 = float(probs[support == 1].sum())
    if p1 == 0.0:
        return float(probs[support == 2].sum()) ** n
    x = (support * (support - 2)).astype(float)
    lo, hi = 0.0, -math.log(p1)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if (probs * x * np.exp(-mid * x)).sum() > 0.0:   # M'(mid) < 0
            lo = mid
        else:
            hi = mid
    return min(1.0, float((probs * np.exp(-lo * x)).sum()) ** n)


def _degree(k) -> int:
    """A table's degree as an int; a non-integer degree is refused, not
    truncated."""
    if not float(k).is_integer():
        raise DegreeModelError(f"degree {k!r} is not an integer")
    return int(k)


def _check_cdf(cdf_values) -> list[tuple[int, float]]:
    """(degree, F) rows of a CDF table, ascending: integer degrees >= 1, and
    values nondecreasing from >= 0 to exactly 1 at the largest listed degree."""
    items = sorted((_degree(k), float(v)) for k, v in dict(cdf_values).items())
    if not items:
        raise DegreeModelError("empty CDF table")
    if items[0][0] < 1:
        raise DegreeModelError(f"degree {items[0][0]} is below 1; every vertex "
                               "needs at least one half-edge")
    values = [v for _, v in items]
    if not values[0] >= 0.0:
        raise DegreeModelError(f"CDF values must be >= 0, starts at {values[0]!r}")
    if not all(a <= b for a, b in zip(values, values[1:])):
        raise DegreeModelError("CDF values must be nondecreasing")
    if values[-1] != 1.0:
        raise DegreeModelError(f"CDF must reach 1.0, ends at {values[-1]!r}")
    return items


def _check_pmf(pmf) -> tuple[np.ndarray, np.ndarray]:
    """(support, probabilities) of a pmf table, ascending: masses >= 0 that
    sum to 1 within 1e-9, renormalised, on integer degrees >= 1."""
    items = sorted((_degree(k), float(v)) for k, v in dict(pmf).items())
    support = np.array([k for k, _ in items], dtype=np.int64)
    probs = np.array([v for _, v in items], dtype=float)
    if np.any(probs < 0):
        raise DegreeModelError("pmf has negative mass")
    s = float(probs.sum())
    if not abs(s - 1.0) <= 1e-9:
        raise DegreeModelError(f"pmf sums to {s!r}, not 1")
    if support[0] < 1:
        raise DegreeModelError("pmf puts mass on degree 0")
    return support, probs / s


def build_deterministic(cdf_values, n: int) -> DegreeSequence:
    """Quantile-matching sequence for a target degree CDF.

    cdf_values maps degree k to F(k) and must pass _check_cdf. Vertices
    come out ascending in degree, and a parity bump goes to the last
    vertex, as a final block of its own. Examples: F(1)=0.5, F(2)=1.0 with
    n=4 gives [1,1,2,2]; a point mass at 3 with n=6 gives six 3s;
    F(1)=2/3, F(3)=1.0 with n=3 gives [1,1,3], bumped to [1,1,4] for parity.
    """
    if n < 2:
        raise DegreeModelError(f"need n >= 2, got {n}")
    counts = {}
    prev_ceil = 0
    for k, v in _check_cdf(cdf_values):
        cur_ceil = math.ceil(n * v)
        if cur_ceil > prev_ceil:
            counts[k] = cur_ceil - prev_ceil
        prev_ceil = cur_ceil
    if sum(counts.values()) != n:
        raise DegreeModelError(
            f"ceiling rule must exhaust all vertices: the counts cover "
            f"{sum(counts.values())} of {n}")
    return _finish(counts, max(counts) if _odd_total(counts) else None)


def build_iid(pmf, n: int, rng: np.random.Generator) -> DegreeSequence:
    """n i.i.d. degrees from a pmf, drawn as one multinomial(n, pmf) count
    vector and laid out ascending; parity-bumped if the sum is odd.

    The draws are exchangeable, so given the counts the vertex that the
    last of n sequential draws would be is uniform over all n: the bumped
    degree is drawn in proportion to the counts. Time and memory are
    O(support) at any n.
    """
    if n < 2:
        raise DegreeModelError(f"need n >= 2, got {n}")
    support, probs = _check_pmf(pmf)
    drawn = rng.multinomial(n, probs)
    counts = dict(zip(support.tolist(), drawn.tolist()))
    bumped = None
    if _odd_total(counts):
        u = int(rng.integers(n))
        bumped = int(support[np.searchsorted(np.cumsum(drawn), u, side="right")])
    return _finish(counts, bumped)


def regular(r: int, n: int) -> DegreeSequence:
    """All vertices of degree r >= 1 (r*n must work out even, else bumped)."""
    return build_deterministic({r: 1.0}, n)


def diagnostics(seq: DegreeSequence, cutoff: float | None = None) -> DegreeDiagnostics:
    """Moment summaries; cutoff defaults to sqrt(n).

    x2logx is the truncated second-moment-with-log statistic
    (1/n) sum d_i^2 * max(log(d_i / cutoff), 0); it vanishes whenever all
    degrees sit at or below the cutoff.

    Sums run over distinct degrees weighted by their vertex counts, so no
    n-sized temporary is built; the integer sums are exact, which keeps
    mu_n and nu_n equal to the per-vertex float sums bit for bit.
    """
    n = seq.n
    if cutoff is None:
        cutoff = math.sqrt(n)
    if cutoff <= 0:
        raise DegreeModelError(f"cutoff must be positive, got {cutoff}")
    k, c = _degree_counts(seq)
    logs = np.maximum(np.log(k / cutoff), 0.0)
    return DegreeDiagnostics(
        mu_n=seq.total / n,
        nu_n=seq.nu_n,
        second_moment=int((k * k * c).sum()) / n,
        max_degree=int(k[-1]),
        x2logx=float((k * k * c * logs).sum() / n),
        cutoff=float(cutoff),
    )


def _degree_counts(seq: DegreeSequence) -> tuple[np.ndarray, np.ndarray]:
    """(distinct degrees ascending, vertex count of each), summed over blocks."""
    counts: dict[int, int] = {}
    for k, c in seq.blocks:
        counts[k] = counts.get(k, 0) + c
    k = np.array(sorted(counts), dtype=np.int64)
    return k, np.array([counts[x] for x in k.tolist()], dtype=np.int64)


# ---------------------------------------------------------------------------
# two-column pmf/cdf tables


def load_pmf_table(path) -> dict[int, float]:
    """Two-column text (degree, value) -> {degree: value}. A non-integer
    degree is refused here; the rows are checked as a pmf or a CDF when a
    config built on them is (limit_pmf)."""
    try:
        rows = np.loadtxt(path, dtype=float, ndmin=2)
    except (OSError, ValueError) as exc:
        raise DegreeModelError(f"{path}: {exc}") from exc
    if rows.shape[1] != 2:
        raise DegreeModelError(f"{path}: expected two columns, got {rows.shape[1]}")
    return {_degree(k): v for k, v in rows.tolist()}
