"""Degree sequences with prescribed marginals, plus their summary statistics.

A sequence is stored as blocks, runs of (degree, count) in vertex order, so
it takes O(distinct degrees) memory at any n; `degrees` expands it per
vertex on demand. Two constructions emit one block per degree, ascending: a
deterministic quantile-matching build from a target CDF (vertex counts per
degree are consecutive differences of ceil(n * F(k)), so empirical marginals
converge to F as n grows), and an i.i.d. draw from a pmf, which draws the
counts at once. Either way the total degree is forced even by bumping one
vertex, with a flag recording that the bump happened.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

__all__ = [
    "DegreeSequence",
    "DegreeDiagnostics",
    "DegreeModelError",
    "build_deterministic",
    "build_iid",
    "regular",
    "diagnostics",
    "load_pmf_table",
]


class DegreeModelError(ValueError):
    """Invalid degree model input."""


@dataclass(frozen=True)
class DegreeSequence:
    """Vertex degrees, all >= 1, as runs: blocks[j] = (degree, count) covers
    the next count vertices. The builders emit one block per degree,
    ascending."""

    blocks: tuple
    parity_bumped: bool = False
    n: int = field(init=False)
    total: int = field(init=False)      # number of half-edges, twice the edges

    def __post_init__(self):
        ks, cs = zip(*self.blocks) if self.blocks else ((), ())
        ks, cs = tuple(map(int, ks)), tuple(map(int, cs))
        if cs and min(cs) < 1:
            raise DegreeModelError("every block needs at least one vertex")
        if ks and min(ks) < 1:
            raise DegreeModelError("degree-0 vertices are not allowed")
        n = sum(cs)
        if n < 2:
            raise DegreeModelError("need at least two vertices")
        total = sum(map(operator.mul, ks, cs))
        if total % 2 != 0:
            raise DegreeModelError("total degree must be even")
        object.__setattr__(self, "blocks", tuple(zip(ks, cs)))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "total", total)

    @classmethod
    def from_degrees(cls, degrees, parity_bumped: bool = False) -> "DegreeSequence":
        """The runs of a per-vertex degree array, vertex order kept."""
        arr = np.asarray(degrees, dtype=np.int64)
        if arr.ndim != 1 or arr.size < 2:
            raise DegreeModelError("need at least two vertices")
        starts = np.flatnonzero(np.diff(arr, prepend=arr[0] - 1))
        counts = np.diff(starts, append=arr.size)
        return cls(tuple(zip(arr[starts].tolist(), counts.tolist())), parity_bumped)

    @property
    def degrees(self) -> np.ndarray:
        """Per-vertex degrees, expanded from the blocks (n entries)."""
        return expand(self.blocks)

    @property
    def nu_n(self) -> float:
        """Size-biased mean offspring sum d(d-1) / sum d, from exact integer sums."""
        return sum(k * (k - 1) * c for k, c in self.blocks) / self.total


def expand(blocks) -> np.ndarray:
    """Per-vertex degrees of (degree, count) runs, in vertex order."""
    flat = np.fromiter(chain.from_iterable(blocks), dtype=np.int64,
                       count=2 * len(blocks))
    return np.repeat(flat[0::2], flat[1::2])


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
    return DegreeSequence(tuple((k, c) for k, c in sorted(counts.items()) if c),
                          parity_bumped=bumped is not None)


def _odd_total(counts: dict[int, int]) -> bool:
    return sum(k * c for k, c in counts.items()) % 2 == 1


def build_deterministic(cdf_values, n: int) -> DegreeSequence:
    """Quantile-matching sequence for a target degree CDF.

    cdf_values maps degree k to F(k); it must be nondecreasing and reach
    exactly 1 at the largest listed degree. Vertices come out ascending in
    degree, and a parity bump goes to the last vertex, as a final block of
    its own. Examples: F(1)=0.5, F(2)=1.0 with n=4 gives [1,1,2,2]; a point
    mass at 3 with n=6 gives six 3s; F(1)=2/3, F(3)=1.0 with n=3 gives
    [1,1,3], bumped to [1,1,4] for parity.
    """
    if n < 2:
        raise DegreeModelError(f"need n >= 2, got {n}")
    items = sorted((int(k), float(v)) for k, v in dict(cdf_values).items())
    if not items:
        raise DegreeModelError("empty CDF table")
    if items[0][0] < 1:
        raise DegreeModelError("degrees below 1 are not allowed")
    values = [v for _, v in items]
    if any(b < a for a, b in zip(values, values[1:])):
        raise DegreeModelError("CDF values must be nondecreasing")
    if values[-1] != 1.0:
        raise DegreeModelError(f"CDF must reach 1.0, ends at {values[-1]!r}")

    counts = {}
    prev_ceil = 0
    for k, v in items:
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
    if support[0] < 1:
        raise DegreeModelError("pmf puts mass on degree 0")
    drawn = rng.multinomial(n, probs)
    counts = dict(zip(support.tolist(), drawn.tolist()))
    bumped = None
    if _odd_total(counts):
        u = int(rng.integers(n))
        bumped = int(support[np.searchsorted(np.cumsum(drawn), u, side="right")])
    return _finish(counts, bumped)


def regular(r: int, n: int) -> DegreeSequence:
    """All vertices of degree r (r*n must work out even, else bumped)."""
    if r < 1:
        raise DegreeModelError(f"regular degree must be >= 1, got {r}")
    return build_deterministic({r: 1.0}, n)


def _check_pmf(pmf):
    items = sorted((int(k), float(v)) for k, v in dict(pmf).items())
    support = np.array([k for k, _ in items], dtype=np.int64)
    probs = np.array([v for _, v in items], dtype=float)
    if np.any(probs < 0):
        raise DegreeModelError("pmf has negative mass")
    s = probs.sum()
    if abs(s - 1.0) > 1e-9:
        raise DegreeModelError(f"pmf sums to {s!r}, not 1")
    return support, probs / s


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
    """Two-column text (degree, mass) -> pmf dict; validation is the caller's."""
    try:
        rows = np.loadtxt(path, dtype=float, ndmin=2)
    except ValueError as exc:
        raise DegreeModelError(f"{path}: {exc}") from exc
    if rows.shape[1] != 2:
        raise DegreeModelError(f"{path}: expected two columns, got {rows.shape[1]}")
    return {int(k): float(v) for k, v in rows}
