"""Degree sequences with prescribed marginals, plus their summary statistics.

Two constructions: a deterministic quantile-matching build from a target CDF
(vertex counts per degree are consecutive differences of ceil(n * F(k)), so
empirical marginals converge to F as n grows), and an i.i.d. draw from a pmf.
Either way the total degree is forced even by bumping the last vertex, with
a flag recording that the bump happened.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegreeSequence",
    "DegreeDiagnostics",
    "DegreeModelError",
    "build_deterministic",
    "build_iid",
    "regular",
    "diagnostics",
    "size_biased_pmf",
    "save_degrees",
    "load_degrees",
    "load_pmf_table",
]


class DegreeModelError(ValueError):
    """Invalid degree model input."""


@dataclass(frozen=True)
class DegreeSequence:
    """Vertex degrees (ascending for the deterministic build), all >= 1."""

    degrees: np.ndarray
    parity_bumped: bool = False

    def __post_init__(self):
        arr = np.asarray(self.degrees, dtype=np.int64)
        if arr.ndim != 1 or arr.size < 2:
            raise DegreeModelError("need at least two vertices")
        if np.any(arr < 1):
            raise DegreeModelError("degree-0 vertices are not allowed")
        if int(arr.sum()) % 2 != 0:
            raise DegreeModelError("total degree must be even")
        object.__setattr__(self, "degrees", arr)

    @property
    def n(self) -> int:
        return int(self.degrees.size)

    @property
    def total(self) -> int:
        """Number of half-edges (twice the edge count)."""
        return int(self.degrees.sum())


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


def _finish(raw: np.ndarray) -> DegreeSequence:
    bumped = False
    if int(raw.sum()) % 2 != 0:
        raw = raw.copy()
        raw[-1] += 1
        bumped = True
    return DegreeSequence(raw, parity_bumped=bumped)


def build_deterministic(cdf_values, n: int) -> DegreeSequence:
    """Quantile-matching sequence for a target degree CDF.

    cdf_values maps degree k to F(k); it must be nondecreasing and reach
    exactly 1 at the largest listed degree. Vertices come out ascending in
    degree. Examples: F(1)=0.5, F(2)=1.0 with n=4 gives [1,1,2,2]; a point
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

    out = np.empty(n, dtype=np.int64)
    pos = 0
    prev_ceil = 0
    for k, v in items:
        cur_ceil = math.ceil(n * v)
        count = cur_ceil - prev_ceil
        prev_ceil = cur_ceil
        if count <= 0:
            continue
        out[pos:pos + count] = k
        pos += count
    assert pos == n, "ceiling rule must exhaust all vertices"
    return _finish(out)


def build_iid(pmf, n: int, rng: np.random.Generator) -> DegreeSequence:
    """n i.i.d. draws from a degree pmf, parity-bumped if the sum is odd."""
    if n < 2:
        raise DegreeModelError(f"need n >= 2, got {n}")
    support, probs = _check_pmf(pmf)
    if support[0] < 1:
        raise DegreeModelError("pmf puts mass on degree 0")
    draws = rng.choice(support, size=n, p=probs)
    return _finish(draws.astype(np.int64))


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
    counts = np.bincount(seq.degrees)
    k = np.flatnonzero(counts)
    c = counts[k]
    total = int((k * c).sum())
    logs = np.maximum(np.log(k / cutoff), 0.0)
    return DegreeDiagnostics(
        mu_n=total / n,
        nu_n=int((k * (k - 1) * c).sum()) / total,
        second_moment=int((k * k * c).sum()) / n,
        max_degree=int(k[-1]),
        x2logx=float((k * k * c * logs).sum() / n),
        cutoff=float(cutoff),
    )


def size_biased_pmf(seq: DegreeSequence) -> dict[int, float]:
    """Law of (D* - 1): pick a half-edge uniformly, count its siblings.

    P(D* - 1 = k) = (k+1) * #{i : d_i = k+1} / total. Its mean is nu_n,
    which is the offspring mean used everywhere downstream.
    """
    ks, counts = np.unique(seq.degrees, return_counts=True)
    total = seq.total
    return {int(k) - 1: float(k * c) / total for k, c in zip(ks, counts)}


# ---------------------------------------------------------------------------
# serialization: newline-delimited degrees; two-column pmf/cdf tables


def save_degrees(seq: DegreeSequence, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for d in seq.degrees:
            fh.write(f"{int(d)}\n")


def load_degrees(path) -> DegreeSequence:
    arr = np.loadtxt(path, dtype=np.int64, ndmin=1)
    return DegreeSequence(arr)


def load_pmf_table(path) -> dict[int, float]:
    """Two-column text (degree, mass) -> pmf dict; validation is the caller's."""
    try:
        rows = np.loadtxt(path, dtype=float, ndmin=2)
    except ValueError as exc:
        raise DegreeModelError(f"{path}: {exc}") from exc
    if rows.shape[1] != 2:
        raise DegreeModelError(f"{path}: expected two columns, got {rows.shape[1]}")
    return {int(k): float(v) for k, v in rows}
