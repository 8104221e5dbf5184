"""Sparse random multigraphs with prescribed degrees or vertex weights.

The storage model is half-edge based: vertex v owns the half-edge ids
offset[v] .. offset[v+1]-1 (vertex-major), and partner[] is the pairing
involution. Edge weights live on edges: both half-edges of an edge expose
the same draw. Everything downstream (exploration, the reference shortest
path) works off these arrays.

A configuration model can also be paired lazily (LazyPairing): partners and
weights are drawn only for the vertices an exploration reaches, behind the
same partner / edge_weight_by_he / owner / reveal interface.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .degrees import DegreeSequence
from .weights import WeightDistribution, sample as sample_weight

__all__ = [
    "GraphError",
    "WeightedGraph",
    "HalfEdgeLayout",
    "LazyPairing",
    "pair_configuration",
    "sample_uniform_simple",
    "sample_rank1",
    "assign_weights",
    "build_from_edges",
    "export_edge_list",
    "mixed_poisson_pmf",
]


class GraphError(ValueError):
    pass


@dataclass
class WeightedGraph:
    """Multigraph in half-edge form, optionally with edge weights attached.

    The self-loop and multi-edge counts are computed on first read and
    cached; only simple-graph rejection, exports and tests need them.
    """

    n: int
    he_offset: np.ndarray        # len n+1, vertex-major half-edge ranges
    he_owner: np.ndarray         # owner vertex per half-edge
    partner: np.ndarray          # pairing involution on half-edge ids
    edge_weight_by_he: np.ndarray | None = None
    seed_label: int = 0          # echoed in exports, purely descriptive
    _defects: tuple | None = field(default=None, init=False, repr=False,
                                   compare=False)

    @property
    def half_edge_count(self) -> int:
        return int(self.partner.size)

    @property
    def edge_count(self) -> int:
        return int(self.partner.size) // 2

    @property
    def self_loop_count(self) -> int:
        return self._defect_counts()[0]

    @property
    def multi_edge_count(self) -> int:
        """Parallel edges beyond the first per vertex pair."""
        return self._defect_counts()[1]

    @property
    def is_simple(self) -> bool:
        return self.self_loop_count == 0 and self.multi_edge_count == 0

    def _defect_counts(self) -> tuple[int, int]:
        if self._defects is None:
            self._defects = _count_defects(self.he_owner, self.partner)
        return self._defects

    def degrees(self) -> np.ndarray:
        return np.diff(self.he_offset)

    def owner(self, h: int) -> int:
        return int(self.he_owner[h])

    def reveal(self, v: int) -> None:
        """Nothing to do: every half-edge is paired and weighted already."""

    def edge_endpoints(self) -> np.ndarray:
        """(m, 2) vertex pairs, one row per edge, in half-edge id order."""
        he = np.nonzero(np.arange(self.partner.size) < self.partner)[0]
        return np.column_stack([self.he_owner[he], self.he_owner[self.partner[he]]])


def _count_defects(owner: np.ndarray, partner: np.ndarray) -> tuple[int, int]:
    he = np.nonzero(np.arange(partner.size) < partner)[0]
    u = owner[he]
    v = owner[partner[he]]
    loops = int((u == v).sum())
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    pair_key = lo.astype(np.int64) * (owner.max() + 1 if owner.size else 1) + hi
    _, counts = np.unique(pair_key, return_counts=True)
    multi = int((counts - 1).sum())
    return loops, multi


def _offsets(degrees: np.ndarray) -> np.ndarray:
    off = np.zeros(degrees.size + 1, dtype=np.int64)
    np.cumsum(degrees, out=off[1:])
    return off


def _owners(off: np.ndarray) -> np.ndarray:
    return np.repeat(np.arange(off.size - 1, dtype=np.int64), np.diff(off))


def pair_configuration(seq: DegreeSequence, rng: np.random.Generator) -> WeightedGraph:
    """Uniform random pairing of half-edges.

    A uniformly shuffled stub array paired off in consecutive twos is a
    uniform perfect matching (the shuffle is sequential Fisher-Yates under
    the hood). Self-loops and multi-edges are kept and counted.
    """
    off = _offsets(seq.degrees)
    partner = np.empty(int(off[-1]), dtype=np.int64)
    _pair_uniformly(np.arange(partner.size), rng, partner)
    return WeightedGraph(n=seq.n, he_offset=off, he_owner=_owners(off),
                         partner=partner)


def _pair_uniformly(ids: np.ndarray, rng: np.random.Generator,
                    partner: np.ndarray) -> None:
    """Write a uniform perfect matching of ids into partner."""
    perm = rng.permutation(ids)
    partner[perm[0::2]] = perm[1::2]
    partner[perm[1::2]] = perm[0::2]


@dataclass(frozen=True)
class HalfEdgeLayout:
    """Half-edge id ranges of a degree sequence, without any pairing.

    Built once per degree sequence and shared by every LazyPairing on it.
    The owner of a half-edge is h // r when all degrees equal r, and a
    binary search on the offsets otherwise.
    """

    n: int
    he_offset: np.ndarray
    regular_degree: int          # common degree of every vertex, 0 if mixed

    @classmethod
    def of(cls, seq: DegreeSequence) -> "HalfEdgeLayout":
        d = seq.degrees
        off = _offsets(d)
        off.flags.writeable = False
        r = int(d[0]) if bool((d == d[0]).all()) else 0
        return cls(n=seq.n, he_offset=off, regular_degree=r)

    @property
    def half_edge_count(self) -> int:
        return int(self.he_offset[-1])

    def owner(self, h: int) -> int:
        if self.regular_degree:
            return h // self.regular_degree
        return int(np.searchsorted(self.he_offset, h, side="right")) - 1


_DRAW_BLOCK = 256   # partner ids / weights drawn per rng call


class LazyPairing:
    """Configuration model paired and weighted only where it is explored.

    reveal(v) pairs each still-unpaired half-edge x of v with a partner
    drawn uniformly from the other unpaired half-edges, and draws the new
    edge's weight at once. Pairing any unpaired half-edge with a uniform
    unpaired partner, in whatever order, builds a uniform perfect matching,
    so every revealed neighbourhood has the law of pair_configuration
    followed by assign_weights. Memory and time are O(half-edges revealed).

    The partner draw redraws a uniform id from [0, ell) while it is paired
    already or is x itself. With the paired fraction f that costs
    1/(1 - f) draws per pair: near 1 for trials on large graphs, and only
    small graphs explored to exhaustion pay more. A sparse Fisher-Yates
    shuffle would need draws with a shrinking bound, which cannot come
    from fixed blocks. Ids and weights come from rng in blocks of fixed
    size, so the stream consumed is a pure function of the reveal history.

    partner and edge_weight_by_he are dicts over revealed half-edges; the
    exploration indexes them exactly like the arrays of a WeightedGraph.
    """

    def __init__(self, layout: HalfEdgeLayout, dist: WeightDistribution,
                 rng: np.random.Generator):
        self.n = layout.n
        self.he_offset = layout.he_offset
        self.owner = layout.owner
        self.partner: dict[int, int] = {}
        self.edge_weight_by_he: dict[int, float] = {}
        self._layout = layout
        self._dist = dist
        self._rng = rng
        self._ids: list[int] = []
        self._weights: list[float] = []

    def degrees(self) -> np.ndarray:
        return np.diff(self.he_offset)

    def reveal(self, v: int) -> None:
        """Pair and weigh every still-unpaired half-edge of vertex v."""
        partner = self.partner
        weight = self.edge_weight_by_he
        ids = self._ids
        draws = self._weights
        off = self.he_offset
        for x in range(int(off[v]), int(off[v + 1])):
            if x in partner:
                continue
            while True:
                if not ids:
                    ids.extend(self._rng.integers(
                        self._layout.half_edge_count, size=_DRAW_BLOCK).tolist())
                y = ids.pop()
                if y != x and y not in partner:
                    break
            if not draws:
                draws.extend(np.atleast_1d(
                    sample_weight(self._dist, self._rng, _DRAW_BLOCK)).tolist())
            partner[x] = y
            partner[y] = x
            weight[x] = weight[y] = draws.pop()

    def materialize(self) -> WeightedGraph:
        """The whole graph: revealed pairs and weights kept, the rest drawn.

        The unpaired half-edges get a uniform perfect matching (the same
        permutation pairing as pair_configuration) and one weight per new
        edge, by ascending lower half-edge id, from this pairing's rng.
        """
        ell = self._layout.half_edge_count
        partner = np.full(ell, -1, dtype=np.int64)
        by_he = np.empty(ell, dtype=float)
        if self.partner:
            he = np.fromiter(self.partner, dtype=np.int64, count=len(self.partner))
            partner[he] = [self.partner[h] for h in he.tolist()]
            by_he[he] = [self.edge_weight_by_he[h] for h in he.tolist()]
        free = np.nonzero(partner < 0)[0]
        _pair_uniformly(free, self._rng, partner)
        _weigh_edges(by_he, partner, free[free < partner[free]], self._dist, self._rng)
        return WeightedGraph(n=self.n, he_offset=self.he_offset,
                             he_owner=_owners(self.he_offset), partner=partner,
                             edge_weight_by_he=by_he)


def sample_uniform_simple(seq: DegreeSequence, rng: np.random.Generator,
                          max_attempts: int = 10_000) -> tuple[WeightedGraph, int]:
    """Rejection-sample a uniform simple graph with the given degrees.

    Repeated pairing conditioned on no self-loops and no multi-edges is
    uniform over simple realizations. Returns (graph, attempts used).
    Raises after max_attempts, reporting the observed acceptance rate.
    """
    if max_attempts < 1:
        raise GraphError(f"max_attempts must be >= 1, got {max_attempts}")
    for attempt in range(1, max_attempts + 1):
        g = pair_configuration(seq, rng)
        if g.is_simple:
            return g, attempt
    raise GraphError(
        f"no simple pairing in {max_attempts} attempts "
        f"(acceptance so far 0/{max_attempts}); the degree sequence may admit "
        "no or vanishingly few simple realizations"
    )


_RANK1_KINDS = ("nr", "grg", "cl")


def _rank1_prob(kind: str, wi: float, wj: float, ell: float) -> float:
    x = wi * wj / ell
    if kind == "nr":
        return -math.expm1(-x)
    if kind == "grg":
        return x / (1.0 + x)
    return min(x, 1.0)  # cl


def sample_rank1(weights_w, kind: str, rng: np.random.Generator) -> WeightedGraph:
    """Inhomogeneous random graph with vertex weights w and kernel `kind`.

    kind selects the edge probability p_ij for l = sum(w):
      nr:  1 - exp(-w_i w_j / l)
      grg: (w_i w_j / l) / (1 + w_i w_j / l)
      cl:  min(w_i w_j / l, 1)

    All three are dominated by the cl kernel, so a single skip-and-thin
    sweep over weight-sorted vertices draws the exact law in expected time
    O(n + edges): from each i, geometric skips under the bound
    q = min(1, w_i w_j0 / l) at the segment start land on candidate j's,
    each accepted with p_ij / q (valid since weights are sorted decreasing,
    making p_ij <= q for every j past j0).
    """
    if kind not in _RANK1_KINDS:
        raise GraphError(f"rank-1 kind must be one of {_RANK1_KINDS}, got {kind!r}")
    w = np.asarray(weights_w, dtype=float)
    if w.ndim != 1 or w.size < 2:
        raise GraphError("need at least two vertex weights")
    if np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise GraphError("vertex weights must be positive and finite")
    n = w.size
    ell = float(w.sum())

    order = np.argsort(-w, kind="stable")   # decreasing; stable for determinism
    ws = w[order]
    us, vs = [], []
    for a in range(n - 1):
        wa = ws[a]
        b = a + 1
        while b < n:
            q = min(1.0, wa * ws[b] / ell)
            if q < 1.0:
                # geometric skip: number of consecutive rejections under q
                r = rng.random()
                jump = math.log(r) / math.log1p(-q) if r > 0.0 else math.inf
                if jump >= n - b:
                    break
                b += int(jump)
            p = _rank1_prob(kind, wa, ws[b], ell)
            if q >= 1.0:
                if rng.random() < p:
                    us.append(a)
                    vs.append(b)
            elif rng.random() * q < p:
                us.append(a)
                vs.append(b)
            b += 1

    edges = np.column_stack([order[np.array(us, dtype=np.int64)],
                             order[np.array(vs, dtype=np.int64)]]) \
        if us else np.empty((0, 2), dtype=np.int64)
    return build_from_edges(n, edges)


def build_from_edges(n: int, edges: np.ndarray, seed_label: int = 0) -> WeightedGraph:
    """Half-edge representation of an explicit edge list (loops allowed)."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        raise GraphError("edge endpoint out of range")
    deg = np.bincount(edges.ravel(), minlength=n).astype(np.int64)
    off = _offsets(deg)
    owner = _owners(off)
    partner = np.full(int(off[-1]), -1, dtype=np.int64)
    cursor = off[:-1].copy()
    for u, v in edges:
        hu = cursor[u]
        cursor[u] += 1
        hv = cursor[v]
        cursor[v] += 1
        partner[hu] = hv
        partner[hv] = hu
    assert partner.size == 0 or partner.min() >= 0
    return WeightedGraph(n=n, he_offset=off, he_owner=owner, partner=partner,
                         seed_label=seed_label)


def assign_weights(g: WeightedGraph, dist: WeightDistribution,
                   rng: np.random.Generator) -> WeightedGraph:
    """Attach one weight draw per edge (self-loops included).

    Edges are enumerated by ascending lower half-edge id, and the whole
    batch is one sampler call, so the sequence of consumed uniforms is a
    pure function of the edge count; both half-edges of an edge share the
    draw. Mutates and returns g.
    """
    ell = g.half_edge_count
    by_he = np.empty(ell, dtype=float)
    _weigh_edges(by_he, g.partner, np.nonzero(np.arange(ell) < g.partner)[0],
                 dist, rng)
    g.edge_weight_by_he = by_he
    return g


def _weigh_edges(by_he: np.ndarray, partner: np.ndarray, lo_he: np.ndarray,
                 dist: WeightDistribution, rng: np.random.Generator) -> None:
    """One sampler call for the edges with lower half-edges lo_he, in order."""
    draws = np.atleast_1d(sample_weight(dist, rng, lo_he.size))
    by_he[lo_he] = draws
    by_he[partner[lo_he]] = draws


def export_edge_list(g: WeightedGraph, path) -> None:
    """Text export: header 'n m seed', then one 'u v weight' line per edge.

    Vertices are 1-based in the file. Weights print with repr round-trip
    fidelity; an unweighted graph exports weight 1 for every edge.
    """
    ell = g.half_edge_count
    he = np.nonzero(np.arange(ell) < g.partner)[0]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{g.n} {g.edge_count} {g.seed_label}\n")
        for h in he:
            u = int(g.he_owner[h]) + 1
            v = int(g.he_owner[g.partner[h]]) + 1
            w = 1.0 if g.edge_weight_by_he is None else float(g.edge_weight_by_he[h])
            fh.write(f"{u} {v} {w!r}\n")


def mixed_poisson_pmf(dist: WeightDistribution, k_max: int) -> np.ndarray:
    """Limiting degree law of rank-1 graphs: P(D = k) = E[e^{-W} W^k / k!].

    Each entry is one quadrature of the Poisson kernel against the vertex
    weight density, evaluated in log space so large k stays stable.
    """
    from scipy.integrate import quad
    from scipy.special import gammaln

    if k_max < 0:
        raise GraphError(f"k_max must be >= 0, got {k_max}")
    lo = dist.support_lo
    hi = dist.support_hi
    if math.isinf(hi):
        hi = float(dist.quantile(1.0 - 1e-14))
    pts = [float(dist.quantile(p)) for p in (0.25, 0.5, 0.75, 0.9, 0.99)]
    pts = sorted({p for p in pts if lo < p < hi})
    out = np.empty(k_max + 1)
    for k in range(k_max + 1):
        lg = gammaln(k + 1)

        def integrand(w, _k=k, _lg=lg):
            if w <= 0.0:
                return 0.0
            return math.exp(_k * math.log(w) - w - _lg) * float(dist.density(w))

        val, err = quad(integrand, lo, hi, points=pts or None,
                        limit=400, epsabs=1e-12, epsrel=1e-10)
        out[k] = val
    return out
