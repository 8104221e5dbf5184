"""Sparse random multigraphs with prescribed degrees or vertex weights.

The storage model is half-edge based: vertex v owns the half-edge ids
offset[v] .. offset[v+1]-1 (vertex-major), and partner[] is the pairing
involution. Edge weights live on edges: both half-edges of an edge expose
the same draw. The reference shortest path works off these arrays; the
exploration binds lookups() once: a vertex's half-edge range, a half-edge's
owner and partner, and the weight of an edge by its lower half-edge id.

A configuration model can also be paired lazily (LazyPairing): partners and
weights are drawn only for the vertices an exploration reaches. Its partner
lookup answers None for a half-edge not yet paired, and the exploration then
draws the partner and the weight from the pairing's blocks, so it reads the
same pairs and weights a WeightedGraph of that pairing holds. Its half-edge
ids come from the DegreeSequence itself, which keeps the degree blocks only,
so a lazily paired graph holds no array whose size grows with n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import weights
from .degrees import DegreeSequence
from .weights import QuadratureError, WeightDistribution, sample as sample_weight

__all__ = [
    "GraphError",
    "WeightedGraph",
    "LazyPairing",
    "pair_configuration",
    "sample_uniform_simple",
    "sample_rank1",
    "RANK1_KINDS",
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

    def degree(self, v: int) -> int:
        return int(self.he_offset[v + 1] - self.he_offset[v])

    def owner(self, h: int) -> int:
        return int(self.he_owner[h])

    def half_edges(self, v: int) -> tuple[int, int]:
        """(lo, hi): vertex v owns the half-edge ids lo .. hi - 1."""
        return self.he_offset.item(v), self.he_offset.item(v + 1)

    def lookups(self) -> tuple:
        """What an exploration binds, laid out as in LazyPairing.lookups.

        partner_of and weight_of are .item of the live arrays, so a pairing
        edited in place is read as it stands. Every half-edge is paired
        already, so the four entries that draw pairs are None.
        """
        return (self.half_edges, self.he_owner.item, self.partner.item,
                self.edge_weight_by_he.item, None, None, None, None)

    def materialize(self) -> "WeightedGraph":
        """The whole graph, which this already is (see LazyPairing.materialize)."""
        return self


def _lower_half_edges(partner: np.ndarray) -> np.ndarray:
    """The lower half-edge id of every edge, ascending: one entry per edge."""
    return np.nonzero(np.arange(partner.size) < partner)[0]


def _count_defects(owner: np.ndarray, partner: np.ndarray) -> tuple[int, int]:
    he = _lower_half_edges(partner)
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
    _pair_off(rng.permutation(ids), partner)


def _pair_off(he: np.ndarray, partner: np.ndarray) -> None:
    """Pair he[0] with he[1], he[2] with he[3], and so on, into partner."""
    partner[he[0::2]] = he[1::2]
    partner[he[1::2]] = he[0::2]


_DRAW_BLOCK = 256   # partner ids / weights drawn per rng call


class LazyPairing:
    """Configuration model paired and weighted only where it is explored.

    An exploration pairs each unpaired half-edge x it reaches with a
    partner drawn uniformly from the other unpaired half-edges, and draws
    the new edge's weight at once. Pairing any unpaired half-edge with a
    uniform unpaired partner, in whatever order, builds a uniform perfect
    matching, so every explored neighbourhood has the law of
    pair_configuration followed by assign_weights. Memory and time are
    O(half-edges paired).

    The partner draw redraws a uniform id from [0, ell) while it is paired
    already or is x itself. With the paired fraction f that costs
    1/(1 - f) draws per pair: near 1 for trials on large graphs, and only
    small graphs explored to exhaustion pay more. A sparse Fisher-Yates
    shuffle would need draws with a shrinking bound, which cannot come
    from fixed blocks. Ids and weights come from rng in blocks of
    _DRAW_BLOCK, so the stream consumed is a pure function of the order in
    which half-edges are paired.

    The draws run in the exploration's loop, through lookups(); the block
    refills, draw_ids() and draw_weights(), stay here. A half-edge paired
    before costs no draw. partner is a dict over the paired half-edges and
    edge_weight_by_he a dict from the lower id of each paired edge to its
    weight: one entry per edge, as these two dicts are most of what a large
    lazy trial holds. materialize() completes both into the arrays of a
    WeightedGraph. Vertex ranges, degrees and owners come from the
    sequence's blocks, so the memory is O(blocks + half-edges paired) at
    any n. One sequence may be shared by any number of pairings.
    """

    def __init__(self, seq: DegreeSequence, dist: WeightDistribution,
                 rng: np.random.Generator):
        self.n = seq.n
        self.seq = seq
        self.owner = seq.owner
        self.degree = seq.degree
        self.partner: dict[int, int] = {}
        self.edge_weight_by_he: dict[int, float] = {}
        self._dist = dist
        self._rng = rng
        self._ids: list[int] = []
        self._weights: list[float] = []

    def lookups(self) -> tuple:
        """(half_edges, owner, partner_of, weight_of, partner, weight, ids,
        draws), bound once per exploration.

        half_edges(v) is v's id range, owner(h) the vertex of h,
        partner_of(h) the partner of h (None while h is unpaired) and
        weight_of(h) the weight of the edge whose lower id is h. To pair h
        the exploration pops partner ids from the end of ids and a weight
        from the end of draws, calling draw_ids() or draw_weights() when one
        is empty, and writes the pair into the dicts partner and weight.
        """
        return (self.seq.half_edges, self.owner, self.partner.get,
                self.edge_weight_by_he.get, self.partner,
                self.edge_weight_by_he, self._ids, self._weights)

    def draw_ids(self) -> None:
        """Refill the empty block of partner ids, uniform on [0, ell)."""
        self._ids.extend(self._rng.integers(self.seq.total, size=_DRAW_BLOCK).tolist())

    def draw_weights(self) -> None:
        """Refill the empty block of edge weights."""
        self._weights.extend(np.atleast_1d(
            sample_weight(self._dist, self._rng, _DRAW_BLOCK)).tolist())

    def materialize(self) -> WeightedGraph:
        """The whole graph: drawn pairs and weights kept, the rest drawn.

        The unpaired half-edges get a uniform perfect matching (the same
        permutation pairing as pair_configuration) and one weight per new
        edge, by ascending lower half-edge id, from this pairing's rng.
        """
        ell = self.seq.total
        partner = np.full(ell, -1, dtype=np.int64)
        by_he = np.empty(ell, dtype=float)
        if self.partner:
            he = np.fromiter(self.partner, dtype=np.int64, count=len(self.partner))
            partner[he] = [self.partner[h] for h in he.tolist()]
            lo = np.fromiter(self.edge_weight_by_he, dtype=np.int64,
                             count=len(self.edge_weight_by_he))
            by_he[lo] = by_he[partner[lo]] = list(self.edge_weight_by_he.values())
        free = np.nonzero(partner < 0)[0]
        _pair_uniformly(free, self._rng, partner)
        _weigh_edges(by_he, partner, free[free < partner[free]], self._dist, self._rng)
        off = _offsets(self.seq.degrees)
        return WeightedGraph(n=self.n, he_offset=off, he_owner=_owners(off),
                             partner=partner, edge_weight_by_he=by_he)


# Pairings sample_uniform_simple draws before it gives up.
_MAX_SIMPLE_ATTEMPTS = 10_000


def sample_uniform_simple(seq: DegreeSequence,
                          rng: np.random.Generator) -> tuple[WeightedGraph, int]:
    """Rejection-sample a uniform simple graph with the given degrees.

    Repeated pairing conditioned on no self-loops and no multi-edges is
    uniform over simple realizations. Returns (graph, attempts used).
    Raises after _MAX_SIMPLE_ATTEMPTS, reporting the observed acceptance rate.
    """
    for attempt in range(1, _MAX_SIMPLE_ATTEMPTS + 1):
        g = pair_configuration(seq, rng)
        if g.is_simple:
            return g, attempt
    raise GraphError(
        f"no simple pairing in {_MAX_SIMPLE_ATTEMPTS} attempts "
        f"(acceptance so far 0/{_MAX_SIMPLE_ATTEMPTS}); the degree sequence may admit "
        "no or vanishingly few simple realizations"
    )


RANK1_KINDS = ("nr", "grg", "cl")  # edge-independent kinds drawn from vertex weights


def _rank1_prob(kind: str, wi: np.ndarray, wj: np.ndarray, ell: float) -> np.ndarray:
    x = wi * wj / ell
    if kind == "nr":
        return -np.expm1(-x)
    if kind == "grg":
        return x / (1.0 + x)
    return np.minimum(x, 1.0)  # cl


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
    making p_ij <= q for every j past j0). Every row takes its steps in
    lock-step with the others, one numpy pass per round: bound, skip (when
    q < 1), thinning draw, then on to the next candidate; a row drops out
    once its candidate passes the last vertex.
    """
    if kind not in RANK1_KINDS:
        raise GraphError(f"rank-1 kind must be one of {RANK1_KINDS}, got {kind!r}")
    w = np.asarray(weights_w, dtype=float)
    if w.ndim != 1 or w.size < 2:
        raise GraphError("need at least two vertex weights")
    if np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise GraphError("vertex weights must be positive and finite")
    n = w.size
    ell = float(w.sum())

    order = np.argsort(-w, kind="stable")   # decreasing; stable for determinism
    ws = w[order]
    rows = np.arange(n - 1)
    cand = rows + 1
    us, vs = [], []
    while rows.size:
        q = np.minimum(ws[rows] * ws[cand] / ell, 1.0)
        # geometric skip: the number of consecutive rejections under q;
        # r = 0 gives an infinite skip, and the row drops out
        with np.errstate(divide="ignore", invalid="ignore"):
            skip = np.where(q < 1.0, np.log(rng.random(rows.size)) / np.log1p(-q), 0.0)
        stay = skip < n - cand
        rows, q = rows[stay], q[stay]
        cand = cand[stay] + skip[stay].astype(np.int64)
        hit = rng.random(rows.size) * q < _rank1_prob(kind, ws[rows], ws[cand], ell)
        us.append(rows[hit])
        vs.append(cand[hit])
        cand += 1
        stay = cand < n
        rows, cand = rows[stay], cand[stay]

    edges = np.column_stack([order[np.concatenate(us)], order[np.concatenate(vs)]])
    return build_from_edges(n, edges)


def build_from_edges(n: int, edges: np.ndarray) -> WeightedGraph:
    """Half-edge representation of an explicit edge list (loops allowed).

    The ends of the edge list, in the order u0, v0, u1, v1, ..., take their
    owner's half-edge ids in that order: a stable sort of the ends by owner.
    That sort is one plain sort of the distinct keys owner * size + position,
    whose order decodes as key % size, several times faster than a stable
    argsort.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        raise GraphError("edge endpoint out of range")
    ends = edges.ravel()
    size = ends.size
    if int(n) * size > np.iinfo(np.int64).max:
        raise GraphError(f"{size} half-edges on {n} vertices overflow the "
                         "int64 sort key")
    off = _offsets(np.bincount(ends, minlength=n).astype(np.int64))
    he = np.empty(size, dtype=np.int64)
    if size:
        positions = np.arange(size, dtype=np.int64)
        keys = ends * size
        keys += positions
        keys.sort()
        he[keys % size] = positions
    partner = np.empty(size, dtype=np.int64)
    _pair_off(he, partner)
    return WeightedGraph(n=n, he_offset=off, he_owner=_owners(off), partner=partner)


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
    _weigh_edges(by_he, g.partner, _lower_half_edges(g.partner), dist, rng)
    g.edge_weight_by_he = by_he
    return g


def _weigh_edges(by_he: np.ndarray, partner: np.ndarray, lo_he: np.ndarray,
                 dist: WeightDistribution, rng: np.random.Generator) -> None:
    """One sampler call for the edges with lower half-edges lo_he, in order."""
    draws = np.atleast_1d(sample_weight(dist, rng, lo_he.size))
    by_he[lo_he] = draws
    by_he[partner[lo_he]] = draws


def export_edge_list(g: WeightedGraph, path, seed: int = 0) -> None:
    """Text export: header 'n m seed', then one 'u v weight' line per edge;
    seed is the master seed the graph was drawn from, purely descriptive.

    Vertices are 1-based in the file. Weights print with repr round-trip
    fidelity; an unweighted graph exports weight 1 for every edge.
    """
    he = _lower_half_edges(g.partner)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{g.n} {g.edge_count} {seed}\n")
        for h in he:
            u = int(g.he_owner[h]) + 1
            v = int(g.he_owner[g.partner[h]]) + 1
            w = 1.0 if g.edge_weight_by_he is None else float(g.edge_weight_by_he[h])
            fh.write(f"{u} {v} {w!r}\n")


_PMF_ROWS = 32  # values of k summed in one pass, which bounds its temporaries
# power:3 vertex weights need 52,000 rows and take 27 s; the limit constants
# take two moments instead, so this bounds only bp_config_for's references
# (fpplab run, bp-sim) and gate 8
_PMF_MAX_K = 100_000


def mixed_poisson_pmf(dist: WeightDistribution) -> np.ndarray:
    """Limiting degree law of rank-1 graphs, P(D = k) = E[e^{-W} W^k / k!],
    up to the first k whose remaining mass is below 1e-15, renormalised.
    Read by montecarlo.bp_config_for (the references' offspring draws) and
    gate 8; the limit constants need only weights.moments.

    k runs to hi + 10 sqrt(hi) + 40, hi the 1 - 2^-53 quantile of W (at most
    _PMF_MAX_K, else GraphError). Each k is a row of the log-space Poisson
    kernel (p_{k-1} w/k underflows through e^{-w} for w > 745) on one layout,
    weights._mass_edges plus edges (j/2)^2 at the kernel's width, certified
    on halved cells to 1e-15 absolute or 1e-10 relative."""
    from scipy.special import gammaln, xlogy
    lo = dist.support_lo
    hi = weights._mass_edges(dist)[-1]
    if not hi + 10.0 * math.sqrt(hi) + 40.0 <= _PMF_MAX_K:
        raise GraphError(f"{dist!r} vertex weights put degree mass out to k = {hi:.3g}; "
                         f"the mixed-Poisson law is summed to k = {_PMF_MAX_K} at most")
    k = np.arange(int(hi + 10.0 * math.sqrt(hi)) + 41)
    lgk = gammaln(k + 1.0)[:, None, None]
    edges = weights._mass_edges(dist, (np.arange(1.0, 2.0 * math.sqrt(k[-1]) + 2.0) / 2.0) ** 2)

    def sums(e: np.ndarray) -> np.ndarray:
        out = np.empty(k.size)
        for r in range(0, k.size, _PMF_ROWS):
            rows = slice(r, r + _PMF_ROWS)

            def kernel(a, y):
                t = a + y
                with np.errstate(divide="ignore"):
                    x = np.multiply.outer(k[rows], np.log(t)) + (np.log(dist.density(t)) - t)
                return np.exp(x - lgk[rows])

            cells = weights._cells(kernel, e)
            head = dist.cdf(e[1]) - dist.cdf(lo)
            cells[:, 0] = np.exp(xlogy(k[rows], lo) - lo - lgk[rows, 0, 0]) * head
            out[rows] = cells.sum(axis=1)
        return out

    coarse, pmf = sums(edges), sums(weights._halved(edges))
    worst = np.abs(pmf - coarse) - np.maximum(1e-15, 1e-10 * pmf)
    if not worst.max() <= 0.0:
        i = int(np.argmax(worst))
        raise QuadratureError(f"mixed-Poisson pmf of {dist!r}: halving the cells moved "
                              f"P(D = {i}) from {coarse[i]:.6e} to {pmf[i]:.6e}")
    remaining = np.cumsum(pmf[::-1])[::-1] - pmf
    pmf = pmf[:int(np.argmax(remaining < 1e-15)) + 1]
    return pmf / pmf.sum()
