"""Two-source shortest-weight exploration of a weighted multigraph.

Both endpoints grow weight-balls simultaneously. The frontier is a set of
alive half-edges, each carrying (absolute death time, source cluster,
height); the next event is always the alive half-edge with the smallest
death time, popped from one shared heap. Dying at time T means: the edge it
sits on is traversed, its partner's vertex joins the dying half-edge's
cluster at height +1, and the new vertex's remaining half-edges are
classified against the current state:

  free partner elsewhere   -> alive, death = T + that edge's weight
  partner among siblings   -> self-loop at the new vertex, both consumed
  alive partner, same side -> cycle edge, both consumed
  alive partner, far side  -> collision: the clusters now see each other

A collision via an alive far-side half-edge with death time d certifies a
path of weight 2T + (d - T) and hops h_origin + h_dest + 1; the minimum
over collision records is the optimal weight between the sources, because
the two balls have jointly swept all paths of weight < 2T and every
inter-cluster bridge edge produces exactly one record. Processing events
past min(weight)/2 can only add records with larger weight, so early
stopping at that point is exact (and tested).

Why the partner of a dying half-edge is always free: a found vertex has
every half-edge alive or consumed, never free, and pairing consumption
always takes both sides of an edge together; so a free partner means an
unexplored vertex. step() checks that invariant on every event and raises
ExploreError, naming the half-edges, when a pairing breaks it.

The graph is either a WeightedGraph or a LazyPairing. The exploration calls
graph.reveal(v) whenever vertex v joins a cluster, before it reads the
partners and weights of v's half-edges; a lazy pairing draws them then.
"""
from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass, field
from heapq import heappop, heappush

import numpy as np

from .ctbp import CtbpConstants
from .graphs import LazyPairing, WeightedGraph

__all__ = [
    "ExploreError",
    "IsolatedEndpointError",
    "HorizonError",
    "CollisionRecord",
    "PathResult",
    "SwgState",
    "init",
    "step",
    "advance",
    "advance_ranked",
    "next_event_time",
    "run",
    "result",
    "measure_martingale",
    "standardize_marks",
]


class ExploreError(ValueError):
    """Bad exploration input, or a pairing that broke the cluster invariant."""


class IsolatedEndpointError(ExploreError):
    """An endpoint has no half-edges; nothing can be explored from it."""


class HorizonError(RuntimeError):
    """A probe time lies beyond the explored window of this trial."""


_FREE = object()   # sentinel: half-edge not yet touched


@dataclass(frozen=True)
class CollisionRecord:
    """One inter-cluster edge, observed the moment the balls touch it.

    time: when the origin-side half-edge died; source: the cluster it grew
    from; h_origin/h_dest: heights (hop distances from the two endpoints) of
    the two sides; remaining: the far half-edge's residual lifetime, so the
    certified path has weight 2*time + remaining and the stated hop count.
    """

    time: float
    source: int
    h_origin: int
    h_dest: int
    remaining: float

    @property
    def path_weight(self) -> float:
        return 2.0 * self.time + self.remaining

    @property
    def path_hops(self) -> int:
        return self.h_origin + self.h_dest + 1


@dataclass(frozen=True)
class PathResult:
    """Outcome of one two-source exploration."""

    connected: bool
    weight: float | None
    hops: int | None
    winner: CollisionRecord | None
    records: tuple
    ranked: tuple            # up to m records, ascending path weight
    ranked_complete: bool


class SwgState:
    """Mutable exploration state; build with init(), drive with step()/advance().

    he_state maps a touched half-edge id to (death, source, height) while
    alive and to None once consumed; untouched ids are absent. alive counts
    the alive half-edges of each cluster and last_time is the time of the
    latest event, so a state advanced to a probe time holds the probe's counts.
    """

    __slots__ = (
        "graph", "n", "sources", "he_state", "found", "heap", "alive",
        "collisions", "weights_sorted", "k", "last_time",
        "log_details", "detail_rows",
        "_off", "_owner", "_reveal", "_partner", "_weight",
    )

    def __init__(self, graph: WeightedGraph | LazyPairing, u1: int, u2: int,
                 log_details: bool):
        self.graph = graph
        self.n = graph.n
        self.sources = (u1, u2)
        self.he_state: dict = {}
        self.found: dict = {}
        self.heap: list = []
        self.alive = [0, 0, 0]          # index by source id 1/2
        self.collisions: list[CollisionRecord] = []
        self.weights_sorted: list[float] = []
        self.k = 0
        self.last_time = 0.0
        self.log_details = log_details
        self.detail_rows: list[tuple] = []
        self._off = graph.he_offset
        self._owner = graph.owner
        self._reveal = graph.reveal
        self._partner = graph.partner
        self._weight = graph.edge_weight_by_he

    # -- bookkeeping helpers ------------------------------------------------

    def _record_collision(self, rec: CollisionRecord) -> None:
        self.collisions.append(rec)
        insort(self.weights_sorted, rec.path_weight)

    def mth_best_weight(self, m: int) -> float:
        if len(self.weights_sorted) < m:
            return math.inf
        return self.weights_sorted[m - 1]

    def dump_events(self, fh) -> None:
        """Write the detail log, one line per logged item: k t type payload."""
        if not self.log_details:
            raise ExploreError("exploration was run without log_details")
        for row in self.detail_rows:
            fh.write(" ".join(str(x) for x in row) + "\n")


def init(g: WeightedGraph | LazyPairing, u1: int, u2: int, *,
         log_details: bool = False) -> SwgState:
    """Seed the state: endpoints join at height 0, their edges classified.

    Self-loops at an endpoint are consumed outright. A direct u1-u2 edge is
    already a collision at time 0 with heights (0, 0) and the full edge
    weight remaining (recorded on the second cluster by convention; labels
    are exchangeable). Everything else becomes alive with death time equal
    to the incident edge's weight.
    """
    if g.edge_weight_by_he is None:
        raise ExploreError("assign_weights() must run before exploration")
    if not (0 <= u1 < g.n and 0 <= u2 < g.n):
        raise ExploreError(f"endpoints ({u1}, {u2}) out of range for n={g.n}")
    if u1 == u2:
        raise ExploreError("the two sources must be distinct vertices")
    off = g.he_offset
    if off[u1] == off[u1 + 1]:
        raise IsolatedEndpointError(f"vertex {u1} has no half-edges")
    if off[u2] == off[u2 + 1]:
        raise IsolatedEndpointError(f"vertex {u2} has no half-edges")

    state = SwgState(g, u1, u2, log_details)
    g.reveal(u1)
    g.reveal(u2)
    partner = state._partner
    weight = state._weight
    he_state = state.he_state
    state.found[u1] = (1, 0, 0.0)
    state.found[u2] = (2, 0, 0.0)
    if log_details:
        state.detail_rows.append((0, 0.0, "vertex", u1, 1, 0))
        state.detail_rows.append((0, 0.0, "vertex", u2, 2, 0))

    for source, u, other in ((1, u1, u2), (2, u2, u1)):
        lo, hi = int(off[u]), int(off[u + 1])
        other_lo, other_hi = int(off[other]), int(off[other + 1])
        for x in range(lo, hi):
            if x in he_state:            # consumed by an earlier classification
                continue
            px = int(partner[x])
            if lo <= px < hi:
                # self-loop at the endpoint: burn both halves
                he_state[x] = None
                he_state[px] = None
            elif other_lo <= px < other_hi:
                # direct edge between the sources: collision at time zero
                he_state[x] = None
                he_state[px] = None
                rec = CollisionRecord(time=0.0, source=2, h_origin=0, h_dest=0,
                                      remaining=float(weight[x]))
                state._record_collision(rec)
                if log_details:
                    state.detail_rows.append((0, 0.0, "collision", x, px, rec.remaining))
            else:
                d = float(weight[x])
                he_state[x] = (d, source, 0)
                heappush(state.heap, (d, x))
                state.alive[source] += 1
    return state


def _prune(state: SwgState) -> None:
    heap = state.heap
    he_state = state.he_state
    while heap and he_state[heap[0][1]] is None:
        heappop(heap)


def next_event_time(state: SwgState) -> float:
    """Death time of the next alive half-edge; inf when exploration is done."""
    _prune(state)
    return state.heap[0][0] if state.heap else math.inf


def step(state: SwgState) -> bool:
    """Process one event; False when no alive half-edge remains.

    Ties on death time break toward the smaller half-edge id (the heap
    orders on the (time, id) pair). Raises ExploreError when the pairing
    breaks the cluster invariant (see the module docstring).
    """
    _prune(state)
    if not state.heap:
        return False
    t, y = heappop(state.heap)
    he_state = state.he_state
    _death, src, h = he_state[y]
    he_state[y] = None
    state.alive[src] -= 1
    state.last_time = t

    partner = state._partner
    weight = state._weight
    z = int(partner[y])
    # the partner of a dying half-edge leads to fresh territory (see module
    # docstring); the two checks below are the disjointness invariant
    if z in he_state:
        raise ExploreError(f"half-edge {y} died into half-edge {z}, which was "
                           "already touched")
    v = state._owner(z)
    if v in state.found:
        raise ExploreError(f"half-edge {y} died into vertex {v} (half-edge {z}), "
                           "which was already found; the clusters overlap")
    state._reveal(v)
    hv = h + 1
    state.found[v] = (src, hv, t)
    he_state[z] = None
    state.k += 1
    if state.log_details:
        state.detail_rows.append((state.k, t, "vertex", v, src, hv))

    n_added = n_self = n_cycle = n_collision = 0
    lo, hi = int(state._off[v]), int(state._off[v + 1])
    for x in range(lo, hi):
        if x == z:
            continue
        st = he_state.get(x, _FREE)
        if st is None:
            continue                     # second half of a sibling self-loop
        px = int(partner[x])
        pst = he_state.get(px, _FREE)
        if pst is None:
            raise ExploreError(f"free half-edge {x} of vertex {v} is paired to "
                               f"half-edge {px}, which was already consumed")
        if pst is _FREE:
            if lo <= px < hi:
                he_state[x] = None       # self-loop at the new vertex
                he_state[px] = None
                n_self += 1
                if state.log_details:
                    state.detail_rows.append((state.k, t, "cycle", x, px))
            else:
                d = t + float(weight[x])
                he_state[x] = (d, src, hv)
                heappush(state.heap, (d, x))
                state.alive[src] += 1
                n_added += 1
        else:
            pd, psrc, ph = pst
            he_state[x] = None
            he_state[px] = None
            state.alive[psrc] -= 1
            if psrc == src:
                n_cycle += 1
                if state.log_details:
                    state.detail_rows.append((state.k, t, "cycle", x, px))
            else:
                n_collision += 1
                rec = CollisionRecord(time=t, source=src, h_origin=hv,
                                      h_dest=ph, remaining=pd - t)
                if not rec.remaining >= 0.0:
                    raise ExploreError(
                        f"half-edge {px} died at {pd!r}, before the event at "
                        f"{t!r} that reached its partner {x}")
                state._record_collision(rec)
                if state.log_details:
                    state.detail_rows.append(
                        (state.k, t, "collision", x, px, rec.remaining))
    if n_added + n_cycle + n_collision + 2 * n_self != hi - lo - 1:
        raise ExploreError(
            f"the siblings of half-edge {z} at vertex {v} (half-edges "
            f"{lo}..{hi - 1}) classified as {n_added} alive, {n_cycle} cycle, "
            f"{n_collision} collision and {n_self} self-loop, which does not "
            f"add up to {hi - lo - 1}")
    return True


def advance(state: SwgState, until: float) -> None:
    """Process every event with time <= until (inf runs to exhaustion)."""
    while True:
        t = next_event_time(state)
        if t > until or t == math.inf:
            return
        step(state)


def advance_ranked(state: SwgState, m: int, min_horizon: float = 0.0) -> None:
    """Run until the next event cannot improve the m best paths.

    Exact stopping rule: any record born at time T has weight >= 2T, so
    once the m-th best weight w satisfies next_time > w/2 the ranking is
    final. min_horizon forces exploration at least that far regardless
    (probe and mark windows need it); passing 0 gives the pure rule.
    """
    if m < 1:
        raise ExploreError(f"need m >= 1, got {m}")
    while True:
        t = next_event_time(state)
        if t == math.inf:
            return
        if t > max(min_horizon, 0.5 * state.mth_best_weight(m)):
            return
        step(state)


def result(state: SwgState, m: int = 1) -> PathResult:
    """Summarize: winner, all records, and the m best (weight, hops) paths."""
    records = tuple(state.collisions)
    if not records:
        return PathResult(connected=False, weight=None, hops=None, winner=None,
                          records=(), ranked=(), ranked_complete=False)
    order = sorted(range(len(records)), key=lambda i: (records[i].path_weight, i))
    ranked = tuple(records[i] for i in order[:m])
    winner = ranked[0]
    return PathResult(connected=True, weight=winner.path_weight,
                      hops=winner.path_hops, winner=winner, records=records,
                      ranked=ranked, ranked_complete=len(ranked) >= m)


def run(g: WeightedGraph | LazyPairing, u1: int, u2: int, *, m: int = 1,
        min_horizon: float = 0.0, log_details: bool = False) -> PathResult:
    """Full exploration with the exact early stop; the one-call entry point."""
    state = init(g, u1, u2, log_details=log_details)
    advance_ranked(state, m, min_horizon)
    return result(state, m)


def measure_martingale(state: SwgState, g: WeightedGraph, alpha_n: float
                       ) -> tuple[float, float, float]:
    """(s_n, W1, W2): rescaled cluster sizes at the probe time.

    s_n = log(log n)/alpha_n and W_i = e^{-alpha_n s_n} * (alive half-edges
    of cluster i at s_n), read from the live counts. The state must sit at
    the probe, i.e. advance(state, s_n) ran and nothing after it: the last
    event at or before s_n and the next one after it.
    """
    n = g.n
    if n < 3:
        raise ExploreError("probe time needs log(log n) > 0, so n >= 3")
    s_n = math.log(math.log(n)) / alpha_n
    horizon = next_event_time(state)
    if not state.last_time <= s_n < horizon:
        raise HorizonError(f"probe time {s_n:.6g} is not where the state sits: "
                           f"the last event was at {state.last_time:.6g} and "
                           f"the next is at {horizon:.6g}")
    scale = math.exp(-alpha_n * s_n)
    return s_n, scale * state.alive[1], scale * state.alive[2]


def standardize_marks(records, consts: CtbpConstants, n: int, w1: float, w2: float,
                      *, limit_consts: CtbpConstants | None = None) -> np.ndarray:
    """Collision records -> (k, 5) array of standardized marks.

    Columns: recentred time T - tbar_n with tbar_n = t_n - log(w1 w2)/(2 alpha_n)
    and t_n = log(n)/(2 alpha_n); source label; both heights centered at
    t_n/nu_bar_n and scaled by sqrt(sigma_bar_sq * t_n / nu_bar^3) using the
    limiting constants (pass limit_consts when they differ from the
    n-level ones); and the raw remaining lifetime.
    """
    if w1 <= 0.0 or w2 <= 0.0:
        raise ExploreError("mark centering needs both growth limits positive "
                           f"(got W1={w1!r}, W2={w2!r})")
    lim = limit_consts if limit_consts is not None else consts
    t_n = math.log(n) / (2.0 * consts.alpha)
    tbar = t_n - math.log(w1 * w2) / (2.0 * consts.alpha)
    center_h = t_n / consts.nu_bar
    spread_h = math.sqrt(lim.sigma_bar_sq * t_n / lim.nu_bar ** 3)
    out = np.empty((len(records), 5))
    for i, rec in enumerate(records):
        out[i, 0] = rec.time - tbar
        out[i, 1] = rec.source
        out[i, 2] = (rec.h_origin - center_h) / spread_h
        out[i, 3] = (rec.h_dest - center_h) / spread_h
        out[i, 4] = rec.remaining
    return out
