"""Two-source shortest-weight exploration of a weighted multigraph.

Both endpoints grow weight-balls simultaneously. The frontier is a set of
alive half-edges, each one tuple (absolute death time, id, source cluster,
height, partner id); the next event is always the alive half-edge with the
smallest death time, popped from one shared heap. Dying at time T means:
the edge it sits on is traversed, its partner's vertex joins the dying
half-edge's cluster at height +1, and the new vertex's remaining half-edges
are classified against the current state. An endpoint is the root of its
cluster: it joins at time 0 and height 0 with no half-edge spent, through
the same body, so all of its half-edges are classified:

  free partner elsewhere   -> alive, death = T + that edge's weight
  partner among siblings   -> self-loop at the new vertex, both consumed
  alive partner, same side -> cycle edge, both consumed
  alive partner, far side  -> collision: the clusters now see each other

A collision via an alive far-side half-edge with death time d certifies a
path of weight 2T + (d - T) and hops h_origin + h_dest + 1. A direct edge
between the endpoints is such a collision at time 0: u1 joins first and
makes the edge alive, and u2's half-edge meets it with the whole edge
weight remaining, so the record belongs to source 2. The minimum
over collision records is the optimal weight between the sources, because
the two balls have jointly swept all paths of weight < 2T and every
inter-cluster bridge edge produces exactly one record. Processing events
past min(weight)/2 can only add records with larger weight, so early
stopping at that point is exact (and tested). A record also needs an alive
half-edge on the far side, so once either cluster is closed (every
half-edge it has is consumed: a degree-1 endpoint whose edge met the other
cluster, or a small component explored to its end) no event can add one,
and the ranked run stops there too, before any min_horizon.

Why the partner of a dying half-edge is always free: a found vertex has
every half-edge alive or consumed, never free, and pairing consumption
always takes both sides of an edge together; so a free partner means an
unexplored vertex. Every event checks that invariant on the partner its
tuple carries. The one body that classifies a joining vertex, endpoint or
not, checks that no partner it reaches is already consumed and that the
classes add up to the vertex's free half-edges. ExploreError, naming the
half-edges, is raised when a pairing breaks any of these.

The graph is either a WeightedGraph or a LazyPairing. The state binds the
graph's lookups() once: a vertex's half-edge range, a half-edge's owner and
partner, an edge's weight and, on a lazy pairing, the blocks of partner ids
and weights that a half-edge not yet paired draws from. A joining vertex is
walked once: each of its half-edges is looked up (or paired), classified and
pushed in the same pass. That pass is the body of one loop, which init's
endpoint joins, step(), advance() and advance_ranked() all run.
"""
from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from .ctbp import Centring, CtbpConstants
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

    An alive half-edge is one tuple (death, id, source, height, partner):
    he_state maps its id to that tuple, and the same tuple sits in the heap,
    which orders on (death, id). he_state maps a consumed id to None;
    untouched ids are absent, so len(he_state) counts touched half-edges,
    and every half-edge of a vertex in either cluster is touched. alive
    counts the alive half-edges of each cluster and last_time is the time
    of the latest event, so a state advanced to a probe time holds the
    probe's counts.
    """

    __slots__ = (
        "graph", "he_state", "heap", "alive", "collisions", "weights_sorted",
        "k", "last_time", "log_details", "detail_rows", "_lookups",
    )

    def __init__(self, graph: WeightedGraph | LazyPairing, log_details: bool):
        self.graph = graph
        self.he_state: dict = {}
        self.heap: list = []
        self.alive = [0, 0, 0]          # index by source id 1/2
        self.collisions: list[CollisionRecord] = []
        self.weights_sorted: list[float] = []
        self.k = 0
        self.last_time = 0.0
        self.log_details = log_details
        self.detail_rows: list[tuple] = []
        self._lookups = graph.lookups()

    def dump_events(self, fh) -> None:
        """Write the detail log, one line per logged item: k t type payload."""
        if not self.log_details:
            raise ExploreError("exploration was run without log_details")
        for row in self.detail_rows:
            fh.write(" ".join(str(x) for x in row) + "\n")


def init(g: WeightedGraph | LazyPairing, u1: int, u2: int, *,
         log_details: bool = False) -> SwgState:
    """Seed the state: u1, then u2, joins at time 0 and height 0.

    Each endpoint runs the event loop's pass with no half-edge spent, so its
    edges are classified as every later vertex's are: a self-loop is
    consumed and logged as a cycle, any other edge becomes alive with death
    time equal to its weight, and a direct u1-u2 edge, alive since u1
    joined, is an ordinary collision when u2 joins: time 0, heights (0, 0),
    the full edge weight remaining, source 2. The direct edge leaves u1's
    consumed entry in the heap, which the event loop skips.
    """
    if g.edge_weight_by_he is None:
        raise ExploreError("assign_weights() must run before exploration")
    if not (0 <= u1 < g.n and 0 <= u2 < g.n):
        raise ExploreError(f"endpoints ({u1}, {u2}) out of range for n={g.n}")
    if u1 == u2:
        raise ExploreError("the two sources must be distinct vertices")
    for u in (u1, u2):
        if g.degree(u) == 0:
            raise IsolatedEndpointError(f"vertex {u} has no half-edges")

    state = SwgState(g, log_details)
    _run(state, 0.0, 0, 0, [(1, u1), (2, u2)])
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
    _run(state, math.inf, 0, 1, [])
    return True


def _run(state: SwgState, until: float, m: int, events: float, roots: list) -> None:
    """The event loop of init, step, advance (m = 0) and advance_ranked (m >= 1).

    Each (source, vertex) of roots first joins at time 0 and height 0, with
    no half-edge spent and no event counted. Then the loop stops before the
    next event, at time t, once it has run `events` events, or when
    t > until and, for m >= 1, at least m records exist and t exceeds half
    the m-th best path weight. For m >= 1 it also stops, whatever until is,
    once either cluster is closed (no alive half-edge left): a record needs
    an alive half-edge on the far side, so no event can add one.

    A joining vertex v is walked once: each free half-edge x is looked up,
    or paired on a lazy pairing, and classified at once (see the module
    docstring); then the classes must add up to v's free half-edges.
    """
    half_edges, owner, partner_of, weight_of, partner, weight, ids, draws = state._lookups
    heap = state.heap
    he_state = state.he_state
    ws = state.weights_sorted
    alive = state.alive
    log = state.detail_rows if state.log_details else None
    k = state.k
    t = state.last_time
    try:
        while True:
            if roots:
                src, v = roots.pop(0)
                hv, z = 0, None
            else:
                if not events or not heap or (m and not (alive[1] and alive[2])):
                    return
                entry = heap[0]
                _, y, src, h, z = entry
                if he_state[y] is None:      # consumed since it was pushed
                    heappop(heap)
                    continue
                if entry[0] > until and (not m or (len(ws) >= m
                                                   and entry[0] > 0.5 * ws[m - 1])):
                    return
                heappop(heap)
                events -= 1
                t = entry[0]
                he_state[y] = None
                alive[src] -= 1
                # the partner of a dying half-edge leads to fresh territory
                # (see module docstring): every half-edge of a found vertex is
                # touched, so this one check is the disjointness invariant
                if z in he_state:
                    raise ExploreError(f"half-edge {y} died into half-edge {z}, "
                                       "which was already touched")
                he_state[z] = None
                v = owner(z)
                k += 1
                hv = h + 1
            if log is not None:
                log.append((k, t, "vertex", v, src, hv))
            lo, hi = half_edges(v)
            n_added = n_self = n_cycle = n_collision = 0
            for x in range(lo, hi):
                if x in he_state:
                    continue                 # z, or the 2nd half of a self-loop
                px = partner_of(x)
                if px is None:               # a lazy pairing draws an untouched px
                    while True:
                        if not ids:
                            state.graph.draw_ids()
                        px = ids.pop()
                        if px not in partner and px != x:
                            break
                    if not draws:
                        state.graph.draw_weights()
                    w = draws.pop()
                    partner[x] = px
                    partner[px] = x
                    weight[x if x < px else px] = w
                elif px in he_state:
                    pst = he_state[px]
                    if pst is None:
                        raise ExploreError(
                            f"free half-edge {x} of vertex {v} is paired to "
                            f"half-edge {px}, which was already consumed")
                    he_state[x] = None
                    he_state[px] = None
                    alive[pst[2]] -= 1
                    if pst[2] == src:
                        n_cycle += 1
                        if log is not None:
                            log.append((k, t, "cycle", x, px))
                        continue
                    n_collision += 1
                    rec = CollisionRecord(time=t, source=src, h_origin=hv,
                                          h_dest=pst[3], remaining=pst[0] - t)
                    if not rec.remaining >= 0.0:
                        raise ExploreError(
                            f"half-edge {px} died at {pst[0]!r}, before the "
                            f"event at {t!r} that reached its partner {x}")
                    state.collisions.append(rec)
                    insort(ws, rec.path_weight)
                    if log is not None:
                        log.append((k, t, "collision", x, px, rec.remaining))
                    continue
                else:
                    w = weight_of(x if x < px else px)
                if lo <= px < hi:
                    he_state[x] = None       # self-loop at the new vertex
                    he_state[px] = None
                    n_self += 1
                    if log is not None:
                        log.append((k, t, "cycle", x, px))
                else:
                    new = (t + w, x, src, hv, px)
                    he_state[x] = new
                    heappush(heap, new)
                    n_added += 1
            alive[src] += n_added
            free = hi - lo - (z is not None)
            if n_added + n_cycle + n_collision + 2 * n_self != free:
                raise ExploreError(
                    f"the free half-edges of vertex {v} (half-edges "
                    f"{lo}..{hi - 1}) classified as {n_added} alive, {n_cycle} "
                    f"cycle, {n_collision} collision and {n_self} self-loop, "
                    f"which does not add up to {free}")
    finally:
        state.k = k
        state.last_time = t


def advance(state: SwgState, until: float) -> None:
    """Process every event with time <= until (inf runs to exhaustion)."""
    _run(state, until, 0, math.inf, [])


def advance_ranked(state: SwgState, m: int, min_horizon: float = 0.0) -> None:
    """Run until the next event cannot improve the m best paths.

    Exact stopping rule: any record born at time T has weight >= 2T, so
    once the m-th best weight w satisfies next_time > w/2 the ranking is
    final. min_horizon forces exploration at least that far regardless
    (probe and mark windows need it); passing 0 gives the pure rule. Neither
    outlasts a closed cluster: once either cluster has no alive half-edge,
    no record can arise, so the run returns at once. advance(state, inf)
    is the exhaustive run.
    """
    if m < 1:
        raise ExploreError(f"need m >= 1, got {m}")
    _run(state, min_horizon, m, math.inf, [])


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
    """Exploration with the exact early stops; the one-call entry point.

    min_horizon does not outlast a closed cluster (see advance_ranked).
    """
    state = init(g, u1, u2, log_details=log_details)
    advance_ranked(state, m, min_horizon)
    return result(state, m)


def measure_martingale(state: SwgState, alpha_n: float
                       ) -> tuple[float, float, float]:
    """(s_n, W1, W2): rescaled cluster sizes at the probe time.

    s_n = log(log n)/alpha_n and W_i = e^{-alpha_n s_n} * (alive half-edges
    of cluster i at s_n), read from the live counts. The state must sit at
    the probe, i.e. advance(state, s_n) ran and nothing after it: the last
    event at or before s_n and the next one after it.
    """
    n = state.graph.n
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


def standardize_marks(records, consts: Centring, n: int, w1: float, w2: float,
                      *, limit_consts: CtbpConstants) -> np.ndarray:
    """Collision records -> (k, 5) array of standardized marks.

    Columns: recentred time T - tbar_n with tbar_n = t_n - log(w1 w2)/(2 alpha_n)
    and t_n = log(n)/(2 alpha_n); source label; both heights centered at
    t_n/nu_bar_n and scaled by sqrt(sigma_bar_sq * t_n / nu_bar^3) using the
    limiting constants (limit_consts); and the raw remaining lifetime. Only
    alpha and nu_bar are read from consts (the n-level ones).
    """
    if w1 <= 0.0 or w2 <= 0.0:
        raise ExploreError("mark centering needs both growth limits positive "
                           f"(got W1={w1!r}, W2={w2!r})")
    t_n = math.log(n) / (2.0 * consts.alpha)
    tbar = t_n - math.log(w1 * w2) / (2.0 * consts.alpha)
    center_h = t_n / consts.nu_bar
    spread_h = math.sqrt(limit_consts.sigma_bar_sq * t_n / limit_consts.nu_bar ** 3)
    out = np.empty((len(records), 5))
    for i, rec in enumerate(records):
        out[i, 0] = rec.time - tbar
        out[i, 1] = rec.source
        out[i, 2] = (rec.h_origin - center_h) / spread_h
        out[i, 3] = (rec.h_dest - center_h) / spread_h
        out[i, 4] = rec.remaining
    return out
