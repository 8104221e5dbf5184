"""Two-source exploration: hand traces, Dijkstra equivalence, early stop."""

import io
import math
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from fpplab import degrees, dijkstra, explore, graphs, weights


def philox(key):
    return np.random.Generator(np.random.Philox(key=key))


def triangle():
    """Three vertices: 0-1 weight 1, 1-2 weight 2, 0-2 weight 5.

    Best 0-to-2 path runs through vertex 1: weight 3, two hops. The direct
    edge is a time-zero collision worth 5.
    """
    g = graphs.build_from_edges(3, [(0, 1), (1, 2), (0, 2)])
    g.edge_weight_by_he = np.array([1.0, 5.0, 1.0, 2.0, 2.0, 5.0])
    return g


def test_triangle_hand_trace():
    res = explore.run(triangle(), 0, 2)
    assert res.connected
    assert res.weight == 3.0
    assert res.hops == 2
    assert len(res.records) == 2

    by_time = sorted(res.records, key=lambda r: r.time)
    direct, via = by_time
    # direct edge: collision at time zero, full weight remaining
    assert direct.time == 0.0
    assert (direct.h_origin, direct.h_dest) == (0, 0)
    assert direct.remaining == 5.0
    assert direct.path_weight == 5.0
    assert direct.path_hops == 1
    # the real winner: vertex 1 joins cluster 1 at t = 1, its sibling
    # half-edge is paired to the alive far side whose death time is 2
    assert via.time == 1.0
    assert via.source == 1
    assert (via.h_origin, via.h_dest) == (1, 0)
    assert via.remaining == 1.0
    assert via.path_weight == 3.0
    assert via.path_hops == 2
    assert res.winner == via


def test_single_edge_graph():
    g = graphs.build_from_edges(2, [(0, 1)])
    g.edge_weight_by_he = np.array([3.5, 3.5])
    res = explore.run(g, 0, 1)
    assert res.connected
    assert res.weight == 3.5
    assert res.hops == 1
    rec = res.winner
    assert rec.time == 0.0 and rec.source == 2 and rec.remaining == 3.5


def test_disconnected_pair():
    g = graphs.build_from_edges(4, [(0, 1), (2, 3)])
    g.edge_weight_by_he = np.array([1.0, 1.0, 1.0, 1.0])
    res = explore.run(g, 0, 2)
    assert not res.connected
    assert res.weight is None and res.hops is None
    assert res.records == ()


def test_endpoint_validation():
    g = triangle()
    with pytest.raises(explore.ExploreError):
        explore.run(g, 1, 1)
    with pytest.raises(explore.ExploreError):
        explore.run(g, 0, 7)
    bare = graphs.build_from_edges(3, [(0, 1)])
    bare.edge_weight_by_he = np.array([1.0, 1.0])
    with pytest.raises(explore.IsolatedEndpointError):
        explore.run(bare, 0, 2)


def test_broken_pairing_raises_under_optimize():
    # the invariant checks must survive python -O, which strips asserts.
    # First graph: on the path 0-1-2-3, vertex 1's second half-edge is
    # re-pointed at the half-edge that just died into vertex 1. Second:
    # half-edge 1 of source 0 is re-pointed at vertex 1's second half-edge,
    # which is alive by the time half-edge 1 dies into it. Third: the same
    # half-edge is re-pointed at vertex 1's first half-edge, consumed when
    # vertex 1 was found, so it dies into a found vertex through a dead end.
    # Fourth: source 0's only edge is a self-loop, and half-edge 2 of source
    # 1 points at half-edge 1 of that loop; the endpoints join through the
    # event body, so the broken pairing is caught before any event runs.
    # Fifth: a lazy pairing on the path 0-1-2 whose dicts are seeded so that
    # vertex 1's second half-edge points back at half-edge 0, which died
    # into vertex 1: its partner lookup meets a consumed half-edge
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from fpplab import degrees, explore, graphs, weights

        if not sys.flags.optimize:
            sys.exit("not running under -O")
        path = graphs.build_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        path.edge_weight_by_he = np.array([1.0, 1.0, 5.0, 5.0, 9.0, 9.0])
        path.partner[2] = 0
        chord = graphs.build_from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        chord.edge_weight_by_he = np.array([1.0, 5.0, 1.0, 9.0, 5.0, 9.0,
                                            20.0, 20.0])
        chord.partner[1] = 3
        found = graphs.build_from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        found.edge_weight_by_he = chord.edge_weight_by_he
        found.partner[1] = 2
        loop = graphs.build_from_edges(3, [(0, 0), (1, 2), (1, 2)])
        loop.edge_weight_by_he = np.ones(6)
        loop.partner[:] = [1, 0, 1, 4, 3, 2]
        lazy = graphs.LazyPairing(degrees.DegreeSequence.from_degrees([1, 2, 1]),
                                  weights.exponential(1.0),
                                  np.random.default_rng(0))
        lazy.partner.update({0: 1, 1: 0, 2: 0, 3: 2})
        lazy.edge_weight_by_he.update({0: 1.0, 2: 5.0})
        for g, u, v in ((path, 0, 3), (chord, 0, 3), (found, 0, 3), (loop, 0, 1),
                        (lazy, 0, 2)):
            try:
                explore.run(g, u, v)
            except explore.ExploreError as exc:
                print(exc)
            else:
                sys.exit("no ExploreError")
    """)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    path_msg, chord_msg, found_msg, loop_msg, lazy_msg = done.stdout.splitlines()
    assert "free half-edge 2 of vertex 1" in path_msg
    assert "half-edge 0" in path_msg
    assert "half-edge 1 died into half-edge 3, which was already touched" in chord_msg
    assert "half-edge 1 died into half-edge 2, which was already touched" in found_msg
    assert ("free half-edge 2 of vertex 1 is paired to half-edge 1, which was "
            "already consumed") in loop_msg
    assert ("free half-edge 2 of vertex 1 is paired to half-edge 0, which was "
            "already consumed") in lazy_msg


def test_weights_required():
    g = graphs.build_from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(explore.ExploreError):
        explore.run(g, 0, 2)


def random_weighted_graph(key, n_lo=4, n_hi=40):
    rng = philox(key)
    n = int(rng.integers(n_lo, n_hi + 1))
    pmf = {1: 0.2, 2: 0.3, 3: 0.4, 4: 0.1}
    seq = degrees.build_iid(pmf, n, rng)
    g = graphs.pair_configuration(seq, rng)
    graphs.assign_weights(g, weights.exponential(1.0), rng)
    u = int(rng.integers(g.n))
    v = int(rng.integers(g.n - 1))
    if v >= u:
        v += 1
    return g, u, v


def test_exploration_matches_dijkstra_on_mini_corpus():
    checked = 0
    for key in range(60):
        g, u, v = random_weighted_graph(key)
        ref = dijkstra.shortest_path(g, u, v)
        res = explore.run(g, u, v)
        if ref is None:
            assert not res.connected
            continue
        checked += 1
        assert res.connected
        assert res.hops == ref[1]
        assert res.weight == pytest.approx(ref[0], rel=1e-12)
    assert checked >= 20


def exhausted(g, u, v):
    """A state advanced to inf: no early stop of any kind."""
    state = explore.init(g, u, v)
    explore.advance(state, math.inf)
    return state


def test_early_stop_equals_exhaustive():
    for key in range(25):
        g, u, v = random_weighted_graph(key + 1000)
        fast = explore.run(g, u, v)
        full = explore.result(exhausted(g, u, v))
        assert fast.connected == full.connected
        if fast.connected:
            assert fast.weight == full.weight
            assert fast.hops == full.hops


def weighted_graph(n, edges, w):
    """build_from_edges, with edge i weighing w[i] on both its half-edges."""
    g = graphs.build_from_edges(n, edges)
    ends = np.asarray(edges, dtype=np.int64).ravel()
    he = np.empty(ends.size, dtype=np.int64)
    he[np.argsort(ends, kind="stable")] = np.arange(ends.size)
    g.edge_weight_by_he = np.empty(ends.size)
    g.edge_weight_by_he[he] = np.repeat(np.asarray(w, dtype=float), 2)
    return g


def test_degree_one_endpoint_closes_on_its_only_edge():
    # endpoint 0 has one edge, to vertex 2; the far cluster reaches 2 first
    # (t = 1) and consumes that edge, so cluster 1 is closed with one record
    # and the 7-cycle behind endpoint 1 holds no other
    ring = [(3 + i, 3 + (i + 1) % 7) for i in range(7)]
    g = weighted_graph(10, [(0, 2), (1, 2), (1, 3)] + ring, [5.0, 1.0, 1.5] + [1.0] * 7)
    state = explore.init(g, 0, 1)
    explore.advance_ranked(state, 3)
    res = explore.result(state, 3)
    full = exhausted(g, 0, 1)
    assert state.alive[1] == 0 and state.alive[2] > 0
    assert len(res.records) == 1 and not res.ranked_complete
    assert (res.weight, res.hops) == (6.0, 2)
    assert state.k == 1 and full.k == 8
    assert res == explore.result(full, 3)
    # min_horizon does not outlast a closed cluster
    assert explore.run(g, 0, 1, m=3, min_horizon=math.inf) == res


@pytest.mark.parametrize("u, v, closing", [(0, 3, 1), (3, 0, 2)])
def test_closed_small_component_ends_the_run(u, v, closing):
    # vertex 0 sits on a 3-vertex path, vertex 3 on a 30-cycle: no record
    # can exist, and the run ends once the path's cluster is closed
    edges = [(0, 1), (1, 2)] + [(3 + i, 3 + (i + 1) % 30) for i in range(30)]
    g = weighted_graph(33, edges, philox(5).exponential(size=len(edges)))
    state = explore.init(g, u, v)
    explore.advance_ranked(state, 1, min_horizon=math.inf)
    full = exhausted(g, u, v)
    assert state.alive[closing] == 0 and state.alive[3 - closing] > 0
    assert 2 <= state.k < full.k == 31
    assert explore.result(state) == explore.result(full)
    assert not explore.result(state).connected


def test_lazy_closed_cluster_run_equals_exhaustive_materialized():
    # iid degrees with many 1s: endpoints often close. A closed run must
    # equal exhausting the completed graph outright; a ranked stop must
    # agree on the ranked paths. With fewer than m records the ranked stop
    # cannot fire, so only the closed-cluster stop saves events there
    closed = saved = 0
    for key in range(40):
        rng = philox(3000 + key)
        seq = degrees.build_iid({1: 0.4, 2: 0.2, 3: 0.4}, 300, rng)
        g = graphs.LazyPairing(seq, weights.exponential(1.0), rng)
        u = int(rng.integers(g.n))
        v = int(rng.integers(g.n - 1))
        v += v >= u
        state = explore.init(g, u, v)
        explore.advance_ranked(state, 3)
        lazy = explore.result(state, 3)
        full = exhausted(g.materialize(), u, v)
        if state.alive[1] and state.alive[2]:
            assert lazy.ranked == explore.result(full, 3).ranked
            continue
        closed += 1
        if len(lazy.records) < 3:
            saved += full.k - state.k
        assert lazy == explore.result(full, 3)
    assert closed >= 10 and saved > 0


def test_ranked_paths_on_cycle():
    # a 5-cycle has exactly two routes between adjacent vertices; asking
    # for three must return both and admit the third does not exist
    edges = [(i, (i + 1) % 5) for i in range(5)]
    g = graphs.build_from_edges(5, edges)
    w = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    # enumerate edges by ascending lower half-edge id (matches build order
    # here) and give both half-edges of edge i the weight w[i]
    whe = np.empty(10)
    idx = 0
    for he in range(10):
        p = int(g.partner[he])
        if p < he:
            continue
        whe[he] = whe[p] = w[idx]
        idx += 1
    g.edge_weight_by_he = whe
    res = explore.run(g, 0, 1, m=3)
    assert res.connected
    assert res.weight == 1.0 and res.hops == 1
    assert len(res.records) == 2
    second = res.ranked[1]
    assert second.path_weight == pytest.approx(14.0)   # 2+3+4+5 the long way
    assert second.path_hops == 4
    assert not res.ranked_complete


def test_ranked_first_equals_winner():
    for key in range(10):
        g, u, v = random_weighted_graph(key + 2000)
        res = explore.run(g, u, v, m=3)
        if res.connected:
            assert res.ranked[0] == res.winner
            ws = [r.path_weight for r in res.ranked]
            assert ws == sorted(ws)


def test_martingale_probe_values():
    # triangle at alpha = 1: probe time log(log 3) ~ 0.094 precedes every
    # event, so each cluster still holds exactly one alive half-edge
    g = triangle()
    state = explore.init(g, 0, 2)
    explore.advance(state, math.log(math.log(3.0)))
    s_n, w1, w2 = explore.measure_martingale(state, 1.0)
    assert s_n == pytest.approx(math.log(math.log(3.0)))
    scale = math.exp(-s_n)
    assert w1 == pytest.approx(scale)
    assert w2 == pytest.approx(scale)


def test_martingale_probe_rejects_state_past_probe():
    # the probe reads the live alive counts, so a state advanced beyond
    # s_n no longer holds them
    g = triangle()
    state = explore.init(g, 0, 2)
    explore.advance(state, math.inf)
    with pytest.raises(explore.HorizonError):
        explore.measure_martingale(state, 1.0)


def test_martingale_probe_window_enforced():
    g = triangle()
    state = explore.init(g, 0, 2)
    # probe at alpha = 0.05 sits at t = 1.88 but nothing has been processed
    with pytest.raises(explore.HorizonError):
        explore.measure_martingale(state, 0.05)
    tiny = graphs.build_from_edges(2, [(0, 1)])
    tiny.edge_weight_by_he = np.array([1.0, 1.0])
    state2 = explore.init(tiny, 0, 1)
    with pytest.raises(explore.ExploreError):
        explore.measure_martingale(state2, 1.0)   # needs n >= 3


def test_standardize_marks_columns():
    consts = __import__("fpplab.ctbp", fromlist=["constants"]).constants(
        4.0, 3.0, weights.exponential(1.0))
    n = 10 ** 4
    rec = explore.CollisionRecord(time=2.5, source=2, h_origin=7, h_dest=6,
                                  remaining=0.8)
    out = explore.standardize_marks([rec], consts, n, 1.5, 0.5, limit_consts=consts)
    t_n = math.log(n) / (2.0 * consts.alpha)
    tbar = t_n - math.log(1.5 * 0.5) / (2.0 * consts.alpha)
    center = t_n / consts.nu_bar
    spread = math.sqrt(consts.sigma_bar_sq * t_n / consts.nu_bar ** 3)
    assert out.shape == (1, 5)
    assert out[0, 0] == pytest.approx(2.5 - tbar)
    assert out[0, 1] == 2.0
    assert out[0, 2] == pytest.approx((7 - center) / spread)
    assert out[0, 3] == pytest.approx((6 - center) / spread)
    assert out[0, 4] == 0.8


def test_endpoints_join_through_the_event_body():
    # vertex 0: a self-loop (half-edges 0, 1) and half-edge 2 to vertex 1;
    # vertex 1: half-edge 3 back to 0 and half-edge 4 to vertex 2
    g = graphs.build_from_edges(3, [(0, 0), (0, 1), (1, 2)])
    g.edge_weight_by_he = np.array([0.5, 0.5, 2.0, 2.0, 1.0, 1.0])
    state = explore.init(g, 0, 1, log_details=True)
    explore.advance(state, math.inf)
    # the endpoint's self-loop is a cycle row, as at any other vertex, and
    # the direct edge, alive since u1 joined, is a collision when u2 joins,
    # logged with u2's half-edge first and recorded on source 2
    assert state.detail_rows == [
        (0, 0.0, "vertex", 0, 1, 0),
        (0, 0.0, "cycle", 0, 1),
        (0, 0.0, "vertex", 1, 2, 0),
        (0, 0.0, "collision", 3, 2, 2.0),
        (1, 1.0, "vertex", 2, 2, 1),
    ]
    rec, = state.collisions
    assert (rec.time, rec.source, rec.h_origin, rec.h_dest, rec.remaining) == (
        0.0, 2, 0, 0, 2.0)
    assert state.k == 1 and state.alive == [0, 0, 0]
    assert len(state.he_state) == 6


def test_event_log_round_trip():
    state = explore.init(triangle(), 0, 2, log_details=True)
    explore.advance(state, math.inf)
    buf = io.StringIO()
    state.dump_events(buf)
    lines = buf.getvalue().strip().split("\n")
    assert len(lines) >= 4
    assert any("collision" in ln for ln in lines)
    assert any("vertex" in ln for ln in lines)

    silent = explore.init(triangle(), 0, 2)
    with pytest.raises(explore.ExploreError):
        silent.dump_events(io.StringIO())


# ---------------------------------------------------------------------------
# event order guards: seeded instances whose full event logs sit in tests/data

DATA = pathlib.Path(__file__).resolve().parent / "data"
EVENT_LOG_CASES = ("lazy_regular", "lazy_iid", "unit_edges")


def event_log_instance(name):
    """(graph, u1, u2) of one seeded guard instance, built afresh."""
    if name == "lazy_regular":
        seq = degrees.regular(4, 500)
        return graphs.LazyPairing(seq, weights.exponential(1.0), philox(901)), 0, 250
    if name == "lazy_iid":
        # few vertices, high degrees: the explored part has self-loops and
        # multi-edges
        rng = philox(902)
        seq = degrees.build_iid({1: 0.2, 3: 0.3, 6: 0.5}, 80, rng)
        return graphs.LazyPairing(seq, weights.exponential(1.0), rng), 0, 1
    # every weight 1.0: death times tie all the time, so the id tie-break
    # decides the event order
    g = graphs.build_from_edges(60, philox(903).integers(60, size=(150, 2)))
    g.edge_weight_by_he = np.ones(g.half_edge_count)
    return g, 0, 1


def event_log(name):
    """(graph, dump_events text) of an exploration run to exhaustion."""
    g, u, v = event_log_instance(name)
    state = explore.init(g, u, v, log_details=True)
    explore.advance(state, math.inf)
    buf = io.StringIO()
    state.dump_events(buf)
    return g, buf.getvalue()


@pytest.mark.parametrize("name", EVENT_LOG_CASES)
def test_event_log_matches_recorded(name):
    # the recorded logs were written by event_log() before the exploration
    # kept one tuple per alive half-edge; a changed event order, tie-break
    # or lazy draw changes a byte
    g, text = event_log(name)
    assert text == (DATA / f"events_{name}.txt").read_text(encoding="utf-8")
    if name == "lazy_iid":
        pairs = [(g.owner(x), g.owner(y)) for x, y in g.partner.items() if x < y]
        assert any(a == b for a, b in pairs)
        assert len(set(pairs)) < len(pairs)


@pytest.mark.parametrize("name", EVENT_LOG_CASES)
def test_step_alone_matches_advance_ranked(name):
    m = 3
    stepped = explore.init(*event_log_instance(name), log_details=True)
    while True:
        t = explore.next_event_time(stepped)
        w = sorted(r.path_weight for r in stepped.collisions)
        if t == math.inf or (len(w) >= m and t > 0.5 * w[m - 1]):
            break
        if not (stepped.alive[1] and stepped.alive[2]):
            break
        assert explore.step(stepped)
    ranked = explore.init(*event_log_instance(name), log_details=True)
    explore.advance_ranked(ranked, m)
    assert stepped.k == ranked.k
    assert explore.result(stepped, m) == explore.result(ranked, m)
    assert stepped.detail_rows == ranked.detail_rows


def test_lazy_exploration_reads_its_materialized_graph():
    # exploring a lazy pairing again draws nothing; its materialized graph
    # keeps every pair and weight drawn, so exploring that reads the same
    g, u, v = event_log_instance("lazy_iid")
    state = explore.init(g, u, v, log_details=True)
    explore.advance_ranked(state, 3)
    rng_state = g._rng.bit_generator.state
    again = explore.init(g, u, v, log_details=True)
    explore.advance_ranked(again, 3)
    np.testing.assert_equal(g._rng.bit_generator.state, rng_state)
    assert again.detail_rows == state.detail_rows
    full = g.materialize()
    for x, y in g.partner.items():
        assert full.partner[x] == y
        assert full.edge_weight_by_he[x] == g.edge_weight_by_he[min(x, y)]
    on_full = explore.init(full, u, v, log_details=True)
    explore.advance_ranked(on_full, 3)
    assert on_full.detail_rows == state.detail_rows
