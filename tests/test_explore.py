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
    # the invariant checks must survive python -O, which strips asserts:
    # on the path 0-1-2-3, vertex 1's second half-edge is re-pointed at the
    # half-edge that just died into vertex 1
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from fpplab import explore, graphs

        if not sys.flags.optimize:
            sys.exit("not running under -O")
        g = graphs.build_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        g.edge_weight_by_he = np.array([1.0, 1.0, 5.0, 5.0, 9.0, 9.0])
        g.partner[2] = 0
        try:
            explore.run(g, 0, 3)
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
    assert "free half-edge 2 of vertex 1" in done.stdout
    assert "half-edge 0" in done.stdout


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


def test_early_stop_equals_exhaustive():
    for key in range(25):
        g, u, v = random_weighted_graph(key + 1000)
        fast = explore.run(g, u, v)
        full = explore.run(g, u, v, min_horizon=math.inf)
        assert fast.connected == full.connected
        if fast.connected:
            assert fast.weight == full.weight
            assert fast.hops == full.hops


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
    s_n, w1, w2 = explore.measure_martingale(state, g, 1.0)
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
        explore.measure_martingale(state, g, 1.0)


def test_martingale_probe_window_enforced():
    g = triangle()
    state = explore.init(g, 0, 2)
    # probe at alpha = 0.05 sits at t = 1.88 but nothing has been processed
    with pytest.raises(explore.HorizonError):
        explore.measure_martingale(state, g, 0.05)
    tiny = graphs.build_from_edges(2, [(0, 1)])
    tiny.edge_weight_by_he = np.array([1.0, 1.0])
    state2 = explore.init(tiny, 0, 1)
    with pytest.raises(explore.ExploreError):
        explore.measure_martingale(state2, tiny, 1.0)   # needs n >= 3


def test_standardize_marks_columns():
    consts = __import__("fpplab.ctbp", fromlist=["constants"]).constants(
        4.0, 3.0, weights.exponential(1.0))
    n = 10 ** 4
    rec = explore.CollisionRecord(time=2.5, source=2, h_origin=7, h_dest=6,
                                  remaining=0.8)
    out = explore.standardize_marks([rec], consts, n, 1.5, 0.5)
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
