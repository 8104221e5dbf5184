"""Half-edge pairing, simplicity rejection, rank-1 kernels, weight assignment."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy import stats

from fpplab import degrees, explore, graphs, weights


def philox(key):
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# configuration-model pairing


@given(st.lists(st.integers(min_value=1, max_value=6), min_size=2, max_size=40),
       st.integers(min_value=0, max_value=2 ** 32))
def test_pairing_is_involution(raw, key):
    arr = np.array(raw, dtype=np.int64)
    if int(arr.sum()) % 2 == 1:
        arr[0] += 1
    seq = degrees.DegreeSequence.from_degrees(arr)
    g = graphs.pair_configuration(seq, philox(key))
    p = g.partner
    assert p.size == int(arr.sum())
    assert np.all(p[p] == np.arange(p.size))
    assert np.all(p != np.arange(p.size))
    # owners agree with the offset table
    for v in range(g.n):
        assert np.all(g.he_owner[g.he_offset[v]:g.he_offset[v + 1]] == v)


def test_single_edge_forced():
    seq = degrees.DegreeSequence.from_degrees(np.array([1, 1]))
    g = graphs.pair_configuration(seq, philox(0))
    assert list(g.partner) == [1, 0]
    assert g.self_loop_count == 0 and g.multi_edge_count == 0


def test_matching_uniform_over_three_pairings():
    # four degree-1 vertices admit exactly three perfect matchings; the
    # pairing must hit each with probability 1/3 (4 sigma band at 3000 reps)
    seq = degrees.DegreeSequence.from_degrees(np.array([1, 1, 1, 1]))
    rng = philox(12)
    counts = {1: 0, 2: 0, 3: 0}
    for _ in range(3000):
        g = graphs.pair_configuration(seq, rng)
        counts[int(g.partner[0])] += 1
    for k in counts:
        assert abs(counts[k] / 3000 - 1 / 3) < 0.0344


def test_lazy_partner_uniform():
    # a uniform perfect matching gives half-edge 0 a uniform partner among
    # the other seven, whatever was paired first; an exploration from vertex
    # 2 to vertex 0 pairs vertex 2 first, so the draw for half-edge 0 has to
    # redraw paired ids
    seq = degrees.DegreeSequence.from_degrees(np.array([2, 1, 3, 2]))
    assert seq.regular_degree == 0
    dist = weights.exponential(1.0)
    rng = philox(17)
    counts = np.zeros(8)
    for _ in range(3500):
        g = graphs.LazyPairing(seq, dist, rng)
        explore.init(g, 2, 0)
        counts[g.partner[0]] += 1
    assert counts[0] == 0
    assert stats.chisquare(counts[1:]).pvalue > 1e-3


@pytest.mark.parametrize("seq", [
    degrees.regular(3, 40),
    degrees.build_iid({1: 0.3, 3: 0.4, 4: 0.3}, 60, philox(23)),
])
def test_materialize_keeps_revealed_pairs(seq):
    g = graphs.LazyPairing(seq, weights.exponential(1.0), philox(24))
    state = explore.init(g, 0, 39)
    explore.advance(state, 0.5)          # a few events past the endpoints
    assert state.k >= 3
    revealed = dict(g.partner)
    assert len(g.edge_weight_by_he) == len(revealed) // 2   # one entry per edge
    full = g.materialize()
    p = full.partner
    assert np.all(p[p] == np.arange(p.size))
    assert np.all(p != np.arange(p.size))
    for h, q in revealed.items():
        assert p[h] == q
        assert full.edge_weight_by_he[h] == g.edge_weight_by_he[min(h, q)]
    w = full.edge_weight_by_he
    np.testing.assert_array_equal(w, w[p])
    assert np.unique(w).size == p.size // 2
    assert [seq.owner(h) for h in range(p.size)] == full.he_owner.tolist()


@pytest.mark.parametrize("seq", [
    degrees.regular(3, 40),
    degrees.build_iid({1: 0.3, 3: 0.4, 4: 0.3}, 60, philox(23)),
])
def test_unrevealed_materialize_is_pair_then_weigh(seq):
    # gen-graph and the oracle build cm graphs through the trials' sampler,
    # which returns a LazyPairing: completed before any exploration, it must draw
    # the very permutation and weights of pair_configuration + assign_weights
    dist = weights.exponential(1.0)
    full = graphs.LazyPairing(seq, dist, philox(25)).materialize()
    rng = philox(25)
    ref = graphs.assign_weights(graphs.pair_configuration(seq, rng), dist, rng)
    for name in ("he_offset", "he_owner", "partner", "edge_weight_by_he"):
        np.testing.assert_array_equal(getattr(full, name), getattr(ref, name))
    assert ref.materialize() is ref


@given(st.lists(st.tuples(st.integers(min_value=1, max_value=7),
                          st.integers(min_value=1, max_value=12)),
                min_size=1, max_size=8))
def test_layout_matches_expanded_offsets(raw):
    # blocks in any degree order; an odd total gets the builders' parity
    # bump, the last vertex moved into a final (k + 1, 1) block. A sequence
    # needs two vertices and degrees >= 1
    blocks = list(raw)
    assume(sum(c for _, c in blocks) >= 2)
    if sum(k * c for k, c in blocks) % 2:
        k, c = blocks.pop()
        blocks += [(k, c - 1)] * (c > 1) + [(k + 1, 1)]
    seq = degrees.DegreeSequence(tuple(blocks))
    deg = np.repeat([k for k, _ in blocks], [c for _, c in blocks])
    off = graphs._offsets(deg)
    owner = graphs._owners(off)
    np.testing.assert_array_equal(seq.degrees, deg)
    assert seq.total == int(off[-1])
    assert seq.regular_degree == (blocks[0][0] if len(blocks) == 1 else 0)
    # every vertex and half-edge, so both sides of each block boundary
    for v in range(seq.n):
        assert seq.degree(v) == deg[v]
        assert seq.half_edges(v) == (off[v], off[v + 1])
    assert [seq.owner(h) for h in range(owner.size)] == owner.tolist()


def test_layout_rejects_bad_blocks():
    with pytest.raises(degrees.DegreeModelError, match="total degree must be even"):
        degrees.DegreeSequence(((3, 3),))
    with pytest.raises(degrees.DegreeModelError, match="at least one vertex"):
        degrees.DegreeSequence(((2, 3), (4, 0)))
    with pytest.raises(degrees.DegreeModelError, match="degree-0"):
        degrees.DegreeSequence(((0, 2), (2, 2)))
    with pytest.raises(degrees.DegreeModelError, match="two vertices"):
        degrees.DegreeSequence(((2, 1),))


def test_layout_at_1e9_vertices_allocates_no_n_sized_array():
    # a 4-regular graph on 1e9 vertices, and a parity-bumped 3-regular one,
    # are laid out, queried, paired around two vertices and explored for a
    # few events, all in well under 1 MB
    n = 10 ** 9
    tracemalloc.start()
    try:
        seq = degrees.regular(4, n)
        diag = degrees.diagnostics(seq)
        assert seq.owner(4 * n - 1) == n - 1
        assert seq.half_edges(n - 1) == (4 * n - 4, 4 * n)
        assert seq.degree(n // 2) == 4
        bumped = degrees.regular(3, n + 1)
        assert bumped.blocks == ((3, n), (4, 1))
        assert bumped.owner(3 * n) == n and bumped.owner(3 * n - 1) == n - 1
        assert bumped.half_edges(n) == (3 * n, 3 * n + 4)
        g = graphs.LazyPairing(seq, weights.exponential(1.0), philox(31))
        state = explore.init(g, 0, n - 1)
        assert all(h in g.partner for h in range(4 * n - 4, 4 * n))
        explore.advance(state, 1.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert diag.nu_n == 3.0 and state.k > 0
    assert peak < 1 << 20, peak


def test_defect_counters():
    g = graphs.build_from_edges(2, [(0, 0), (0, 1), (0, 1)])
    assert g.self_loop_count == 1
    assert g.multi_edge_count == 1
    clean = graphs.build_from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert clean.self_loop_count == 0 and clean.multi_edge_count == 0


def test_build_from_edges_rejects_out_of_range():
    with pytest.raises(graphs.GraphError):
        graphs.build_from_edges(2, [(0, 2)])


def cursor_build(n, edges):
    """Reference numbering: walk the edges in order; each end takes its
    owner's next free half-edge id. Returns (he_offset, partner)."""
    deg = np.bincount(np.asarray(edges, dtype=np.int64).ravel(), minlength=n)
    off = np.concatenate([[0], np.cumsum(deg)])
    partner = np.full(int(off[-1]), -1, dtype=np.int64)
    cursor = off[:-1].copy()
    for u, v in edges:
        hu = cursor[u]
        cursor[u] += 1
        hv = cursor[v]
        cursor[v] += 1
        partner[hu] = hv
        partner[hv] = hu
    return off, partner


def test_build_from_edges_matches_cursor_loop():
    rng = philox(11)
    loops = multi = 0
    for _ in range(50):
        n = int(rng.integers(1, 12))
        edges = rng.integers(0, n, size=(int(rng.integers(0, 40)), 2))
        g = graphs.build_from_edges(n, edges)
        off, partner = cursor_build(n, edges)
        np.testing.assert_array_equal(g.he_offset, off)
        np.testing.assert_array_equal(g.partner, partner)
        loops += g.self_loop_count
        multi += g.multi_edge_count
    assert loops > 0 and multi > 0


def stable_argsort_partner(edges):
    """Reference pairing: a stable argsort of the ends by owner numbers them."""
    ends = np.asarray(edges, dtype=np.int64).reshape(-1, 2).ravel()
    he = np.empty(ends.size, dtype=np.int64)
    he[np.argsort(ends, kind="stable")] = np.arange(ends.size)
    partner = np.empty(ends.size, dtype=np.int64)
    partner[he[0::2]] = he[1::2]
    partner[he[1::2]] = he[0::2]
    return partner


def test_build_from_edges_matches_stable_argsort():
    rng = philox(12)
    loops = 0
    for _ in range(40):
        n = int(rng.integers(1, 300))
        edges = rng.integers(0, n, size=(int(rng.integers(1, 2000)), 2))
        g = graphs.build_from_edges(n, edges)
        np.testing.assert_array_equal(g.partner, stable_argsort_partner(edges))
        loops += g.self_loop_count
    assert loops > 0
    empty = graphs.build_from_edges(4, np.empty((0, 2), dtype=np.int64))
    assert empty.half_edge_count == 0
    np.testing.assert_array_equal(empty.he_offset, np.zeros(5))


def test_build_from_edges_refuses_an_overflowing_sort_key():
    # n * (number of ends) = 2**62 * 8 does not fit an int64 key
    with pytest.raises(graphs.GraphError, match="overflow"):
        graphs.build_from_edges(2 ** 62, [(0, 1), (1, 2), (2, 3), (3, 0)])


# ---------------------------------------------------------------------------
# uniform simple graphs by rejection


def test_two_vertices_degree_two_never_simple(monkeypatch):
    # every pairing of [2, 2] is a double edge or a pair of self-loops, so
    # rejection can never terminate; the sampler must say so instead of
    # spinning forever
    monkeypatch.setattr(graphs, "_MAX_SIMPLE_ATTEMPTS", 200)
    seq = degrees.DegreeSequence.from_degrees(np.array([2, 2]))
    with pytest.raises(graphs.GraphError, match="no simple pairing in 200 attempts"):
        graphs.sample_uniform_simple(seq, philox(3))


def test_uniform_simple_returns_simple_graph():
    seq = degrees.regular(3, 20)
    g, attempts = graphs.sample_uniform_simple(seq, philox(8))
    assert g.self_loop_count == 0 and g.multi_edge_count == 0
    assert attempts >= 1


def test_three_regular_acceptance_rate():
    # the simple-graph probability for 3-regular pairings sits near
    # e^(-2) ~ 0.1353 already at n = 50; five sigma of 2000 attempts is 0.038
    seq = degrees.regular(3, 50)
    rng = philox(21)
    simple = 0
    for _ in range(2000):
        g = graphs.pair_configuration(seq, rng)
        if g.self_loop_count == 0 and g.multi_edge_count == 0:
            simple += 1
    assert abs(simple / 2000 - math.exp(-2)) < 0.038


# ---------------------------------------------------------------------------
# rank-1 kernels


# w_i w_j >= sum(w) = 21.3 for the pairs (0, 1) and (0, 2) only: those have
# the skip bound q = 1, every other pair q < 1
W10 = np.array([6.0, 5.0, 4.0, 2.0, 1.5, 1.0, 0.8, 0.5, 0.3, 0.2])


def pair_probs(kernel, w):
    """p_ij of every pair i < j, in np.triu_indices order."""
    return kernel(np.outer(w, w) / w.sum())[np.triu_indices(w.size, 1)]


@pytest.mark.parametrize("kind,p_edge,w,draws", [
    *(pytest.param(kind, p, np.array([1.0, 1.0]), 20000, id=f"{kind}-{p}") for kind, p in [
        ("nr", 1.0 - math.exp(-0.5)),   # 1 - exp(-w1 w2 / total)
        ("grg", 1.0 / 3.0),             # x/(1+x) with x = 1/2
        ("cl", 0.5),                    # min(x, 1)
    ]),
    pytest.param("nr", pair_probs(lambda x: -np.expm1(-x), W10), W10, 5000,
                 id="nr-w10"),
    pytest.param("grg", pair_probs(lambda x: x / (1.0 + x), W10), W10, 5000,
                 id="grg-w10"),
    pytest.param("cl", pair_probs(lambda x: np.minimum(x, 1.0), W10), W10, 5000,
                 id="cl-w10"),
])
def test_rank1_two_vertex_edge_probability(kind, p_edge, w, draws):
    # the frequency of every pair i < j as an edge, against p_ij
    n = w.size
    rng = philox(40)
    hits = np.zeros(n * n)
    for _ in range(draws):
        g = graphs.sample_rank1(w, kind, rng)
        he = np.nonzero(np.arange(g.partner.size) < g.partner)[0]
        u, v = g.he_owner[he], g.he_owner[g.partner[he]]
        hits[np.minimum(u, v) * n + np.maximum(u, v)] += 1
    freq = hits.reshape(n, n)[np.triu_indices(n, 1)] / draws
    sigma = np.sqrt(p_edge * (1 - p_edge) / draws)
    assert np.all(np.abs(freq - p_edge) <= 5 * sigma)


def test_rank1_rejects_unknown_kernel():
    with pytest.raises(graphs.GraphError):
        graphs.sample_rank1(np.array([1.0, 1.0]), "erdos", philox(1))


def test_rank1_no_self_loops():
    rng = philox(2)
    w = weights.sample(weights.exponential(1.0), rng, size=300)
    g = graphs.sample_rank1(w, "nr", rng)
    assert g.self_loop_count == 0
    assert g.multi_edge_count == 0
    assert np.all(g.he_owner[g.partner] != g.he_owner[np.arange(g.partner.size)])


def test_mixed_poisson_pmf_matches_geometric():
    # exponential(2) vertex weights make the mixed-Poisson law exactly
    # geometric: p(k) = (2/3) (1/3)^k, with (1/3)^(k+1) beyond k; the first
    # remainder below 1e-15 is (1/3)^32, so the pmf stops at k = 31
    pmf = graphs.mixed_poisson_pmf(weights.exponential(2.0))
    assert pmf.size == 32
    want = (2.0 / 3.0) * (1.0 / 3.0) ** np.arange(32)
    np.testing.assert_allclose(pmf, want, atol=1e-12)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-15)


def test_mixed_poisson_pmf_refuses_weights_too_heavy_to_sum():
    # power:4 vertex weights put 2^-53 of their mass beyond 1.8e6; summing the
    # kernel that far would take hours, so the law is refused by name
    with pytest.raises(graphs.GraphError, match="mixed-Poisson"):
        graphs.mixed_poisson_pmf(weights.power_exponential(4.0))


def test_mixed_poisson_pmf_of_power_weights_vs_mpmath():
    # W = E^2: with w = u^2, P(D = k) = integral over u > 0 of
    # e^{-u^2 - u} u^{2k} / k!, evaluated with 30 digits; the density's cusp
    # w^{-1/2} at the origin and the heavy tail (the pmf runs past k = 1000)
    # are both in play
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    pmf = graphs.mixed_poisson_pmf(weights.power_exponential(2.0))
    assert pmf.size > 1000
    for k in (0, 5, 40):
        want = mpmath.quad(lambda u: mpmath.exp(-u * u - u) * u ** (2 * k),
                           [0, max(1, math.sqrt(k)), mpmath.inf]) / mpmath.factorial(k)
        assert pmf[k] == pytest.approx(float(want), rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# weight assignment


def test_assign_weights_shared_per_edge():
    seq = degrees.regular(4, 30)
    g = graphs.pair_configuration(seq, philox(5))
    graphs.assign_weights(g, weights.exponential(1.0), philox(6))
    w = g.edge_weight_by_he
    assert w.shape == (g.partner.size,)
    np.testing.assert_array_equal(w, w[g.partner])
    assert (w > 0).all()
    # continuous law: every edge gets its own draw
    assert np.unique(w).size == g.partner.size // 2


def test_assign_weights_deterministic():
    seq = degrees.regular(3, 20)
    g1 = graphs.pair_configuration(seq, philox(9))
    g2 = graphs.pair_configuration(seq, philox(9))
    graphs.assign_weights(g1, weights.uniform(2.0), philox(10))
    graphs.assign_weights(g2, weights.uniform(2.0), philox(10))
    np.testing.assert_array_equal(g1.edge_weight_by_he, g2.edge_weight_by_he)


def test_export_edge_list_golden(tmp_path):
    g = graphs.build_from_edges(3, [(0, 1), (1, 2)])
    g.edge_weight_by_he = np.array([1.5, 1.5, 2.5, 2.5])
    path = tmp_path / "edges.txt"
    graphs.export_edge_list(g, path)
    assert path.read_text() == "3 2 0\n1 2 1.5\n2 3 2.5\n"
