"""Half-edge pairing, simplicity rejection, rank-1 kernels, weight assignment."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from fpplab import degrees, graphs, weights


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
    seq = degrees.DegreeSequence(degrees=arr, parity_bumped=False)
    g = graphs.pair_configuration(seq, philox(key))
    p = g.partner
    assert p.size == int(arr.sum())
    assert np.all(p[p] == np.arange(p.size))
    assert np.all(p != np.arange(p.size))
    # owners agree with the offset table
    for v in range(g.n):
        assert np.all(g.he_owner[g.he_offset[v]:g.he_offset[v + 1]] == v)


def test_single_edge_forced():
    seq = degrees.DegreeSequence(degrees=np.array([1, 1]), parity_bumped=False)
    g = graphs.pair_configuration(seq, philox(0))
    assert list(g.partner) == [1, 0]
    assert g.self_loop_count == 0 and g.multi_edge_count == 0


def test_matching_uniform_over_three_pairings():
    # four degree-1 vertices admit exactly three perfect matchings; the
    # pairing must hit each with probability 1/3 (4 sigma band at 3000 reps)
    seq = degrees.DegreeSequence(degrees=np.array([1, 1, 1, 1]), parity_bumped=False)
    rng = philox(12)
    counts = {1: 0, 2: 0, 3: 0}
    for _ in range(3000):
        g = graphs.pair_configuration(seq, rng)
        counts[int(g.partner[0])] += 1
    for k in counts:
        assert abs(counts[k] / 3000 - 1 / 3) < 0.0344


def test_lazy_partner_uniform():
    # a uniform perfect matching gives half-edge 0 a uniform partner among
    # the other seven, whatever was revealed first; vertex 2 goes first here
    # so the draw for half-edge 0 has to redraw paired ids
    seq = degrees.DegreeSequence(degrees=np.array([2, 1, 3, 2]), parity_bumped=False)
    layout = graphs.HalfEdgeLayout.of(seq)
    assert layout.regular_degree == 0
    dist = weights.exponential(1.0)
    rng = philox(17)
    counts = np.zeros(8)
    for _ in range(3500):
        g = graphs.LazyPairing(layout, dist, rng)
        g.reveal(2)
        g.reveal(0)
        counts[g.partner[0]] += 1
    assert counts[0] == 0
    assert stats.chisquare(counts[1:]).pvalue > 1e-3


@pytest.mark.parametrize("seq", [
    degrees.regular(3, 40),
    degrees.build_iid({1: 0.3, 3: 0.4, 4: 0.3}, 60, philox(23)),
])
def test_materialize_keeps_revealed_pairs(seq):
    layout = graphs.HalfEdgeLayout.of(seq)
    g = graphs.LazyPairing(layout, weights.exponential(1.0), philox(24))
    for v in (0, 5, 17, 39):
        g.reveal(v)
    revealed = dict(g.partner)
    full = g.materialize()
    p = full.partner
    assert np.all(p[p] == np.arange(p.size))
    assert np.all(p != np.arange(p.size))
    for h, q in revealed.items():
        assert p[h] == q
        assert full.edge_weight_by_he[h] == g.edge_weight_by_he[h]
    w = full.edge_weight_by_he
    np.testing.assert_array_equal(w, w[p])
    assert np.unique(w).size == p.size // 2
    assert [layout.owner(h) for h in range(p.size)] == full.he_owner.tolist()


def test_defect_counters():
    g = graphs.build_from_edges(2, [(0, 0), (0, 1), (0, 1)])
    assert g.self_loop_count == 1
    assert g.multi_edge_count == 1
    clean = graphs.build_from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert clean.self_loop_count == 0 and clean.multi_edge_count == 0


def test_build_from_edges_rejects_out_of_range():
    with pytest.raises(graphs.GraphError):
        graphs.build_from_edges(2, [(0, 2)])


# ---------------------------------------------------------------------------
# uniform simple graphs by rejection


def test_two_vertices_degree_two_never_simple():
    # every pairing of [2, 2] is a double edge or a pair of self-loops, so
    # rejection can never terminate; the sampler must say so instead of
    # spinning forever
    seq = degrees.DegreeSequence(degrees=np.array([2, 2]), parity_bumped=False)
    with pytest.raises(graphs.GraphError):
        graphs.sample_uniform_simple(seq, philox(3), max_attempts=200)


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


@pytest.mark.parametrize("kind,p_edge", [
    ("nr", 1.0 - math.exp(-0.5)),   # 1 - exp(-w1 w2 / total)
    ("grg", 1.0 / 3.0),             # x/(1+x) with x = 1/2
    ("cl", 0.5),                    # min(x, 1)
])
def test_rank1_two_vertex_edge_probability(kind, p_edge):
    w = np.array([1.0, 1.0])
    rng = philox(40)
    hits = sum(graphs.sample_rank1(w, kind, rng).partner.size // 2
               for _ in range(20000))
    sigma = math.sqrt(p_edge * (1 - p_edge) / 20000)
    assert abs(hits / 20000 - p_edge) < 5 * sigma


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
    # geometric: p(k) = (2/3) (1/3)^k
    pmf = graphs.mixed_poisson_pmf(weights.exponential(2.0), 25)
    want = (2.0 / 3.0) * (1.0 / 3.0) ** np.arange(26)
    np.testing.assert_allclose(pmf, want, atol=1e-12)


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
