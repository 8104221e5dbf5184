"""Degree sequence builders: ceiling rule, parity, diagnostics."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fpplab import degrees


def test_regular_sequence():
    seq = degrees.regular(4, 10)
    assert list(seq.degrees) == [4] * 10
    assert not seq.parity_bumped
    d = degrees.diagnostics(seq)
    assert d.mu_n == pytest.approx(4.0)
    assert d.nu_n == pytest.approx(3.0)
    assert d.max_degree == 4


def test_regular_odd_total_gets_bumped():
    # 3-regular on 9 vertices has odd half-edge count; the last vertex
    # absorbs one extra stub
    seq = degrees.regular(3, 9)
    assert seq.parity_bumped
    assert int(seq.degrees.sum()) % 2 == 0
    assert sorted(seq.degrees)[:8] == [3] * 8
    assert sorted(seq.degrees)[-1] == 4


def test_deterministic_ceiling_rule():
    # n F(1) = 3 and n F(2) = 10, so exactly 3 ones and 7 twos before the
    # parity fix; the total 17 is odd, hence one two becomes a three
    seq = degrees.build_deterministic({1: 0.3, 2: 1.0}, 10)
    counts = np.bincount(seq.degrees)
    assert int(seq.degrees.sum()) % 2 == 0
    assert seq.parity_bumped
    assert counts[1] == 3
    assert counts[2] == 6
    assert counts[3] == 1


def test_deterministic_even_total_untouched():
    seq = degrees.build_deterministic({2: 0.5, 4: 1.0}, 10)
    assert not seq.parity_bumped
    counts = np.bincount(seq.degrees)
    assert counts[2] == 5 and counts[4] == 5


def test_deterministic_rejects_bad_cdf():
    with pytest.raises(degrees.DegreeModelError):
        degrees.build_deterministic({1: 0.5, 2: 0.9}, 10)     # never reaches 1
    with pytest.raises(degrees.DegreeModelError):
        degrees.build_deterministic({2: 0.7, 1: 1.0}, 10)     # not monotone
    with pytest.raises(degrees.DegreeModelError):
        degrees.build_deterministic({0: 0.2, 2: 1.0}, 10)     # degree zero


def test_iid_reproducible():
    pmf = {1: 0.2, 2: 0.3, 3: 0.3, 5: 0.2}
    a = degrees.build_iid(pmf, 500, np.random.Generator(np.random.Philox(key=11)))
    b = degrees.build_iid(pmf, 500, np.random.Generator(np.random.Philox(key=11)))
    np.testing.assert_array_equal(a.degrees, b.degrees)
    assert int(a.degrees.sum()) % 2 == 0


def test_iid_frequencies_near_pmf():
    pmf = {1: 0.25, 3: 0.75}
    seq = degrees.build_iid(pmf, 40000, np.random.Generator(np.random.Philox(key=5)))
    frac_one = float(np.mean(seq.degrees == 1))
    # binomial 5 sigma is about 0.011
    assert abs(frac_one - 0.25) < 0.011


def test_iid_rejects_invalid_pmf():
    rng = np.random.Generator(np.random.Philox(key=1))
    with pytest.raises(degrees.DegreeModelError):
        degrees.build_iid({1: 0.4, 2: 0.4}, 100, rng)         # mass 0.8
    with pytest.raises(degrees.DegreeModelError):
        degrees.build_iid({0: 0.5, 2: 0.5}, 100, rng)
    with pytest.raises(degrees.DegreeModelError):
        degrees.build_iid({1: -0.1, 2: 1.1}, 100, rng)


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=60))
def test_diagnostics_match_direct_moments(raw):
    arr = np.array(raw, dtype=np.int64)
    if int(arr.sum()) % 2 == 1:
        arr[-1] += 1
    seq = degrees.DegreeSequence(degrees=arr, parity_bumped=False)
    d = degrees.diagnostics(seq)
    assert d.mu_n == pytest.approx(arr.mean())
    assert d.nu_n == pytest.approx(float((arr * (arr - 1)).sum()) / float(arr.sum()))
    assert d.second_moment == pytest.approx(float((arr.astype(float) ** 2).mean()))
    assert d.max_degree == int(arr.max())


def test_diagnostics_equal_vertex_sums():
    # the per-vertex float sums are exact below 2^53, so the degree-count
    # sums must reproduce mu_n and nu_n bit for bit
    rng = np.random.Generator(np.random.Philox(key=8))
    arr = np.minimum(rng.zipf(2.5, 100_001), 5000).astype(np.int64)
    if int(arr.sum()) % 2 == 1:
        arr[-1] += 1
    diag = degrees.diagnostics(degrees.DegreeSequence(degrees=arr))
    d = arr.astype(float)
    assert diag.mu_n == float(d.sum() / d.size)
    assert diag.nu_n == float((d * (d - 1.0)).sum() / d.sum())
    assert diag.second_moment == float((d * d).sum() / d.size)
    logs = np.maximum(np.log(d / diag.cutoff), 0.0)
    assert diag.x2logx == pytest.approx(float((d * d * logs).sum() / d.size), rel=1e-12)
    assert diag.x2logx > 0


def test_size_biased_pmf_hand_case():
    seq = degrees.DegreeSequence(degrees=np.array([2, 2, 3, 3]), parity_bumped=False)
    sb = degrees.size_biased_pmf(seq)
    # half-edge total 10: degree-2 stubs carry mass 4/10 at offspring 1,
    # degree-3 stubs carry 6/10 at offspring 2
    assert sb == {1: pytest.approx(0.4), 2: pytest.approx(0.6)}
    mean = sum(k * p for k, p in sb.items())
    assert mean == pytest.approx(degrees.diagnostics(seq).nu_n)


def test_save_load_round_trip(tmp_path):
    seq = degrees.build_iid({1: 0.5, 4: 0.5}, 100,
                            np.random.Generator(np.random.Philox(key=2)))
    path = tmp_path / "deg.txt"
    degrees.save_degrees(seq, path)
    back = degrees.load_degrees(path)
    np.testing.assert_array_equal(back.degrees, seq.degrees)


def test_load_pmf_table(tmp_path):
    path = tmp_path / "pmf.txt"
    path.write_text("1 0.2\n2 0.3\n3 0.5\n")
    pmf = degrees.load_pmf_table(path)
    assert pmf == {1: 0.2, 2: 0.3, 3: 0.5}


def test_load_pmf_table_rejects_bad_rows(tmp_path):
    path = tmp_path / "pmf.txt"
    path.write_text("1 0.5\nx 0.5\n")
    with pytest.raises(degrees.DegreeModelError):
        degrees.load_pmf_table(path)
