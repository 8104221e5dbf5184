"""Degree sequence builders: ceiling rule, parity, diagnostics."""

import math
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fpplab import degrees


def test_regular_sequence():
    seq = degrees.regular(4, 10)
    assert list(seq.degrees) == [4] * 10
    assert seq.blocks == ((4, 10),)            # no parity bump
    d = degrees.diagnostics(seq)
    assert d.mu_n == pytest.approx(4.0)
    assert d.nu_n == pytest.approx(3.0)
    assert d.max_degree == 4


def test_regular_odd_total_gets_bumped():
    # 3-regular on 9 vertices has odd half-edge count; the last vertex
    # absorbs one extra stub
    seq = degrees.regular(3, 9)
    assert seq.blocks[-1] == (4, 1)
    assert int(seq.degrees.sum()) % 2 == 0
    assert sorted(seq.degrees)[:8] == [3] * 8
    assert sorted(seq.degrees)[-1] == 4


def test_deterministic_ceiling_rule():
    # n F(1) = 3 and n F(2) = 10, so exactly 3 ones and 7 twos before the
    # parity fix; the total 17 is odd, hence one two becomes a three
    seq = degrees.build_deterministic({1: 0.3, 2: 1.0}, 10)
    counts = np.bincount(seq.degrees)
    assert int(seq.degrees.sum()) % 2 == 0
    assert seq.blocks[-1] == (3, 1)
    assert counts[1] == 3
    assert counts[2] == 6
    assert counts[3] == 1


def test_deterministic_even_total_untouched():
    seq = degrees.build_deterministic({2: 0.5, 4: 1.0}, 10)
    assert seq.blocks == ((2, 5), (4, 5))
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


def test_iid_parity_bump_lands_in_proportion_to_counts():
    # degrees 1 and 3 on five vertices always sum to an odd total, so every
    # draw is bumped. The bumped vertex is uniform over the five, as the
    # last of five sequential draws is: given c1 vertices of degree 1 it is
    # one of them with probability c1 / 5, so P = E[c1] / 5 = 0.3 overall.
    # Bumping the largest block would give P(c1 = 5) = 0.3^5 instead
    rng = np.random.Generator(np.random.Philox(key=17))
    draws = 4000
    hits = expected = var = 0.0
    for _ in range(draws):
        seq = degrees.build_iid({1: 0.3, 3: 0.7}, 5, rng)
        assert seq.n == 5
        blocks = dict(seq.blocks)
        from_one = blocks.get(2, 0)                  # a 1 bumped to 2
        assert from_one + blocks.get(4, 0) == 1      # or a 3 bumped to 4
        p = (blocks.get(1, 0) + from_one) / 5
        hits += from_one
        expected += p
        var += p * (1 - p)
    assert abs(hits - expected) < 4.0 * math.sqrt(var), (hits, expected)
    assert abs(hits / draws - 0.3) < 0.03


def test_iid_blocks_are_one_count_draw():
    # one multinomial count draw laid out ascending: no per-vertex array,
    # so n = 1e9 takes microseconds
    seq = degrees.build_iid({2: 0.25, 3: 0.5, 5: 0.25}, 10 ** 9,
                            np.random.Generator(np.random.Philox(key=3)))
    ks = [k for k, _ in seq.blocks]
    assert ks == sorted(set(ks)) and seq.n == 10 ** 9
    assert seq.total % 2 == 0


def test_invariant_checks_raise_under_optimize():
    # python -O strips asserts; these checks must raise named errors anyway.
    # The ceiling rule cannot break on valid input, so the script breaks
    # math.ceil for one call
    script = textwrap.dedent("""
        import math
        import sys
        from fpplab import degrees

        if not sys.flags.optimize:
            sys.exit("not running under -O")
        ceil = math.ceil
        math.ceil = lambda x: ceil(x) - (x == 10.0)
        try:
            degrees.build_deterministic({4: 1.0}, 10)
        except degrees.DegreeModelError as exc:
            print(exc)
        else:
            sys.exit("no DegreeModelError")
        math.ceil = ceil

        for blocks in (((2, 3), (4, 0)), ((3, 3),)):
            try:
                degrees.DegreeSequence(blocks)
            except degrees.DegreeModelError as exc:
                print(exc)
            else:
                sys.exit("no DegreeModelError")
    """)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    ceiling, empty, odd = done.stdout.splitlines()
    assert "ceiling rule must exhaust all vertices" in ceiling
    assert "every block needs at least one vertex" in empty
    assert "total degree must be even" in odd


def test_iid_rejects_invalid_pmf():
    rng = np.random.Generator(np.random.Philox(key=1))
    with pytest.raises(degrees.DegreeModelError):
        degrees.build_iid({1: 0.4, 2: 0.4}, 100, rng)         # mass 0.8
    with pytest.raises(degrees.DegreeModelError):
        degrees.build_iid({0: 0.5, 2: 0.5}, 100, rng)
    with pytest.raises(degrees.DegreeModelError):
        degrees.build_iid({1: -0.1, 2: 1.1}, 100, rng)


@pytest.mark.parametrize("model", [
    ("iid", {1: 0.4, 2: 0.4}),                        # mass 0.8
    ("iid", {0: 0.5, 2: 0.5}),                        # degree zero
    ("iid", {1: -0.1, 2: 1.1}),                       # negative mass
    ("iid", {1: float("nan"), 2: 1.0}),
    ("deterministic", {1: 0.7, 2: 0.3, 3: 1.0}),      # not monotone
    ("deterministic", {1: 0.5, 2: 0.9}),              # never reaches 1
    ("deterministic", {1: -0.5, 2: 1.0}),             # negative start
    ("deterministic", {0: 0.2, 2: 1.0}),              # degree zero
    ("deterministic", {}),
    ("regular", 0),
    ("regular", -2),
], ids=repr)
def test_limit_pmf_refuses_what_the_builder_refuses(model):
    # one set of rules: a law the limit constants would read is one whose
    # sequence the trials could build
    with pytest.raises(degrees.DegreeModelError):
        degrees.limit_pmf(model)
    with pytest.raises(degrees.DegreeModelError):
        degrees.build(model, 100, np.random.Generator(np.random.Philox(key=1)))


@pytest.mark.parametrize("model", [None, ("poisson", 3), ("regular",), "regular:4"])
def test_unknown_degree_model_is_named(model):
    with pytest.raises(degrees.DegreeModelError, match="unknown degree model"):
        degrees.limit_pmf(model)
    with pytest.raises(degrees.DegreeModelError, match="unknown degree model"):
        degrees.build(model, 100, np.random.Generator(np.random.Philox(key=1)))


def test_build_dispatches_to_the_builders():
    rng = np.random.Generator(np.random.Philox(key=3))
    assert degrees.build(("regular", 3), 9, rng) == degrees.regular(3, 9)
    cdf = {1: 0.3, 2: 1.0}
    assert degrees.build(("deterministic", cdf), 10, rng) == \
        degrees.build_deterministic(cdf, 10)
    pmf = ((1, 0.2), (3, 0.8))
    assert degrees.build(("iid", pmf), 50, np.random.Generator(np.random.Philox(key=4))) == \
        degrees.build_iid(pmf, 50, np.random.Generator(np.random.Philox(key=4)))


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=60))
def test_diagnostics_match_direct_moments(raw):
    arr = np.array(raw, dtype=np.int64)
    if int(arr.sum()) % 2 == 1:
        arr[-1] += 1
    seq = degrees.DegreeSequence.from_degrees(arr)
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
    diag = degrees.diagnostics(degrees.DegreeSequence.from_degrees(arr))
    d = arr.astype(float)
    assert diag.mu_n == float(d.sum() / d.size)
    assert diag.nu_n == float((d * (d - 1.0)).sum() / d.sum())
    assert diag.second_moment == float((d * d).sum() / d.size)
    logs = np.maximum(np.log(d / diag.cutoff), 0.0)
    assert diag.x2logx == pytest.approx(float((d * d * logs).sum() / d.size), rel=1e-12)
    assert diag.x2logx > 0


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


def exact_subcritical_chance(pmf, n):
    """P(sum of n iid d(d - 2) <= 0), the sum's law convolved one vertex at a
    time over its integer values."""
    law = {0: 1.0}
    for _ in range(n):
        nxt = {}
        for s, p in law.items():
            for k, q in pmf.items():
                x = s + k * (k - 2)
                nxt[x] = nxt.get(x, 0.0) + p * q
        law = {s: p for s, p in nxt.items() if p > 1e-300}
    return sum(p for s, p in law.items() if s <= 0)


@pytest.mark.parametrize("pmf, n", [
    ({1: 0.45, 3: 0.35, 6: 0.2}, 10),
    ({1: 0.6, 3: 0.4}, 12),
    ({1: 0.2, 2: 0.3, 3: 0.3, 5: 0.2}, 15),
    ({1: 0.3, 2: 0.6, 4: 0.1}, 20),
    ({2: 0.9, 3: 0.1}, 40),
])
def test_subcritical_bound_covers_the_exact_chance(pmf, n):
    # before the parity bump, which only raises the sum; a law with no mass at
    # degree 1 is bounded by p_2^n, the exact chance
    exact = exact_subcritical_chance(pmf, n)
    bound = degrees.subcritical_bound(("iid", pmf), n)
    assert 0.0 < exact <= bound < 1.0
    if 1 not in pmf:
        assert bound == pytest.approx(exact, rel=1e-12)


def test_subcritical_bound_of_built_laws_is_exact():
    assert degrees.subcritical_bound(("regular", 2), 40) == 1.0
    assert degrees.subcritical_bound(("regular", 3), 41) == 0.0
    # ceil(10 * 0.5) = 5 vertices of degree 1 and 5 of degree 3: nu_n = 1.5
    assert degrees.subcritical_bound(("deterministic", {1: 0.5, 3: 1.0}), 10) == 0.0
    assert degrees.subcritical_bound(("deterministic", {1: 0.8, 3: 1.0}), 10) == 1.0
    assert degrees.subcritical_bound(("iid", {3: 0.5, 4: 0.5}), 10) == 0.0
