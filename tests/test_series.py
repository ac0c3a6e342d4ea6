"""Tests for truncated series arithmetic and the DegLex scan."""

import random
from fractions import Fraction

import pytest

from biorder.series import (
    Monomial,
    TruncSeries,
    Verdict,
    deglex_key,
    series_compare_witness,
    to_json_obj,
)
from test_chen import exp

# ---------------------------------------------------------------------------
# Brute-force oracles, kept independent of the implementation under test.


def all_keys(rank, trunc):
    keys = [()]
    frontier = [()]
    for _ in range(trunc):
        frontier = [k + (i,) for k in frontier for i in range(1, rank + 1)]
        keys.extend(frontier)
    return keys


def naive_mul(a, b, rank, trunc):
    """Dense convolution over every monomial pair."""
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            if len(ka) + len(kb) <= trunc:
                k = ka + kb
                out[k] = out.get(k, 0) + va * vb
    return {k: v for k, v in out.items() if v != 0}


def random_series(rng, rank, trunc, density=0.5, constant=None):
    terms = {}
    for key in all_keys(rank, trunc):
        if key == () and constant is not None:
            if constant != 0:
                terms[key] = constant
            continue
        if rng.random() < density:
            c = rng.randint(-4, 4)
            if rng.random() < 0.3:
                c = Fraction(c, rng.randint(1, 5))
            if c != 0:
                terms[key] = c
    return TruncSeries(rank, trunc, terms)


# ---------------------------------------------------------------------------
# DegLex direction.  The convention is degree first, then plain lexicographic
# comparison of index sequences, so the pin below is deliberate and load
# bearing: X1X2 < X2X1 and X1 < X2.


def test_deglex_degree_dominates():
    assert deglex_key((2,)) < deglex_key((1, 1))


def test_deglex_direction_pin_within_degree():
    assert deglex_key((1, 2)) < deglex_key((2, 1))
    assert deglex_key((1,)) < deglex_key((2,))


def test_deglex_equal_and_rank_mismatch():
    assert deglex_key((1, 2)) == deglex_key((1, 2))
    with pytest.raises(ValueError):
        series_compare_witness(TruncSeries.unit(2, 1), TruncSeries.unit(3, 1))


def test_monomial_validation():
    with pytest.raises(ValueError):
        Monomial(2, (3,))
    with pytest.raises(ValueError):
        Monomial(0, ())


# ---------------------------------------------------------------------------
# Canonical storage and basic arithmetic.


def test_canonical_storage_rejects_zero_and_overflow():
    with pytest.raises(ValueError):
        TruncSeries(2, 2, {(1,): 0})
    with pytest.raises(ValueError):
        TruncSeries(2, 1, {(1, 2): 1})
    s = TruncSeries.from_terms(2, 1, [((1,), 1), ((1,), -1), ((1, 2), 7)])
    assert s.terms == {}


def test_add_cancels_to_sparse():
    x1 = TruncSeries.generator(2, 3, 1)
    s = x1 + (-x1)
    assert s.terms == {}


def test_mul_matches_dense_oracle():
    rng = random.Random(20)
    for _ in range(40):
        rank = rng.choice([1, 2, 3])
        trunc = rng.choice([0, 1, 2, 3])
        a = random_series(rng, rank, trunc)
        b = random_series(rng, rank, trunc)
        got = a * b
        assert got.terms == naive_mul(a.terms, b.terms, rank, trunc)


def test_ring_axioms_on_random_series():
    rng = random.Random(21)
    for _ in range(30):
        rank = rng.choice([2, 3])
        trunc = rng.choice([2, 3])
        a = random_series(rng, rank, trunc)
        b = random_series(rng, rank, trunc)
        c = random_series(rng, rank, trunc)
        one = TruncSeries.unit(rank, trunc)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert one * a == a and a * one == a
        assert a + b == b + a


def test_rank_and_trunc_mismatch_raise():
    a = TruncSeries.unit(2, 3)
    with pytest.raises(ValueError):
        a * TruncSeries.unit(3, 3)
    with pytest.raises(ValueError):
        a + TruncSeries.unit(2, 2)


def test_scalar_multiplication():
    x1 = TruncSeries.generator(2, 2, 1)
    assert (3 * x1).coefficient((1,)) == 3
    assert (x1 * Fraction(1, 2)).coefficient((1,)) == Fraction(1, 2)


# ---------------------------------------------------------------------------
# The truncated exponential behind test_chen's exact holonomy oracle.


def test_exp_frozen_example():
    x1 = TruncSeries.generator(1, 3, 1)
    assert exp(x1).terms == {
        (): 1,
        (1,): 1,
        (1, 1): Fraction(1, 2),
        (1, 1, 1): Fraction(1, 6),
    }


# ---------------------------------------------------------------------------
# Comparison.


def test_series_compare_first_difference_decides():
    # differ first at X1X2 (DegLex-smaller than X2X1)
    a = TruncSeries.from_terms(2, 2, [((), 1), ((2, 1), 1)])
    b = TruncSeries.from_terms(2, 2, [((), 1), ((1, 2), 1)])
    verdict, key, ca, cb = series_compare_witness(a, b)
    assert verdict is Verdict.LESS and key == (1, 2) and (ca, cb) == (0, 1)


def test_series_compare_antisymmetry_on_random_pairs():
    rng = random.Random(25)
    for _ in range(50):
        rank, trunc = 2, rng.choice([1, 2, 3])
        a = random_series(rng, rank, trunc)
        b = random_series(rng, rank, trunc)
        v, key, ca, cb = series_compare_witness(a, b)
        assert series_compare_witness(b, a) == (v.flipped(), key, cb, ca)
        assert (v is Verdict.EQUAL) == (a == b) == (key is None)


# ---------------------------------------------------------------------------
# Truncation coherence and serialization.


def test_truncation_coherence():
    rng = random.Random(26)
    for _ in range(30):
        rank = rng.choice([2, 3])
        n = rng.choice([2, 3, 4])
        m = rng.randrange(0, n + 1)
        a_n = random_series(rng, rank, n, constant=1)
        b_n = random_series(rng, rank, n)

        def cut(s):  # from_terms drops the terms above degree m
            return TruncSeries.from_terms(rank, m, s.terms)

        assert cut(a_n * b_n) == cut(a_n) * cut(b_n)
        assert cut(a_n + b_n) == cut(a_n) + cut(b_n)


def test_json_round_trip_is_exact():
    rng = random.Random(27)
    for _ in range(30):
        s = random_series(rng, rng.choice([1, 2, 3]), rng.choice([0, 1, 2, 3]))
        obj = to_json_obj(s)
        assert (obj["rank"], obj["trunc"]) == (s.rank, s.trunc)
        back = {tuple(key): Fraction(num, den) for key, num, den in obj["terms"]}
        assert back == s.terms
    assert to_json_obj(TruncSeries(2, 1, {(1,): Fraction(2, 4)}))["terms"] == [[[1], 1, 2]]


def test_json_rows_are_deglex_sorted():
    s = TruncSeries.from_terms(2, 2, [((2, 1), 1), ((1,), 1), ((), 1), ((1, 2), 1)])
    rows = [tuple(r[0]) for r in to_json_obj(s)["terms"]]
    assert rows == [(), (1,), (1, 2), (2, 1)]


def test_str_rendering():
    s = TruncSeries.from_terms(2, 2, [((), 1), ((1, 2), 1), ((2, 1), -1)])
    assert str(s) == "1 + X1X2 - X2X1"
    assert str(TruncSeries.zero(2, 2)) == "0"
