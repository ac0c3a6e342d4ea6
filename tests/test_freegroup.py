"""Tests for free-group words, Magnus expansions, and the Magnus ordering."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from biorder.freegroup import (
    FreeWord,
    WordSyntaxError,
    commutator,
    first_difference,
    format_word,
    lcs_depth,
    magnus_compare,
    magnus_expand,
    magnus_witness,
    parse_word,
    random_reduced_word,
    reduce_letters,
)
from biorder.series import Verdict, deglex_key

# ---------------------------------------------------------------------------
# Exhaustive enumeration, shared with test_ordtools and test_acceptance.


def all_reduced_words(rank, max_length):
    """All freely reduced words of length <= max_length, shortest first."""
    alphabet = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    frontier = [()]
    yield FreeWord.identity(rank)
    for _ in range(max_length):
        frontier = [
            word + (letter,)
            for word in frontier
            for letter in alphabet
            if not word or word[-1] != -letter
        ]
        yield from (FreeWord(rank, word) for word in frontier)


# ---------------------------------------------------------------------------
# Brute-force Magnus oracle: dense series product letter by letter, written
# against plain dicts so it shares nothing with TruncSeries internals.


def dense_mul(a, b, trunc):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            if len(ka) + len(kb) <= trunc:
                k = ka + kb
                out[k] = out.get(k, 0) + va * vb
    return {k: v for k, v in out.items() if v != 0}


def oracle_expand(word, trunc):
    result = {(): 1}
    for letter in word.letters:
        i = abs(letter)
        if letter > 0:
            factor = {(): 1, (i,): 1} if trunc >= 1 else {(): 1}
        else:
            factor = {(i,) * p: (-1) ** p for p in range(trunc + 1)}
        result = dense_mul(result, factor, trunc)
    return result


# ---------------------------------------------------------------------------
# Words.


def test_reduction_and_construction():
    assert reduce_letters((1, 2, -2, -1, 1)) == (1,)
    w = FreeWord.from_letters(2, (1, 2, -2, 1))
    assert w.letters == (1, 1)
    with pytest.raises(ValueError):
        FreeWord(2, (1, -1))
    with pytest.raises(ValueError):
        FreeWord(2, (3,))


def test_group_operations():
    x1 = FreeWord.generator(2, 1)
    x2 = FreeWord.generator(2, 2)
    assert (x1 * x1.inverse()).is_identity
    assert (x1 * x2).inverse().letters == (-2, -1)
    assert commutator(x1, x2).letters == (-1, -2, 1, 2)
    assert (x1**3).letters == (1, 1, 1)
    assert (x1**-2).letters == (-1, -1)


def test_commutator_of_commuting_elements_is_identity():
    x1 = FreeWord.generator(2, 1)
    assert commutator(x1, x1**4).is_identity


# ---------------------------------------------------------------------------
# Magnus expansion.


def test_expansion_of_generators():
    x1 = FreeWord.generator(2, 1)
    assert magnus_expand(x1, 3).terms == {(): 1, (1,): 1}
    assert magnus_expand(x1.inverse(), 3).terms == {
        (): 1,
        (1,): -1,
        (1, 1): 1,
        (1, 1, 1): -1,
    }


def test_expansion_of_commutator_lowest_terms():
    c = commutator(FreeWord.generator(2, 1), FreeWord.generator(2, 2))
    s = magnus_expand(c, 2)
    assert s.coefficient(()) == 1
    assert s.degree_part(1) == {}
    assert s.degree_part(2) == {(1, 2): 1, (2, 1): -1}


def test_expansion_matches_dense_oracle():
    rng = random.Random(31)
    for _ in range(60):
        rank = rng.choice([1, 2, 3])
        w = random_reduced_word(rng, rank, rng.randint(0, 8))
        trunc = rng.randint(0, 4)
        assert magnus_expand(w, trunc).terms == oracle_expand(w, trunc)


def test_expansion_is_homomorphism_sample():
    rng = random.Random(32)
    for _ in range(40):
        rank = rng.choice([2, 3])
        trunc = rng.randint(1, 4)
        a = random_reduced_word(rng, rank, rng.randint(0, 6))
        b = random_reduced_word(rng, rank, rng.randint(0, 6))
        assert magnus_expand(a * b, trunc) == magnus_expand(a, trunc) * magnus_expand(b, trunc)
        assert magnus_expand(a.inverse(), trunc) * magnus_expand(a, trunc) == magnus_expand(
            FreeWord.identity(rank), trunc
        )


def test_expansion_injectivity_on_short_words():
    # distinct reduced words of length <= 3 have distinct degree-<=3 expansions
    seen = {}
    for w in all_reduced_words(2, 3):
        key = tuple(sorted(magnus_expand(w, 3).terms.items()))
        assert key not in seen, (w.letters, seen[key])
        seen[key] = w.letters


# ---------------------------------------------------------------------------
# Lower-central-series depth.


def test_lcs_depth_ladder():
    x1 = FreeWord.generator(2, 1)
    x2 = FreeWord.generator(2, 2)
    assert lcs_depth(x1) == 1
    assert lcs_depth(commutator(x1, x2)) == 2
    assert lcs_depth(commutator(commutator(x1, x2), x2)) == 3


def test_lcs_depth_identity_rejected():
    with pytest.raises(ValueError):
        lcs_depth(FreeWord.identity(2))


def syllable_exponents(w):
    """[(i1, e1), ..., (is, es)] for the reduced w = x_{i1}^{e1} ... x_{is}^{es}."""
    return [
        (index, sum(1 if l > 0 else -1 for l in run))
        for index, run in itertools.groupby(w.letters, key=abs)
    ]


def test_lcs_depth_at_most_length_exhaustive_rank2():
    # the proven ceiling of first_difference: a nontrivial reduced word
    # shows a nonzero term by degree = its syllable count <= its length
    for w in all_reduced_words(2, 6):
        if w.is_identity:
            continue
        depth = lcs_depth(w, ceiling=len(w))
        assert depth is not None and depth <= len(syllable_exponents(w))


@st.composite
def reduced_words(draw, max_letters: int = 10) -> FreeWord:
    rank = draw(st.integers(1, 3))
    signed = [sign * i for i in range(1, rank + 1) for sign in (1, -1)]
    letters = draw(st.lists(st.sampled_from(signed), max_size=max_letters))
    return FreeWord.from_letters(rank, letters)


@settings(max_examples=200, deadline=None)
@given(reduced_words())
def test_lcs_depth_matches_full_expansion_at_every_ceiling(w):
    if w.is_identity:
        assert first_difference(w, 5) is None
        return
    full = magnus_expand(w, len(w))  # the expansion to full length, no escalation
    depth = full.lowest_degree()
    part = full.degree_part(depth)
    key = min(part, key=deglex_key)
    for ceiling in range(1, len(w) + 1):
        expected = depth if depth <= ceiling else None
        assert lcs_depth(w, ceiling) == expected
        found = first_difference(w, ceiling)
        assert found == (None if expected is None else (depth, key, part[key]))
    assert lcs_depth(w) == depth


@settings(max_examples=200, deadline=None)
@given(reduced_words())
def test_syllable_monomial_coefficient_is_product_of_exponents(w):
    syllables = syllable_exponents(w)
    key = tuple(index for index, _ in syllables)
    product = math.prod(exponent for _, exponent in syllables)
    assert product != 0
    assert magnus_expand(w, len(key)).coefficient(key) == product


def test_lcs_depth_on_long_commutators():
    x1 = FreeWord.generator(2, 1)
    x2 = FreeWord.generator(2, 2)
    c3 = commutator(commutator(commutator(x1, x2), x2), x2)
    c4 = commutator(c3, x2)
    assert len(c4) == 38
    assert lcs_depth(c3) == 4
    assert lcs_depth(c4) == 5


def test_lcs_depth_subadditivity_on_commutators():
    rng = random.Random(33)
    checked = 0
    while checked < 30:
        a = random_reduced_word(rng, 2, rng.randint(1, 4))
        b = random_reduced_word(rng, 2, rng.randint(1, 4))
        c = commutator(a, b)
        if a.is_identity or b.is_identity or c.is_identity:
            continue
        assert lcs_depth(c, ceiling=len(c)) >= lcs_depth(a) + lcs_depth(b)
        checked += 1


# ---------------------------------------------------------------------------
# Magnus ordering.


def test_compare_examples():
    rank = 2
    one = FreeWord.identity(rank)
    x1 = FreeWord.generator(rank, 1)
    x2 = FreeWord.generator(rank, 2)
    assert magnus_compare(one, x1) is Verdict.LESS
    assert magnus_compare(x1.inverse(), one) is Verdict.LESS
    # first differing monomial is X1, where x1 has the bigger coefficient
    assert magnus_compare(x2, x1) is Verdict.LESS
    assert magnus_compare(x2 * x1, x1 * x2) is Verdict.LESS
    assert magnus_compare(x1, x1) is Verdict.EQUAL


def test_compare_witness_reports_deciding_monomial():
    x1 = FreeWord.generator(2, 1)
    x2 = FreeWord.generator(2, 2)
    verdict, key, ca, cb = magnus_witness(x2 * x1, x1 * x2)
    assert verdict is Verdict.LESS
    assert key == (1, 2)
    assert (ca, cb) == (0, 1)


def test_compare_equality_via_free_reduction():
    a = parse_word("x1 x2 x2^-1", 2)
    b = parse_word("x1", 2)
    assert magnus_compare(a, b) is Verdict.EQUAL


def test_compare_total_order_axioms_random():
    rng = random.Random(34)
    words = [random_reduced_word(rng, 2, rng.randint(0, 6)) for _ in range(40)]
    for _ in range(150):
        a, b, c = rng.choice(words), rng.choice(words), rng.choice(words)
        v_ab = magnus_compare(a, b)
        assert magnus_compare(b, a) is v_ab.flipped()
        assert (v_ab is Verdict.EQUAL) == (a.letters == b.letters)
        if v_ab is not Verdict.GREATER and magnus_compare(b, c) is not Verdict.GREATER:
            assert magnus_compare(a, c) is not Verdict.GREATER


def test_compare_bi_invariance_random():
    rng = random.Random(35)
    for _ in range(100):
        a = random_reduced_word(rng, 2, rng.randint(0, 6))
        b = random_reduced_word(rng, 2, rng.randint(0, 6))
        c = random_reduced_word(rng, 2, rng.randint(0, 6))
        v = magnus_compare(a, b)
        assert magnus_compare(c * a, c * b) is v
        assert magnus_compare(a * c, b * c) is v


def is_positive(w):
    return magnus_compare(FreeWord.identity(w.rank), w) is Verdict.LESS


def test_positive_cone_closed_under_product_and_conjugation():
    rng = random.Random(36)
    found = 0
    while found < 40:
        a = random_reduced_word(rng, 2, rng.randint(1, 5))
        b = random_reduced_word(rng, 2, rng.randint(1, 5))
        if not (is_positive(a) and is_positive(b)):
            continue
        found += 1
        assert is_positive(a * b)
        g = random_reduced_word(rng, 2, rng.randint(0, 5))
        assert is_positive(g * a * g.inverse())


def test_lowest_differing_degree_shifts_with_left_translation():
    # whenever expansions of a and b first differ in degree d, those of
    # g*a and g*b also first differ in degree d, with the same difference
    rng = random.Random(37)
    checked = 0
    while checked < 30:
        a = random_reduced_word(rng, 2, rng.randint(0, 5))
        b = random_reduced_word(rng, 2, rng.randint(0, 5))
        if a.letters == b.letters:
            continue
        g = random_reduced_word(rng, 2, rng.randint(1, 5))
        d = lcs_depth(a.inverse() * b, ceiling=len(a) + len(b))
        assert d is not None
        assert magnus_expand(a, d - 1) == magnus_expand(b, d - 1)
        assert magnus_expand(g * a, d - 1) == magnus_expand(g * b, d - 1)
        sa, sb = magnus_expand(a, d), magnus_expand(b, d)
        ta, tb = magnus_expand(g * a, d), magnus_expand(g * b, d)
        diff_low = (sb - sa).degree_part(d)
        diff_shifted = (tb - ta).degree_part(d)
        assert diff_low == diff_shifted
        checked += 1


def test_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        magnus_compare(FreeWord.identity(2), FreeWord.identity(3))


# ---------------------------------------------------------------------------
# Grammar.


def test_parse_basic_tokens():
    w = parse_word("x1 x2^-1 x1^2", 2)
    assert w.letters == (1, -2, 1, 1)
    assert parse_word("1", 2).is_identity
    assert parse_word("  ", 2).is_identity


def test_parse_compact_alias():
    assert parse_word("abA", 2).letters == (1, 2, -1)
    assert parse_word("a B", 2).letters == (1, -2)


def test_parse_reduces():
    assert parse_word("x1 x1^-1 x2", 2).letters == (2,)


def test_parse_errors_carry_column():
    with pytest.raises(WordSyntaxError) as info:
        parse_word("x1 x9", 2)
    assert info.value.column == 4
    with pytest.raises(WordSyntaxError):
        parse_word("x1 ?", 2)
    with pytest.raises(WordSyntaxError) as info:
        parse_word("az", 2)
    assert info.value.column == 2


def test_format_round_trip():
    rng = random.Random(38)
    for _ in range(30):
        w = random_reduced_word(rng, 3, rng.randint(0, 7))
        assert parse_word(format_word(w), 3).letters == w.letters


# ---------------------------------------------------------------------------
# Sampling and enumeration (of the test helper above).


def test_random_words_are_reduced_and_deterministic():
    words_a = [random_reduced_word(random.Random(99), 2, 8) for _ in range(1)]
    words_b = [random_reduced_word(random.Random(99), 2, 8) for _ in range(1)]
    assert [w.letters for w in words_a] == [w.letters for w in words_b]


def test_enumeration_counts():
    # 2n(2n-1)^(k-1) reduced words of length exactly k
    words = list(all_reduced_words(2, 3))
    assert len(words) == 1 + 4 + 12 + 36
    assert len({w.letters for w in words}) == len(words)
    assert all(len(w) <= 3 for w in words)
