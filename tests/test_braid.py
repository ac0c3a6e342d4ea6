"""Braid layer: Artin action, combing, ordering, finite-type invariants."""

from __future__ import annotations

import random

import pytest

from biorder.braid import (
    BraidSyntaxError,
    CombedBraid,
    FiberExtractionError,
    PureBraidWord,
    SingularBraid,
    all_generators,
    artin_automorphism,
    braid_compare,
    braid_equal,
    braid_witness,
    comb,
    conjugation_relator,
    conjugation_relators,
    fiber_coordinates,
    format_braid,
    ft_invariant,
    insert_relator,
    is_trivial,
    parse_braid,
    parse_singular_braid,
    random_pure_braid,
    relator_count,
    singular_alternating_sum,
)
from biorder.freegroup import FreeWord, magnus_expand, parse_word
from biorder.series import Verdict
from test_braid_properties import forget_strand


def gen(n: int, i: int, j: int, sign: int = 1) -> PureBraidWord:
    return PureBraidWord.generator(n, i, j, sign)


def substitute_words(images: tuple[FreeWord, ...], w: FreeWord) -> FreeWord:
    """Apply a substitution x_i -> images[i-1] to a free word."""
    out = FreeWord.identity(images[0].rank)
    for letter in w.letters:
        img = images[abs(letter) - 1]
        out = out * (img if letter > 0 else img.inverse())
    return out


# ---------------------------------------------------------------------------
# Artin action.


def test_full_twist_images_on_two_strands():
    # The standard full-twist formulas: x1 -> (x1x2) x1 (x1x2)^-1 and
    # x2 -> x1 x2 x1^-1.
    a12 = gen(2, 1, 2)
    img1, img2 = artin_automorphism(a12)
    assert img1 == parse_word("x1 x2 x1 x2^-1 x1^-1", 2)
    assert img2 == parse_word("x1 x2 x1^-1", 2)


def test_full_twist_fixes_boundary_word():
    # Every braid action fixes the product x1 x2 .. xn.
    rng = random.Random(11)
    for _ in range(40):
        n = rng.choice([2, 3, 4])
        w = random_pure_braid(rng, n, rng.randrange(0, 7))
        images = artin_automorphism(w)
        boundary = FreeWord.identity(n)
        for img in images:
            boundary = boundary * img
        assert boundary == FreeWord(n, tuple(range(1, n + 1)))


def test_pure_braid_images_are_conjugates_of_generators():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.choice([3, 4])
        w = random_pure_braid(rng, n, rng.randrange(0, 6))
        for g, img in enumerate(artin_automorphism(w), start=1):
            # img = V x_g V^-1 for some V: check the middle letter.
            assert len(img.letters) % 2 == 1
            assert img.letters[len(img.letters) // 2] == g


def test_action_composes_contravariantly():
    # Letters act left to right, so the word ab acts by (action of b) after
    # (action of a) at the substitution level.
    rng = random.Random(13)
    for _ in range(40):
        n = rng.choice([2, 3])
        a = random_pure_braid(rng, n, rng.randrange(0, 5))
        b = random_pure_braid(rng, n, rng.randrange(0, 5))
        images_ab = artin_automorphism(a * b)
        images_a = artin_automorphism(a)
        images_b = artin_automorphism(b)
        for g in range(n):
            assert images_ab[g] == substitute_words(images_b, images_a[g])


def test_braid_equal_and_inverses():
    rng = random.Random(14)
    for _ in range(30):
        n = rng.choice([2, 3, 4])
        a = random_pure_braid(rng, n, rng.randrange(0, 6))
        assert is_trivial(a * a.inverse())
        assert is_trivial(a.inverse() * a)
        assert braid_equal(a, a)
    # Distinct generators are distinct braids.
    assert not braid_equal(gen(3, 1, 2), gen(3, 1, 3))
    with pytest.raises(ValueError):
        braid_equal(gen(3, 1, 2), gen(4, 1, 2))


def test_commuting_generators_commute():
    # A12 and A34 involve disjoint strand pairs.
    a, b = gen(4, 1, 2), gen(4, 3, 4)
    assert braid_equal(a * b, b * a)
    assert artin_automorphism(a * b) == artin_automorphism(b * a)


# ---------------------------------------------------------------------------
# Fibration and fiber coordinates.


def test_fiber_coordinates_of_kernel_generators():
    # Calibration: A_in maps to y_i, for every strand count up to 5.
    for n in range(2, 6):
        for i in range(1, n):
            for sign in (1, -1):
                got = fiber_coordinates(gen(n, i, n, sign))
                assert got == FreeWord(n - 1, (sign * i,))


def test_fiber_coordinates_on_generator_products():
    rng = random.Random(16)
    for _ in range(100):
        n = rng.choice([3, 4])
        length = rng.randrange(0, 7)
        letters = tuple(
            (rng.randrange(1, n), n, rng.choice([1, -1])) for _ in range(length)
        )
        w = PureBraidWord(n, letters)
        expected = FreeWord.identity(n - 1)
        for i, _, s in letters:
            expected = expected * FreeWord(n - 1, (s * i,))
        assert fiber_coordinates(w) == expected


def test_fiber_coordinates_roundtrip_on_general_kernel_elements():
    # Kernel elements that are not words in the A_in alone still round-trip:
    # lifting the fiber word letter by letter recovers the same braid.
    rng = random.Random(17)
    for _ in range(60):
        n = rng.choice([3, 4])
        w = random_pure_braid(rng, n, rng.randrange(1, 7))
        u = PureBraidWord(n, forget_strand(w).letters).inverse() * w
        y = fiber_coordinates(u)
        lift = PureBraidWord(
            n, tuple((abs(l), n, 1 if l > 0 else -1) for l in y.letters)
        )
        assert artin_automorphism(lift) == artin_automorphism(u)


def test_fiber_coordinates_rejects_non_kernel_input():
    with pytest.raises(FiberExtractionError):
        fiber_coordinates(gen(3, 1, 2))


# ---------------------------------------------------------------------------
# Combing.


def test_comb_small_examples():
    one1 = FreeWord.identity(1)
    one2 = FreeWord.identity(2)
    y1_r1 = FreeWord(1, (1,))
    y1_r2 = FreeWord(2, (1,))
    y2_r2 = FreeWord(2, (2,))
    assert comb(gen(3, 1, 2)).factors == (y1_r1, one2)
    assert comb(gen(3, 1, 3)).factors == (one1, y1_r2)
    assert comb(gen(3, 2, 3)).factors == (one1, y2_r2)
    assert comb(PureBraidWord.identity(3)).factors == (one1, one2)


def test_comb_base_factors_match_forgotten_braid():
    rng = random.Random(18)
    for _ in range(30):
        w = random_pure_braid(rng, 4, rng.randrange(0, 6))
        assert comb(w).factors[:-1] == comb(forget_strand(w)).factors


def test_comb_recombination_roundtrip():
    rng = random.Random(19)
    for _ in range(60):
        n = rng.choice([2, 3, 4])
        w = random_pure_braid(rng, n, rng.randrange(0, 7))
        back = comb(w).to_word()
        assert artin_automorphism(back) == artin_automorphism(w)


def test_comb_is_injective_on_a_sample():
    rng = random.Random(20)
    for _ in range(40):
        a = random_pure_braid(rng, 3, rng.randrange(0, 6))
        b = random_pure_braid(rng, 3, rng.randrange(0, 6))
        if artin_automorphism(a) == artin_automorphism(b):
            assert comb(a).factors == comb(b).factors
        else:
            assert comb(a).factors != comb(b).factors


def test_combed_braid_validates_factor_ranks():
    with pytest.raises(ValueError):
        CombedBraid(3, (FreeWord.identity(1),))
    with pytest.raises(ValueError):
        CombedBraid(3, (FreeWord.identity(2), FreeWord.identity(2)))


# ---------------------------------------------------------------------------
# Ordering.


def test_compare_matches_worked_examples():
    # The identity sits below every positive kernel generator, and the
    # level-1 factor dominates the level-2 factor.
    assert braid_compare(PureBraidWord.identity(3), gen(3, 1, 3)) is Verdict.LESS
    assert braid_compare(gen(3, 1, 3), gen(3, 1, 2)) is Verdict.LESS
    assert braid_compare(gen(3, 1, 2), gen(3, 1, 2)) is Verdict.EQUAL


def test_compare_equality_agrees_with_braid_equal():
    rng = random.Random(21)
    for _ in range(60):
        a = random_pure_braid(rng, 3, rng.randrange(0, 5))
        b = random_pure_braid(rng, 3, rng.randrange(0, 5))
        same = braid_compare(a, b) is Verdict.EQUAL
        assert same == (artin_automorphism(a) == artin_automorphism(b))


def test_compare_total_order_axioms_on_sample():
    rng = random.Random(22)
    words = [random_pure_braid(rng, 3, rng.randrange(0, 5)) for _ in range(12)]
    for a in words:
        for b in words:
            ab = braid_compare(a, b)
            assert braid_compare(b, a) is ab.flipped()
            for c in words:
                if ab is Verdict.LESS and braid_compare(b, c) is Verdict.LESS:
                    assert braid_compare(a, c) is Verdict.LESS


def test_compare_bi_invariance_sample():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.choice([3, 4])
        a = random_pure_braid(rng, n, rng.randrange(0, 5))
        b = random_pure_braid(rng, n, rng.randrange(0, 5))
        c = random_pure_braid(rng, n, rng.randrange(0, 4))
        verdict = braid_compare(a, b)
        assert braid_compare(c * a, c * b) is verdict
        assert braid_compare(a * c, b * c) is verdict


def test_compare_witness_reports_level_and_monomial():
    verdict, level, key, va, vb = braid_witness(gen(3, 1, 3), gen(3, 1, 2))
    assert verdict is Verdict.LESS
    assert level == 1
    assert key == (1,)
    assert (va, vb) == (0, 1)
    verdict, level, key, va, vb = braid_witness(gen(3, 1, 2), gen(3, 1, 2))
    assert verdict is Verdict.EQUAL and level is None and key is None


def test_compare_rejects_strand_mismatch():
    with pytest.raises(ValueError):
        braid_compare(gen(3, 1, 2), gen(4, 1, 2))


# ---------------------------------------------------------------------------
# Relators.


def test_generated_relators_are_trivial_and_plentiful():
    for n in (3, 4):
        relators = conjugation_relators(n)
        assert relators  # the presentation is not free for n >= 3
        identity = artin_automorphism(PureBraidWord.identity(n))
        for rel in relators:
            assert artin_automorphism(rel) == identity
            assert is_trivial(rel)


def test_relator_index_runs_over_generator_pairs_then_signs():
    for n in (2, 3, 4, 5):
        gens = all_generators(n)
        pairs = [(g, h, e) for g in gens for h in gens if g != h for e in (1, -1)]
        assert relator_count(n) == len(pairs)
        for k, (g, h, e) in enumerate(pairs):
            assert conjugation_relator(n, k).letters[:3] == ((*g, e), (*h, 1), (*g, -e))
    with pytest.raises(ValueError):
        conjugation_relator(3, relator_count(3))


def test_relator_insertion_preserves_verdicts():
    rng = random.Random(24)
    relators = conjugation_relators(3)
    for _ in range(40):
        a = random_pure_braid(rng, 3, rng.randrange(0, 5))
        b = random_pure_braid(rng, 3, rng.randrange(0, 5))
        verdict = braid_compare(a, b)
        rel = rng.choice(relators)
        pos = rng.randrange(0, len(a.letters) + 1)
        assert braid_compare(insert_relator(a, rel, pos), b) is verdict


def test_insert_relator_validates_position():
    with pytest.raises(ValueError):
        insert_relator(gen(3, 1, 2), conjugation_relators(3)[0], 5)


# ---------------------------------------------------------------------------
# Finite-type invariants.


def test_degree_one_invariants_are_signed_letter_counts():
    rng = random.Random(25)
    for _ in range(50):
        n = rng.choice([3, 4])
        w = random_pure_braid(rng, n, rng.randrange(0, 7))
        for k in range(1, n):
            for i in range(1, k + 1):
                expected = sum(
                    s for (a, b, s) in w.letters if (a, b) == (i, k + 1)
                )
                assert ft_invariant(k, (i,), w) == expected


def test_ft_invariant_degree_two_example():
    w = parse_braid("A13 A23", strands=3)
    assert ft_invariant(2, (1, 2), w) == 1
    assert ft_invariant(2, (2, 1), w) == 0
    assert ft_invariant(2, (1,), w) == 1
    assert ft_invariant(2, (2,), w) == 1


def test_ft_invariant_matches_magnus_expansion_of_factor():
    rng = random.Random(26)
    for _ in range(25):
        w = random_pure_braid(rng, 3, rng.randrange(0, 6))
        factor = comb(w).factors[1]
        series = magnus_expand(factor, 3)
        for key in [(1,), (2,), (1, 1), (1, 2), (2, 1), (1, 2, 2)]:
            assert ft_invariant(2, key, w) == series.coefficient(key)


def test_ft_invariant_validates_input():
    w = gen(3, 1, 3)
    with pytest.raises(ValueError):
        ft_invariant(3, (1,), w)
    with pytest.raises(ValueError):
        ft_invariant(2, (3,), w)


# ---------------------------------------------------------------------------
# Singular braids.


def test_resolutions_enumerate_all_sign_patterns():
    s = parse_singular_braid("*A13 A12 *A23", strands=3)
    pairs = list(s.resolutions())
    assert len(pairs) == 4
    assert sum(sign for sign, _ in pairs) == 0
    signs_at_marks = {
        (w.letters[0][2], w.letters[2][2]): sign for sign, w in pairs
    }
    assert signs_at_marks[(1, 1)] == 1
    assert signs_at_marks[(-1, -1)] == 1
    assert signs_at_marks[(1, -1)] == -1


def test_singular_sum_without_marks_is_plain_evaluation():
    s = parse_singular_braid("A13 A23", strands=3)
    assert singular_alternating_sum(s, lambda w: ft_invariant(2, (1, 2), w)) == 1


def test_degree_one_invariant_vanishes_on_two_marks():
    rng = random.Random(27)
    for _ in range(25):
        w = random_pure_braid(rng, 3, 5)
        # Mark two positive letters (insert them to guarantee positivity).
        marked_word = gen(3, 1, 3) * w * gen(3, 2, 3)
        s = SingularBraid(marked_word, (0, len(marked_word.letters) - 1))
        for k, i in [(1, 1), (2, 1), (2, 2)]:
            assert singular_alternating_sum(
                s, lambda v: ft_invariant(k, (i,), v)
            ) == 0


def test_alternating_sum_witness_is_two_to_the_degree():
    # d marked copies of A13 against the degree-d invariant at Y1^d.
    for d in (1, 2, 3):
        word = PureBraidWord(3, ((1, 3, 1),) * d)
        s = SingularBraid(word, tuple(range(d)))
        total = singular_alternating_sum(
            s, lambda w: ft_invariant(2, (1,) * d, w)
        )
        assert total == 2**d


def test_singular_braid_validates_marks():
    w = parse_braid("A12 A13^-1", strands=3)
    with pytest.raises(ValueError):
        SingularBraid(w, (1,))  # negative crossing
    with pytest.raises(ValueError):
        SingularBraid(w, (5,))
    with pytest.raises(ValueError):
        SingularBraid(w, (0, 0))


# ---------------------------------------------------------------------------
# Grammar.


def test_parse_and_format_roundtrip():
    rng = random.Random(28)
    for _ in range(30):
        w = random_pure_braid(rng, rng.choice([2, 3, 4]), rng.randrange(0, 6))
        assert parse_braid(format_braid(w), strands=w.strands) == w


def test_parse_and_format_roundtrip_on_ten_or_more_strands():
    assert format_braid(gen(10, 1, 10)) == "A1,10"
    assert format_braid(gen(11, 1, 11, -1)) == "A1,11^-1"
    assert format_braid(gen(12, 10, 12)) == "A10,12"
    assert format_braid(gen(10, 2, 9)) == "A29"
    assert parse_braid("A1,10^-2 A2,3", strands=10).letters == (
        (1, 10, -1), (1, 10, -1), (2, 3, 1),
    )
    assert parse_braid("A3,11").strands == 11
    rng = random.Random(29)
    for _ in range(30):
        w = random_pure_braid(rng, rng.choice([10, 11, 12]), rng.randrange(0, 8))
        assert parse_braid(format_braid(w), strands=w.strands) == w
        marked = tuple(p for p, (_, _, sign) in enumerate(w.letters) if sign > 0)[:2]
        singular = SingularBraid(w, marked)
        tokens = format_braid(w).split()
        text = " ".join("*" * (p in marked) + token for p, token in enumerate(tokens))
        assert parse_singular_braid(text, strands=w.strands) == singular
    for token in ("A110", "A111", "A1,", "A,10", "A1,10,11"):
        with pytest.raises(BraidSyntaxError):
            parse_braid(token, strands=12)


def test_parse_powers_and_identity():
    assert parse_braid("A13^3", strands=3).letters == ((1, 3, 1),) * 3
    assert parse_braid("A13^-2", strands=3).letters == ((1, 3, -1),) * 2
    assert parse_braid("1", strands=3) == PureBraidWord.identity(3)
    assert parse_braid("A12 A13^0", strands=3) == gen(3, 1, 2)


def test_parse_infers_strand_count():
    assert parse_braid("A12 A24").strands == 4
    assert parse_braid("1").strands == 2


def test_parse_singular_marks_positions():
    s = parse_singular_braid("A12 *A13 A12^-1 *A23", strands=3)
    assert s.marked == (1, 3)
    assert format_braid(s.word) == "A12 A13 A12^-1 A23"


def test_parse_errors_carry_columns():
    with pytest.raises(BraidSyntaxError) as info:
        parse_braid("A12 B13", strands=3)
    assert info.value.column == 5
    with pytest.raises(BraidSyntaxError) as info:
        parse_braid("A21", strands=3)
    assert info.value.column == 1
    with pytest.raises(BraidSyntaxError):
        parse_braid("A14", strands=3)
    with pytest.raises(BraidSyntaxError):
        parse_braid("*A12", strands=3)  # marks need the singular parser
    with pytest.raises(BraidSyntaxError):
        parse_singular_braid("*A12^2", strands=3)
    with pytest.raises(BraidSyntaxError):
        parse_singular_braid("*A12^-1", strands=3)
