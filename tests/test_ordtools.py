"""Tests for the nilpotent-class ladder and the axiom harness."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from biorder.freegroup import (
    FreeWord,
    commutator,
    format_word,
    lcs_depth,
    magnus_compare,
    magnus_expand,
    random_reduced_word,
)
from biorder.ordtools import (
    GroupOrderOracle,
    UndecidedAtClass,
    axiom_harness,
    iterated_extension_compare,
    magnus_order_oracle,
)
from biorder.series import Verdict, deglex_key
from test_freegroup import all_reduced_words

# ---------------------------------------------------------------------------
# iterated_extension_compare.


def test_iterated_extension_examples():
    one = FreeWord.identity(2)
    x1 = FreeWord.generator(2, 1)
    x2 = FreeWord.generator(2, 2)
    c = commutator(x1, x2)
    assert iterated_extension_compare(x2, x1, 10) is Verdict.LESS
    assert iterated_extension_compare(one, c, 10) is Verdict.LESS
    assert iterated_extension_compare(c, one, 10) is Verdict.GREATER
    assert iterated_extension_compare(x1, x1, 10) is Verdict.EQUAL


def test_iterated_extension_decides_exactly_at_depth():
    x1 = FreeWord.generator(2, 1)
    x2 = FreeWord.generator(2, 2)
    pairs = [
        (FreeWord.identity(2), commutator(x1, x2)),
        (x1, x1 * commutator(x1, x2)),
        (FreeWord.identity(2), commutator(commutator(x1, x2), x2)),
    ]
    for a, b in pairs:
        depth = lcs_depth(a.inverse() * b, ceiling=len(a) + len(b))
        assert depth is not None
        with pytest.raises(UndecidedAtClass):
            iterated_extension_compare(a, b, depth - 1)
        assert iterated_extension_compare(a, b, depth) in (
            Verdict.LESS,
            Verdict.GREATER,
        )


def test_undecided_at_class_carries_bound():
    c = commutator(FreeWord.generator(2, 1), FreeWord.generator(2, 2))
    with pytest.raises(UndecidedAtClass) as info:
        iterated_extension_compare(FreeWord.identity(2), c, 1)
    assert info.value.max_class == 1


def test_iterated_extension_agrees_with_magnus_short_words():
    words = list(all_reduced_words(2, 3))
    for a in words:
        for b in words:
            if a.letters == b.letters:
                continue
            assert iterated_extension_compare(a, b, 10) is magnus_compare(a, b)


def class_by_class_compare(a: FreeWord, b: FreeWord, max_class: int) -> Verdict:
    """The class ladder as first written: expand a^-1 b at every class in turn."""
    if a.letters == b.letters:
        return Verdict.EQUAL
    diff = a.inverse() * b
    for k in range(1, max_class + 1):
        expansion = magnus_expand(diff, k)
        if expansion.lowest_degree() is None:
            continue
        part = expansion.degree_part(k)
        if not part:
            continue
        first = min(part, key=deglex_key)
        return Verdict.LESS if part[first] > 0 else Verdict.GREATER
    raise UndecidedAtClass(max_class)


@st.composite
def word_pairs_and_class(draw) -> tuple[FreeWord, FreeWord, int]:
    rank = draw(st.integers(1, 3))
    letters = st.sampled_from([s * i for i in range(1, rank + 1) for s in (1, -1)])
    a = FreeWord.from_letters(rank, draw(st.lists(letters, max_size=7)))
    b = a * FreeWord.from_letters(rank, draw(st.lists(letters, max_size=7)))
    return a, b, draw(st.integers(1, max(1, len(a) + len(b))))


@settings(max_examples=300, deadline=None)
@given(word_pairs_and_class())
def test_iterated_extension_matches_class_by_class_loop(case):
    a, b, max_class = case
    try:
        expected = class_by_class_compare(a, b, max_class)
    except UndecidedAtClass:
        with pytest.raises(UndecidedAtClass):
            iterated_extension_compare(a, b, max_class)
    else:
        assert iterated_extension_compare(a, b, max_class) is expected


def test_iterated_extension_input_validation():
    with pytest.raises(ValueError):
        iterated_extension_compare(FreeWord.identity(2), FreeWord.identity(3), 5)
    with pytest.raises(ValueError):
        iterated_extension_compare(FreeWord.identity(2), FreeWord.identity(2), 0)


# ---------------------------------------------------------------------------
# Harness behaviour.


def word_length_oracle(rank: int) -> GroupOrderOracle:
    """Compare by reduced word length: deliberately NOT invariant.

    Cancellation under translation produces left- and right-invariance
    violations that the report should surface.
    """

    def compare(a: FreeWord, b: FreeWord) -> Verdict:
        if len(a) < len(b):
            return Verdict.LESS
        if len(a) > len(b):
            return Verdict.GREATER
        return Verdict.EQUAL

    return GroupOrderOracle(
        name=f"wordlen/F{rank}",
        compare=compare,
        multiply=lambda a, b: a * b,
        describe=format_word,
    )


def random_triples(rng, rank, count, max_len=6):
    return [
        tuple(random_reduced_word(rng, rank, rng.randint(0, max_len)) for _ in range(3))
        for _ in range(count)
    ]


def test_harness_passes_magnus_oracle():
    rng = random.Random(42)
    report = axiom_harness(magnus_order_oracle(2), random_triples(rng, 2, 200))
    assert report.passed
    assert report.samples == 200


def test_harness_flags_word_length_oracle():
    rng = random.Random(43)
    report = axiom_harness(word_length_oracle(2), random_triples(rng, 2, 300))
    assert not report.passed
    axioms = {v.axiom for v in report.violations}
    assert "left-invariance" in axioms


def test_harness_caps_recorded_violations():
    rng = random.Random(45)
    report = axiom_harness(
        word_length_oracle(2), random_triples(rng, 2, 300), max_violations=5
    )
    assert len(report.violations) == 5
    assert report.samples == 300


def test_conjugation_invariance_of_magnus_order():
    rng = random.Random(46)
    for _ in range(150):
        a, b, g = (random_reduced_word(rng, 2, rng.randint(0, 5)) for _ in range(3))
        conjugated = magnus_compare(g * a * g.inverse(), g * b * g.inverse())
        assert conjugated is magnus_compare(a, b)
