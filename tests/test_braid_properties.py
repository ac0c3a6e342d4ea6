"""Property tests of combing and braid equality against the Artin action.

Combing, ``braid_equal`` and ``is_trivial`` all run through the collection
pass over the conjugation table, so they cannot check one another.  The
oracle here is the route combing used before that pass: the fiber word of
lifted(base)^-1 * w read off the x_n image under the Artin action, with the
x_n letters deleted, recursing on the base.  The image is built one letter
at a time from ``artin_automorphism`` of single generators, so only the x_n
image is ever expanded.
"""

from __future__ import annotations

import functools

from hypothesis import given, settings, strategies as st

from biorder.braid import (
    PureBraidWord,
    all_generators,
    artin_automorphism,
    braid_equal,
    comb,
    conjugation_relators,
    insert_relator,
    is_trivial,
)
from biorder.freegroup import FreeWord

MAX_STRANDS = 6
MAX_LENGTH = 10


@functools.lru_cache(maxsize=None)
def _letter_images(strands: int, letter: tuple[int, int, int]):
    images = artin_automorphism(PureBraidWord(strands, (letter,)))
    return tuple(img.letters for img in images)


def _artin_image(w: PureBraidWord, g: int) -> tuple[int, ...]:
    """The image of x_g under the Artin action of w, applied letter by letter."""
    word = [g]
    for letter in w.letters:
        images = _letter_images(w.strands, letter)
        out: list[int] = []
        for l in word:
            img = images[l - 1] if l > 0 else [-x for x in reversed(images[-l - 1])]
            for x in img:
                if out and out[-1] == -x:
                    out.pop()
                else:
                    out.append(x)
        word = out
    return tuple(word)


def _artin_fiber_word(u: PureBraidWord) -> FreeWord:
    """W with its x_n letters deleted, for a kernel element u(x_n) = W x_n W^-1."""
    n = u.strands
    image = _artin_image(u, n)
    half = len(image) // 2
    assert image[half] == n
    assert image[half + 1 :] == tuple(-l for l in reversed(image[:half]))
    return FreeWord.from_letters(n - 1, (l for l in image[:half] if abs(l) != n))


def forget_strand(w: PureBraidWord) -> PureBraidWord:
    """Delete strand n: A_ij survives for j < n, A_in dies."""
    return PureBraidWord(w.strands - 1, tuple(l for l in w.letters if l[1] < w.strands))


def artin_comb(w: PureBraidWord) -> tuple[FreeWord, ...]:
    if w.strands == 2:
        return (_artin_fiber_word(w),)
    base = forget_strand(w)
    kernel_part = PureBraidWord(w.strands, base.letters).inverse() * w
    return artin_comb(base) + (_artin_fiber_word(kernel_part),)


def _letters(strands: int, max_length: int):
    return st.lists(
        st.tuples(st.sampled_from(all_generators(strands)), st.sampled_from((1, -1))),
        max_size=max_length,
    ).map(lambda ls: tuple((i, j, s) for (i, j), s in ls))


@st.composite
def braids(draw, max_length: int = MAX_LENGTH) -> PureBraidWord:
    n = draw(st.integers(2, MAX_STRANDS))
    return PureBraidWord(n, draw(_letters(n, max_length)))


@st.composite
def braid_pairs(draw, max_length: int = 8):
    """A random pair, or a braid and a copy with relators spliced in."""
    n = draw(st.integers(3, MAX_STRANDS))
    a = PureBraidWord(n, draw(_letters(n, max_length)))
    if draw(st.booleans()):
        return a, PureBraidWord(n, draw(_letters(n, max_length)))
    relators = conjugation_relators(n)
    b = a
    for _ in range(draw(st.integers(1, 2))):
        rel = draw(st.sampled_from(relators))
        b = insert_relator(b, rel, draw(st.integers(0, len(b.letters))))
    if draw(st.booleans()):  # a near miss: one letter of the copy flipped
        pos = draw(st.integers(0, len(b.letters) - 1))
        i, j, s = b.letters[pos]
        b = PureBraidWord(n, b.letters[:pos] + ((i, j, -s),) + b.letters[pos + 1 :])
    return a, b


def _same_action(a: PureBraidWord, b: PureBraidWord) -> bool:
    return all(
        _artin_image(a, g) == _artin_image(b, g) for g in range(1, a.strands + 1)
    )


@settings(max_examples=300, deadline=None)
@given(braids())
def test_comb_matches_the_artin_oracle(w):
    assert comb(w).factors == artin_comb(w)


@settings(max_examples=200, deadline=None)
@given(braids(max_length=6))  # normal forms of longer braids have huge images
def test_is_trivial_and_recombination_agree_with_the_artin_action(w):
    back = comb(w).to_word()
    assert _same_action(back, w)
    identity = PureBraidWord.identity(w.strands)
    for u in (w, w * back.inverse()):
        assert is_trivial(u) == _same_action(u, identity)


@settings(max_examples=200, deadline=None)
@given(braid_pairs())
def test_braid_equal_is_equality_of_artin_images(pair):
    a, b = pair
    assert braid_equal(a, b) == _same_action(a, b)
