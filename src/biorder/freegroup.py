"""Free-group words, the Magnus expansion, and the Magnus ordering.

Words are stored freely reduced, with letters encoded as signed generator
indices (+i for x_i, -i for its inverse).  The Magnus expansion sends
x_i to 1 + X_i and extends multiplicatively into truncated series; the
Magnus ordering compares expansions coefficient by coefficient in DegLex
order, escalating the truncation until a difference appears.

``first_difference`` is the one kernel behind the lower-central-series
depth and the class ladder: it raises the truncation of a single word one
degree at a time and stops at the lowest nonzero degree of M(w) - 1,
which never lies above the syllable count of w.  Since
M(b) - M(a) = M(a)(M(a^-1 b) - 1), that degree is also where the
expansions of a and b first differ, so the same bound caps the
escalation of ``magnus_witness``.
"""

from __future__ import annotations

import functools
import random
import re
from dataclasses import dataclass
from typing import Iterable

from .series import Coeff, TruncSeries, Verdict, series_compare_witness

_EXPAND_CACHE_SIZE = 1 << 16


class WordSyntaxError(ValueError):
    """Raised on malformed word text; carries the 1-based column."""

    def __init__(self, message: str, column: int):
        super().__init__(f"col {column}: {message}")
        self.column = column


def reduce_letters(letters: Iterable[int]) -> tuple[int, ...]:
    """Freely reduce a letter sequence (cancel adjacent x x^-1 pairs)."""
    stack: list[int] = []
    for letter in letters:
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


@dataclass(frozen=True)
class FreeWord:
    """A freely reduced word in the free group F_rank."""

    rank: int  # number of generators, >= 1
    letters: tuple[int, ...]  # signed indices, no adjacent cancellation

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        for letter in self.letters:
            if letter == 0 or abs(letter) > self.rank:
                raise ValueError(f"letter {letter} out of range for rank {self.rank}")
        for a, b in zip(self.letters, self.letters[1:]):
            if a == -b:
                raise ValueError(f"word {self.letters} is not freely reduced")

    @classmethod
    def identity(cls, rank: int) -> FreeWord:
        return cls(rank, ())

    @classmethod
    def generator(cls, rank: int, i: int, sign: int = 1) -> FreeWord:
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        return cls(rank, (sign * i,))

    @classmethod
    def from_letters(cls, rank: int, letters: Iterable[int]) -> FreeWord:
        """Build a word from an arbitrary letter sequence, reducing it."""
        return cls(rank, reduce_letters(letters))

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __mul__(self, other: FreeWord) -> FreeWord:
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")
        return FreeWord(self.rank, reduce_letters(self.letters + other.letters))

    def inverse(self) -> FreeWord:
        return FreeWord(self.rank, tuple(-l for l in reversed(self.letters)))

    def __pow__(self, n: int) -> FreeWord:
        base = self if n >= 0 else self.inverse()
        out = FreeWord.identity(self.rank)
        for _ in range(abs(n)):
            out = out * base
        return out

    def __str__(self) -> str:
        return format_word(self)


def commutator(a: FreeWord, b: FreeWord) -> FreeWord:
    """[a, b] = a^-1 b^-1 a b."""
    return a.inverse() * b.inverse() * a * b


# ---------------------------------------------------------------------------
# Magnus expansion.


def _mul_by_generator(
    terms: dict[tuple[int, ...], Coeff], i: int, trunc: int
) -> dict[tuple[int, ...], Coeff]:
    # multiply on the right by (1 + X_i)
    out = dict(terms)
    for key, val in terms.items():
        if len(key) < trunc:
            shifted = key + (i,)
            acc = out.get(shifted, 0) + val
            if acc:
                out[shifted] = acc
            elif shifted in out:
                del out[shifted]
    return out


def _mul_by_generator_inverse(
    terms: dict[tuple[int, ...], Coeff], i: int, trunc: int
) -> dict[tuple[int, ...], Coeff]:
    # multiply on the right by 1 - X_i + X_i^2 - ... (truncated geometric)
    out: dict[tuple[int, ...], Coeff] = {}
    for key, val in terms.items():
        room = trunc - len(key)
        for p in range(room + 1):
            shifted = key + (i,) * p
            acc = out.get(shifted, 0) + (val if p % 2 == 0 else -val)
            if acc:
                out[shifted] = acc
            elif shifted in out:
                del out[shifted]
    return out


@functools.lru_cache(maxsize=_EXPAND_CACHE_SIZE)
def _expand(rank: int, letters: tuple[int, ...], trunc: int) -> TruncSeries:
    terms: dict[tuple[int, ...], Coeff] = {(): 1}
    for letter in letters:
        if letter > 0:
            terms = _mul_by_generator(terms, letter, trunc)
        else:
            terms = _mul_by_generator_inverse(terms, -letter, trunc)
    return TruncSeries(rank, trunc, terms)


def magnus_expand(w: FreeWord, trunc: int) -> TruncSeries:
    """The Magnus expansion of w, truncated at total degree ``trunc``.

    x_i maps to 1 + X_i and x_i^-1 to the truncated geometric inverse;
    the result always has constant term 1 and integer coefficients.
    """
    if trunc < 0:
        raise ValueError(f"truncation must be >= 0, got {trunc}")
    return _expand(w.rank, w.letters, trunc)


def first_difference(w: FreeWord, ceiling: int) -> tuple[int, tuple[int, ...], Coeff] | None:
    """The lowest nonzero degree of M(w) - 1 and its DegLex-first term.

    Raises the truncation one degree at a time, from 1 up to ``ceiling``,
    and returns ``(degree, monomial, coefficient)`` for the DegLex-first
    monomial of the first nonempty degree part of ``magnus_expand(w,
    degree)``, or None if every degree up to ``ceiling`` is zero (at once
    for the identity).

    The climb never passes the syllable count s of w != 1, a proven bound,
    not an observed one.  Write the reduced w as x_{i1}^{e1} ...
    x_{is}^{es} with i_j != i_{j+1}.  Each syllable expands to
    1 + e_j X_{ij} + (powers of X_{ij} of degree >= 2), so each term of
    M(w) is a product of blocks X_{ij}^{k_j}, one per syllable, with
    k_j >= 0.  The monomial X_{i1} ... X_{is} has no two equal letters
    side by side, so a product equal to it has every k_j <= 1, and with
    total degree s every k_j = 1.  Its coefficient is therefore
    e1 * ... * es != 0: M(w) - 1 is nonzero in some degree <= s, so the
    loop returns by degree min(ceiling, s), and a ceiling of at least s
    never returns None for w != 1.  The syllables are not counted: the
    loop never reaches the count, so counting would only add work.
    """
    if w.is_identity:
        return None
    for degree in range(1, ceiling + 1):
        part = magnus_expand(w, degree).degree_part(degree)
        if part:
            key = min(part)  # one degree, so lex order is DegLex order
            return degree, key, part[key]
    return None


def lcs_depth(w: FreeWord, ceiling: int | None = None) -> int | None:
    """Largest k with w in the k-th lower-central-series subgroup.

    Equivalently the minimal degree with a nonzero coefficient in
    magnus_expand(w) - 1, read off ``first_difference``, so the search
    stops at that degree and never passes the syllable count of w.
    Searches up to ``ceiling`` (default: the word length) and returns None
    exactly when the depth exceeds it.
    """
    if w.is_identity:
        raise ValueError("lcs_depth is undefined for the identity")
    if ceiling is None:
        ceiling = len(w)
    if ceiling < 1:
        raise ValueError(f"ceiling must be >= 1, got {ceiling}")
    found = first_difference(w, ceiling)
    return None if found is None else found[0]


# ---------------------------------------------------------------------------
# The Magnus ordering.


def magnus_witness(
    a: FreeWord, b: FreeWord
) -> tuple[Verdict, tuple[int, ...] | None, Coeff, Coeff]:
    """Compare and also report the deciding monomial and both coefficients."""
    if a.rank != b.rank:
        raise ValueError(f"rank mismatch: {a.rank} vs {b.rank}")
    if a.letters == b.letters:  # free reduction is the exact equality test
        return Verdict.EQUAL, None, 0, 0
    # The expansions first differ in degree depth(a^-1 b), which is at most
    # the syllable count of a^-1 b, hence at most |a| + |b|, by the lemma in
    # first_difference.
    ceiling = len(a) + len(b)
    for trunc in range(1, ceiling + 1):
        verdict, key, ca, cb = series_compare_witness(
            magnus_expand(a, trunc), magnus_expand(b, trunc)
        )
        if verdict is not Verdict.EQUAL:
            return verdict, key, ca, cb
    raise AssertionError(
        f"expansions of {format_word(a)!r} and {format_word(b)!r} agree through "
        f"degree {ceiling}, past the syllable bound of first_difference"
    )


def magnus_compare(a: FreeWord, b: FreeWord) -> Verdict:
    """Bi-invariant total order on F_n via Magnus expansions.

    Distinct words are separated by free reduction first; the ordering
    verdict comes from the first DegLex monomial where the expansions
    differ, escalating the truncation N = 1, 2, ... as needed.  The
    escalation stops by the syllable count of a^-1 b, at most |a| + |b|,
    the proven bound of ``first_difference``.
    """
    verdict, _, _, _ = magnus_witness(a, b)
    return verdict


# ---------------------------------------------------------------------------
# Word grammar: "x1 x2^-1" tokens, or compact alias letters a..z / A..Z.


_TOKEN_RE = re.compile(r"\S+")
_XFORM_RE = re.compile(r"^x(\d+)(?:\^(-?\d+))?$")


def parse_word(text: str, rank: int) -> FreeWord:
    """Parse word text into a freely reduced word of the given rank.

    Tokens are whitespace separated: ``x2``, ``x2^-1``, ``x2^3``; a token
    of plain letters is the compact alias (a, b, c = x1, x2, x3 and
    A, B, C their inverses).  ``1`` denotes the identity.  Raises
    WordSyntaxError with the offending column on malformed input.
    """
    letters: list[int] = []
    for match in _TOKEN_RE.finditer(text):
        token = match.group(0)
        column = match.start() + 1
        if token == "1":
            continue
        m = _XFORM_RE.match(token)
        if m:
            index = int(m.group(1))
            power = int(m.group(2)) if m.group(2) is not None else 1
            if not 1 <= index <= rank:
                raise WordSyntaxError(
                    f"generator x{index} out of range for rank {rank}", column
                )
            sign = 1 if power >= 0 else -1
            letters.extend([sign * index] * abs(power))
            continue
        if token.isalpha():
            for offset, char in enumerate(token):
                index = ord(char.lower()) - ord("a") + 1
                if not 1 <= index <= rank:
                    raise WordSyntaxError(
                        f"alias {char!r} out of range for rank {rank}",
                        column + offset,
                    )
                letters.append(index if char.islower() else -index)
            continue
        raise WordSyntaxError(f"unrecognized token {token!r}", column)
    return FreeWord.from_letters(rank, letters)


def format_word(w: FreeWord) -> str:
    """Render a word in the x-token grammar; the identity renders as '1'."""
    if w.is_identity:
        return "1"
    parts = []
    for letter in w.letters:
        if letter > 0:
            parts.append(f"x{letter}")
        else:
            parts.append(f"x{-letter}^-1")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Sampling.


def random_reduced_word(rng: random.Random, rank: int, length: int) -> FreeWord:
    """Draw ``length`` uniform letters and reduce as they arrive.

    Cancellations mean the result can be shorter than requested; the
    distribution is exactly "uniform letters with immediate reduction",
    which keeps property-suite failures reproducible from the seed.
    """
    stack: list[int] = []
    for _ in range(length):
        letter = rng.choice([-1, 1]) * rng.randint(1, rank)
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return FreeWord(rank, tuple(stack))
