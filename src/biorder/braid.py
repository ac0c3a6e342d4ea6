"""Pure braid words: combing, ordering, invariants, and the Artin action.

A pure braid on n strands is a word in the generators A_ij (1 <= i < j <= n),
each a full twist of strands i and j.  Combing writes it as one free word
per level of P_n -> P_{n-1} -> ..., the kernel at level n being free on
y_i = A_in; the factors are a normal form, so equality and triviality of
braids are equality and triviality of factors.  Combing is a collection
pass, one per level: a fiber letter is appended to the fiber word F with
free reduction, and a base letter l (j < n) moves left through F as
F -> l^-1 F l, substituting y_k -> (fiber word of l^-1 A_kn l), and is
passed down to the next level.  The substitution table is read off the
Artin action of the three-letter braids themselves.  Combing thus costs
in proportion to the size of the factors, not to that of Artin images,
which grow exponentially in braid length.

The Artin action on F_n = <x_1..x_n> is faithful and stays the independent
oracle: the table is read off it, ``conjugation_relator`` checks each
relator through it, and the tests check combing against it.  Conventions
(all exercised by a calibration self-test rather than trusted):

- sigma_k sends x_k -> x_k x_{k+1} x_k^-1 and x_{k+1} -> x_k;
- A_ij = sigma_{j-1} .. sigma_{i+1} sigma_i^2 sigma_{i+1}^-1 .. sigma_{j-1}^-1;
- a braid word acts by applying its letters' substitutions left to right;
- for w in the kernel of forgetting strand n, w(x_n) = W x_n W^-1, and the
  fiber word is W with every x_n letter deleted, renamed x_i -> y_i.  The
  deletion step matters: W itself can contain x_n letters (already for
  A_23 A_13 in P_3), but the deletion projection is exactly the calibrated
  correspondence under which A_in maps to y_i and products map to products.
"""

from __future__ import annotations

import functools
import random
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .freegroup import FreeWord, magnus_expand, magnus_witness, reduce_letters
from .series import Coeff, Monomial, Verdict

_Images = tuple[tuple[int, ...], ...]


class BraidSyntaxError(ValueError):
    """Raised on malformed braid text; carries the 1-based column."""

    def __init__(self, message: str, column: int):
        super().__init__(f"col {column}: {message}")
        self.column = column


class FiberExtractionError(RuntimeError):
    """The x_n image was not a conjugate of x_n: non-kernel input or a
    convention bug upstream."""


class CalibrationError(RuntimeError):
    """The startup self-test found a convention mismatch."""


@dataclass(frozen=True)
class PureBraidWord:
    """A word in the pure braid generators A_ij of P_strands."""

    strands: int  # n >= 2
    letters: tuple[tuple[int, int, int], ...]  # (i, j, sign) with i < j <= n

    def __post_init__(self) -> None:
        if self.strands < 2:
            raise ValueError(f"strands must be >= 2, got {self.strands}")
        for i, j, s in self.letters:
            if not 1 <= i < j <= self.strands:
                raise ValueError(
                    f"bad generator {_label(i, j)} for {self.strands} strands"
                )
            if s not in (1, -1):
                raise ValueError(f"bad sign {s} on {_label(i, j)}")

    @classmethod
    def identity(cls, strands: int) -> PureBraidWord:
        return cls(strands, ())

    @classmethod
    def generator(cls, strands: int, i: int, j: int, sign: int = 1) -> PureBraidWord:
        return cls(strands, ((i, j, sign),))

    def __mul__(self, other: PureBraidWord) -> PureBraidWord:
        if self.strands != other.strands:
            raise ValueError(f"strand mismatch: {self.strands} vs {other.strands}")
        return PureBraidWord(self.strands, self.letters + other.letters)

    def inverse(self) -> PureBraidWord:
        return PureBraidWord(
            self.strands, tuple((i, j, -s) for (i, j, s) in reversed(self.letters))
        )

    def __pow__(self, n: int) -> PureBraidWord:
        base = self if n >= 0 else self.inverse()
        return PureBraidWord(self.strands, base.letters * abs(n))

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return format_braid(self)


# ---------------------------------------------------------------------------
# Artin action.


def _substitute(images: _Images, word: Iterable[int]) -> tuple[int, ...]:
    out: list[int] = []
    for letter in word:
        img = images[abs(letter) - 1]
        if letter < 0:
            img = tuple(-l for l in reversed(img))
        for l in img:
            if out and out[-1] == -l:
                out.pop()
            else:
                out.append(l)
    return tuple(out)


def _sigma_images(n: int, k: int, sign: int) -> _Images:
    images = [(g,) for g in range(1, n + 1)]
    if sign > 0:
        images[k - 1] = (k, k + 1, -k)
        images[k] = (k,)
    else:
        images[k - 1] = (k + 1,)
        images[k] = (-(k + 1), k, k + 1)
    return tuple(images)


def _sigma_word(i: int, j: int, sign: int) -> tuple[tuple[int, int], ...]:
    word = [(k, 1) for k in range(j - 1, i, -1)]
    word += [(i, 1), (i, 1)]
    word += [(k, -1) for k in range(i + 1, j)]
    if sign < 0:
        word = [(k, -s) for (k, s) in reversed(word)]
    return tuple(word)


def _identity_images(strands: int) -> _Images:
    return tuple((g,) for g in range(1, strands + 1))


@functools.lru_cache(maxsize=None)
def _gen_images(n: int, i: int, j: int, sign: int) -> _Images:
    images = _identity_images(n)
    for k, s in _sigma_word(i, j, sign):
        sigma = _sigma_images(n, k, s)
        images = tuple(_substitute(sigma, w) for w in images)
    return images


@functools.lru_cache(maxsize=1 << 14)
def _artin_images(strands: int, letters: tuple[tuple[int, int, int], ...]) -> _Images:
    images = _identity_images(strands)
    for i, j, s in letters:
        gen = _gen_images(strands, i, j, s)
        images = tuple(_substitute(gen, w) for w in images)
    return images


def artin_automorphism(w: PureBraidWord) -> tuple[FreeWord, ...]:
    """Images of x_1..x_n under the braid's action on F_n.

    This representation is faithful and independent of combing, so it is
    the oracle that combing, equality and the relators are checked against.
    Image lengths grow exponentially in braid length.
    """
    images = _artin_images(w.strands, w.letters)
    return tuple(FreeWord(w.strands, img) for img in images)


def braid_equal(a: PureBraidWord, b: PureBraidWord) -> bool:
    """Exact equality in P_n: combing is a normal form, so two words are
    the same braid exactly when their combed factors agree."""
    if a.strands != b.strands:
        raise ValueError(f"strand mismatch: {a.strands} vs {b.strands}")
    return comb(a).factors == comb(b).factors


def is_trivial(w: PureBraidWord) -> bool:
    """Whether the braid is the identity: every combed factor is empty."""
    return not any(f.letters for f in comb(w).factors)


# ---------------------------------------------------------------------------
# The fibration P_n -> P_{n-1}: fiber coordinates.


def _extract_fiber_word(w: PureBraidWord) -> FreeWord:
    n = w.strands
    image = _artin_images(n, w.letters)[n - 1]
    if image == (n,):
        return FreeWord.identity(n - 1)
    if len(image) % 2 == 0 or image[len(image) // 2] != n:
        raise FiberExtractionError(
            f"x{n} image is not visibly a conjugate of x{n}: {image}"
        )
    half = len(image) // 2
    prefix = image[:half]
    if tuple(-l for l in reversed(image[half + 1 :])) != prefix:
        raise FiberExtractionError(
            f"x{n} image is not of the form W x{n} W^-1: {image}"
        )
    dropped = reduce_letters(l for l in prefix if abs(l) != n)
    return FreeWord(n - 1, dropped)


@functools.lru_cache(maxsize=1)
def _run_calibration() -> bool:
    """Assert fiber_coordinates(A_in^(+-1)) = y_i^(+-1) for all i, n <= 5."""
    for n in range(2, 6):
        for i in range(1, n):
            for sign in (1, -1):
                w = PureBraidWord.generator(n, i, n, sign)
                got = _extract_fiber_word(w)
                if got.letters != (sign * i,):
                    raise CalibrationError(
                        f"fiber word of A{i}{n}^{sign} came out as {got}, "
                        f"expected y{i}^{sign}: conventions are inconsistent"
                    )
    return True


def fiber_coordinates(w: PureBraidWord) -> FreeWord:
    """Coordinates of a kernel element in the free fiber of P_n -> P_{n-1}.

    The fiber is free on y_1..y_{n-1} with y_i corresponding to A_in, and
    the coordinates are the top combed factor.  Requires w to lie in the
    kernel of forgetting strand n, that is every lower combed factor to be
    empty; raises FiberExtractionError otherwise.
    """
    factors = comb(w).factors
    if any(f.letters for f in factors[:-1]):
        raise FiberExtractionError(
            f"braid {format_braid(w)!r} is not in the kernel of forgetting "
            f"strand {w.strands}"
        )
    return factors[-1]


@dataclass(frozen=True)
class CombedBraid:
    """Artin combing: one free-group factor per fibration level.

    factors[k-1] lives in the rank-k fiber of P_{k+1} -> P_k; the braid is
    recovered (exactly, not just up to order) as the product of the lifted
    factors with factors[0] leftmost.
    """

    strands: int
    factors: tuple[FreeWord, ...]

    def __post_init__(self) -> None:
        if len(self.factors) != self.strands - 1:
            raise ValueError(
                f"expected {self.strands - 1} factors, got {len(self.factors)}"
            )
        for k, factor in enumerate(self.factors, start=1):
            if factor.rank != k:
                raise ValueError(f"factor {k} has rank {factor.rank}, expected {k}")

    def to_word(self) -> PureBraidWord:
        """Recombine: map each y_i at level k to A_{i,k+1} and concatenate."""
        letters: list[tuple[int, int, int]] = []
        for k, factor in enumerate(self.factors, start=1):
            for l in factor.letters:
                letters.append((abs(l), k + 1, 1 if l > 0 else -1))
        return PureBraidWord(self.strands, tuple(letters))


@functools.lru_cache(maxsize=None)
def _conjugation_table(strands: int, letter: tuple[int, int, int]) -> _Images:
    """The row of a base letter l = A_ij^(+-1), j < n = strands: the fiber
    words of l^-1 A_kn l for k = 1..n-1, read off the Artin action of those
    three-letter braids.  Rows are built on first use."""
    i, j, s = letter
    return tuple(
        _extract_fiber_word(
            PureBraidWord(strands, ((i, j, -s), (k, strands, 1), (i, j, s)))
        ).letters
        for k in range(1, strands)
    )


@functools.lru_cache(maxsize=1 << 13)
def _comb_cached(strands: int, letters: tuple[tuple[int, int, int], ...]) -> CombedBraid:
    # Collect w = B F with B in the base and F in the fiber: a fiber letter
    # extends F, a base letter l moves left through F as F -> l^-1 F l.
    fiber: list[int] = []
    base: list[tuple[int, int, int]] = []
    for letter in letters:
        i, j, s = letter
        if j < strands:
            fiber = list(_substitute(_conjugation_table(strands, letter), fiber))
            base.append(letter)
        elif fiber and fiber[-1] == -s * i:
            fiber.pop()
        else:
            fiber.append(s * i)
    top = FreeWord(strands - 1, tuple(fiber))
    if strands == 2:
        return CombedBraid(2, (top,))
    inner = _comb_cached(strands - 1, tuple(base))
    return CombedBraid(strands, inner.factors + (top,))


def comb(w: PureBraidWord) -> CombedBraid:
    """Full Artin combing of a pure braid word, by one collection pass per
    level over the calibrated conjugation table (see the module notes)."""
    _run_calibration()
    return _comb_cached(w.strands, w.letters)


# ---------------------------------------------------------------------------
# The bi-invariant ordering and finite-type invariants.


def braid_witness(
    a: PureBraidWord, b: PureBraidWord
) -> tuple[Verdict, int | None, tuple[int, ...] | None, Coeff, Coeff]:
    """Bi-invariant total order on P_n: base level first, then the fiber.

    Combings are compared factor by factor (level 1 outward); the first
    level whose free-group factors differ decides via the Magnus ordering
    of that fiber.  Equality means equality in the group.  Returns
    (verdict, level, monomial, both coefficients); the level and monomial
    are None for equal braids.
    """
    if a.strands != b.strands:
        raise ValueError(f"strand mismatch: {a.strands} vs {b.strands}")
    ca, cb = comb(a), comb(b)
    for level, (fa, fb) in enumerate(zip(ca.factors, cb.factors), start=1):
        if fa.letters != fb.letters:
            verdict, key, va, vb = magnus_witness(fa, fb)
            return verdict, level, key, va, vb
    return Verdict.EQUAL, None, None, 0, 0


def braid_compare(a: PureBraidWord, b: PureBraidWord) -> Verdict:
    """The verdict of ``braid_witness``."""
    return braid_witness(a, b)[0]


def ft_invariant(
    factor: int, monomial: Monomial | tuple[int, ...], braid: PureBraidWord
) -> Coeff:
    """Coefficient of a monomial in the expansion of one combing factor.

    ``factor`` selects the level-k fiber word (1 <= k <= strands-1) and the
    monomial is over that fiber's rank k.  These are the coordinates of
    the braid in the combing family of finite-type invariants; the degree
    of the monomial is the invariant's degree.
    """
    if not 1 <= factor <= braid.strands - 1:
        raise ValueError(
            f"factor must be in 1..{braid.strands - 1}, got {factor}"
        )
    indices = monomial.indices if isinstance(monomial, Monomial) else tuple(monomial)
    if isinstance(monomial, Monomial) and monomial.rank != factor:
        raise ValueError(f"monomial rank {monomial.rank} != factor rank {factor}")
    if any(not 1 <= i <= factor for i in indices):
        raise ValueError(f"monomial {indices} out of range for rank {factor}")
    fiber_word = comb(braid).factors[factor - 1]
    return magnus_expand(fiber_word, len(indices)).coefficient(indices)


# ---------------------------------------------------------------------------
# Singular braids and alternating sums.


@dataclass(frozen=True)
class SingularBraid:
    """A braid word with some positive letters marked as double points."""

    word: PureBraidWord
    marked: tuple[int, ...]  # ascending positions into word.letters

    def __post_init__(self) -> None:
        seen = set()
        for pos in self.marked:
            if not 0 <= pos < len(self.word.letters):
                raise ValueError(f"marked position {pos} out of range")
            if pos in seen:
                raise ValueError(f"position {pos} marked twice")
            seen.add(pos)
            if self.word.letters[pos][2] != 1:
                raise ValueError(
                    f"marked position {pos} must carry a positive crossing"
                )
        if tuple(sorted(self.marked)) != self.marked:
            raise ValueError("marked positions must be ascending")

    def resolutions(self) -> Iterator[tuple[int, PureBraidWord]]:
        """All 2^m resolutions with their signs (-1)^{negative count}."""
        m = len(self.marked)
        letters = list(self.word.letters)
        for mask in range(1 << m):
            resolved = list(letters)
            negatives = 0
            for t, pos in enumerate(self.marked):
                i, j, _ = letters[pos]
                if mask >> t & 1:
                    resolved[pos] = (i, j, -1)
                    negatives += 1
            yield (-1) ** negatives, PureBraidWord(self.word.strands, tuple(resolved))


def singular_alternating_sum(
    s: SingularBraid, value: Callable[[PureBraidWord], Coeff]
) -> Coeff:
    """Alternating sum of an invariant over all resolutions of the marks."""
    total: Coeff = 0
    for sign, resolved in s.resolutions():
        total += sign * value(resolved)
    return total


# ---------------------------------------------------------------------------
# Relators, sampling, grammar.


def all_generators(strands: int) -> list[tuple[int, int]]:
    return [(i, j) for j in range(2, strands + 1) for i in range(1, j)]


def relator_count(strands: int) -> int:
    """2 m (m - 1) for the m = n(n-1)/2 generators: one relator per ordered
    pair of distinct generators and per sign of the conjugating one."""
    m = strands * (strands - 1) // 2
    return 2 * m * (m - 1)


def conjugation_relator(strands: int, index: int) -> PureBraidWord:
    """Relator ``index`` of ``conjugation_relators(strands)``, built alone.

    The relator is g^e h g^-e * (combing normal word of g^e h g^-e)^-1,
    trivial in the group by construction and verified trivial through the
    Artin action, not through combing, so no transcription from a published
    presentation can drift out of sync with the conventions used here, and
    a wrong entry of the conjugation table fails here.
    """
    if not 0 <= index < relator_count(strands):
        raise ValueError(f"relator index {index} out of range for {strands} strands")
    gens = all_generators(strands)
    pair, sign = divmod(index, 2)
    gi, hj = divmod(pair, len(gens) - 1)
    g = PureBraidWord.generator(strands, *gens[gi], -1 if sign else 1)
    h = PureBraidWord.generator(strands, *gens[hj + (hj >= gi)])
    conjugate = g * h * g.inverse()
    relator = conjugate * comb(conjugate).to_word().inverse()
    if _artin_images(strands, relator.letters) != _identity_images(strands):
        raise CalibrationError(
            f"generated relator is not trivial: {format_braid(relator)}"
        )
    return relator


@functools.lru_cache(maxsize=None)
def conjugation_relators(strands: int) -> tuple[PureBraidWord, ...]:
    """Every relator of ``conjugation_relator``, ordered by the generator
    g, then h != g, then the sign e = +1, -1."""
    return tuple(
        conjugation_relator(strands, k) for k in range(relator_count(strands))
    )


def insert_relator(
    w: PureBraidWord, relator: PureBraidWord, position: int
) -> PureBraidWord:
    """Splice a relator into a braid word at a letter boundary."""
    if not 0 <= position <= len(w.letters):
        raise ValueError(f"position {position} out of range")
    letters = w.letters[:position] + relator.letters + w.letters[position:]
    return PureBraidWord(w.strands, letters)


def random_pure_braid(rng: random.Random, strands: int, length: int) -> PureBraidWord:
    """Uniform letters over every generator and sign."""
    gens = all_generators(strands)
    letters = tuple(
        (*rng.choice(gens), rng.choice([1, -1])) for _ in range(length)
    )
    return PureBraidWord(strands, letters)


_BRAID_TOKEN_RE = re.compile(r"\S+")
# A12 for single-digit indices, A1,10 in general; * marks, ^e is a power.
_BRAID_FORM_RE = re.compile(r"^(\*)?A(?:(\d)(\d)|(\d+),(\d+))(?:\^(-?\d+))?$")


def _label(i: int, j: int) -> str:
    """Generator text: A12, or A1,10 once an index has two digits."""
    return f"A{i}{j}" if max(i, j) < 10 else f"A{i},{j}"


def _parse_braid_tokens(
    text: str, strands: int | None
) -> tuple[int, list[tuple[int, int, int]], list[int]]:
    raw: list[tuple[int, int, int, bool]] = []
    max_j = 2
    for match in _BRAID_TOKEN_RE.finditer(text):
        token = match.group(0)
        column = match.start() + 1
        if token == "1":
            continue
        m = _BRAID_FORM_RE.match(token)
        if m is None:
            raise BraidSyntaxError(f"unrecognized token {token!r}", column)
        marked = m.group(1) is not None
        i, j = map(int, m.group(2, 3) if m.group(2) is not None else m.group(4, 5))
        power = int(m.group(6)) if m.group(6) is not None else 1
        if not 1 <= i < j:
            raise BraidSyntaxError(f"need i < j in {_label(i, j)}", column)
        if strands is not None and j > strands:
            raise BraidSyntaxError(
                f"generator {_label(i, j)} needs more than {strands} strands", column
            )
        if power == 0:
            continue
        if marked and power != 1:
            raise BraidSyntaxError(
                "a marked crossing must be a single positive letter", column
            )
        max_j = max(max_j, j)
        sign = 1 if power > 0 else -1
        for _ in range(abs(power)):
            raw.append((i, j, sign, marked))
    n = strands if strands is not None else max_j
    letters = [(i, j, s) for (i, j, s, _) in raw]
    marks = [pos for pos, (_, _, _, m) in enumerate(raw) if m]
    return n, letters, marks


def parse_braid(text: str, strands: int | None = None) -> PureBraidWord:
    """Parse ``A12 A13^-1`` style text (no singular marks allowed here)."""
    n, letters, marks = _parse_braid_tokens(text, strands)
    if marks:
        raise BraidSyntaxError("singular marks are not allowed in a plain braid", 1)
    return PureBraidWord(n, tuple(letters))


def parse_singular_braid(text: str, strands: int | None = None) -> SingularBraid:
    """Parse braid text where ``*A12`` marks a double point."""
    n, letters, marks = _parse_braid_tokens(text, strands)
    return SingularBraid(PureBraidWord(n, tuple(letters)), tuple(marks))


def format_braid(w: PureBraidWord) -> str:
    if not w.letters:
        return "1"
    return " ".join(
        _label(i, j) if s > 0 else f"{_label(i, j)}^-1" for (i, j, s) in w.letters
    )
