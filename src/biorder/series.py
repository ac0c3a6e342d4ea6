"""Truncated non-commutative power series over the rationals.

Series live in the free associative algebra on generators X_1..X_n,
truncated at a fixed total degree N.  Coefficients are exact (Python ints
or Fractions), so every ordering verdict derived from them is
unconditional rather than a floating-point judgement.

Monomials are compared in DegLex order: lower total degree first, and
within a degree the monomial whose index sequence is lexicographically
bigger is the bigger monomial (so X1X2 < X2X1 and X1 < X2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

Coeff = int | Fraction

_COEFF_TYPES = (int, Fraction)


class Verdict(enum.Enum):
    """Three-valued outcome of an ordering comparison."""

    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"

    def flipped(self) -> Verdict:
        """The verdict with the roles of the two arguments swapped."""
        if self is Verdict.LESS:
            return Verdict.GREATER
        if self is Verdict.GREATER:
            return Verdict.LESS
        return self


def deglex_key(indices: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Sort key realizing DegLex on raw index tuples."""
    return (len(indices), indices)


@dataclass(frozen=True)
class Monomial:
    """A word X_{i1}..X_{ik} in the generators; the empty word is the unit."""

    rank: int  # number of generators n >= 1
    indices: tuple[int, ...]  # each in 1..rank; () is the constant monomial

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        for i in self.indices:
            if not 1 <= i <= self.rank:
                raise ValueError(f"index {i} out of range 1..{self.rank}")

    @property
    def degree(self) -> int:
        return len(self.indices)

    def __str__(self) -> str:
        if not self.indices:
            return "1"
        return "".join(f"X{i}" for i in self.indices)


def _validate_coeff(c: object) -> Coeff:
    if not isinstance(c, _COEFF_TYPES):
        raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")
    return c


@dataclass(frozen=True)
class TruncSeries:
    """Sparse truncated series: index tuples mapped to nonzero coefficients.

    The truncation order is part of the value; all arithmetic stays inside
    degree <= trunc and mixing different ranks or truncations is an error.
    Instances are treated as immutable: never mutate ``terms`` in place.
    """

    rank: int  # generators X_1..X_rank
    trunc: int  # truncation order N >= 0
    terms: dict[tuple[int, ...], Coeff]  # canonical: no zeros, degree <= N

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if self.trunc < 0:
            raise ValueError(f"truncation must be >= 0, got {self.trunc}")
        for key, coeff in self.terms.items():
            if len(key) > self.trunc:
                raise ValueError(f"monomial {key} exceeds truncation {self.trunc}")
            if any(not 1 <= i <= self.rank for i in key):
                raise ValueError(f"monomial {key} out of range for rank {self.rank}")
            if coeff == 0:
                raise ValueError(f"stored zero coefficient at {key}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, rank: int, trunc: int) -> TruncSeries:
        return cls(rank, trunc, {})

    @classmethod
    def unit(cls, rank: int, trunc: int) -> TruncSeries:
        return cls(rank, trunc, {(): 1})

    @classmethod
    def generator(cls, rank: int, trunc: int, i: int) -> TruncSeries:
        """The series X_i (requires trunc >= 1)."""
        if not 1 <= i <= rank:
            raise ValueError(f"generator index {i} out of range 1..{rank}")
        if trunc < 1:
            raise ValueError("trunc must be >= 1 to hold a generator")
        return cls(rank, trunc, {(i,): 1})

    @classmethod
    def from_terms(
        cls,
        rank: int,
        trunc: int,
        terms: Iterable[tuple[tuple[int, ...], Coeff]] | dict[tuple[int, ...], Coeff],
    ) -> TruncSeries:
        """Build a series, dropping zero coefficients and degrees > trunc."""
        items = terms.items() if isinstance(terms, dict) else terms
        out: dict[tuple[int, ...], Coeff] = {}
        for key, coeff in items:
            key = tuple(key)
            _validate_coeff(coeff)
            if len(key) > trunc:
                continue
            acc = out.get(key, 0) + coeff
            if acc:
                out[key] = acc
            elif key in out:
                del out[key]
        return cls(rank, trunc, out)

    # -- inspection --------------------------------------------------------

    def coefficient(self, indices: tuple[int, ...] | Monomial) -> Coeff:
        if isinstance(indices, Monomial):
            indices = indices.indices
        return self.terms.get(tuple(indices), 0)

    def degree_part(self, d: int) -> dict[tuple[int, ...], Coeff]:
        """The degree-d slice as a plain dict (may be empty)."""
        return {k: v for k, v in self.terms.items() if len(k) == d}

    def lowest_degree(self) -> int | None:
        """Smallest degree >= 1 carrying a nonzero term, or None."""
        degs = [len(k) for k in self.terms if k]
        return min(degs) if degs else None

    def _check_compatible(self, other: TruncSeries) -> None:
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")
        if self.trunc != other.trunc:
            raise ValueError(f"truncation mismatch: {self.trunc} vs {other.trunc}")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: TruncSeries) -> TruncSeries:
        self._check_compatible(other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            acc = out.get(key, 0) + coeff
            if acc:
                out[key] = acc
            elif key in out:
                del out[key]
        return TruncSeries(self.rank, self.trunc, out)

    def __neg__(self) -> TruncSeries:
        return TruncSeries(self.rank, self.trunc, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other: TruncSeries) -> TruncSeries:
        return self + (-other)

    def scale(self, c: Coeff) -> TruncSeries:
        _validate_coeff(c)
        if c == 0:
            return TruncSeries.zero(self.rank, self.trunc)
        return TruncSeries(self.rank, self.trunc, {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other: TruncSeries | Coeff) -> TruncSeries:
        if isinstance(other, _COEFF_TYPES):
            return self.scale(other)
        self._check_compatible(other)
        limit = self.trunc
        out: dict[tuple[int, ...], Coeff] = {}
        for ka, va in self.terms.items():
            da = len(ka)
            for kb, vb in other.terms.items():
                if da + len(kb) > limit:
                    continue
                key = ka + kb
                acc = out.get(key, 0) + va * vb
                if acc:
                    out[key] = acc
                elif key in out:
                    del out[key]
        return TruncSeries(self.rank, self.trunc, out)

    def __rmul__(self, other: Coeff) -> TruncSeries:
        if isinstance(other, _COEFF_TYPES):
            return self.scale(other)
        return NotImplemented

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for key in sorted(self.terms, key=deglex_key):
            coeff = self.terms[key]
            mono = str(Monomial(self.rank, key))
            if key == ():
                body = str(coeff)
            elif coeff == 1:
                body = mono
            elif coeff == -1:
                body = f"-{mono}"
            else:
                body = f"{coeff} {mono}"
            if parts and not body.startswith("-"):
                parts.append(f"+ {body}")
            elif parts:
                parts.append(f"- {body[1:]}")
            else:
                parts.append(body)
        return " ".join(parts)


def series_compare_witness(
    a: TruncSeries, b: TruncSeries
) -> tuple[Verdict, tuple[int, ...] | None, Coeff, Coeff]:
    """Scan monomials in DegLex order; report the first differing one.

    Returns (verdict, monomial, coeff_a, coeff_b); the monomial is None
    when every coefficient up to the shared truncation agrees.
    """
    a._check_compatible(b)
    for key in sorted(set(a.terms) | set(b.terms), key=deglex_key):
        ca = a.terms.get(key, 0)
        cb = b.terms.get(key, 0)
        if ca != cb:
            verdict = Verdict.LESS if ca < cb else Verdict.GREATER
            return verdict, key, ca, cb
    return Verdict.EQUAL, None, 0, 0


# -- serialization ---------------------------------------------------------


def to_json_obj(s: TruncSeries) -> dict:
    """JSON-ready form: DegLex-sorted [indices, numerator, denominator] rows."""
    rows = []
    for key in sorted(s.terms, key=deglex_key):
        coeff = s.terms[key]
        rows.append([list(key), coeff.numerator, coeff.denominator])
    return {"rank": s.rank, "trunc": s.trunc, "terms": rows}
