"""Numerical holonomy of loops via iterated integrals.

A free-group word is realized as a concrete loop: one unit-time segment per
letter, and for each generator index i a 1-form whose pullback to an x_i
segment is a fixed smooth bump of unit mass (negative letters traverse the
bump with opposite sign).  Iterated integrals of these forms, indexed by
monomials, assemble into a truncated series-valued holonomy that is
multiplicative under loop concatenation and sends the x_i loop to exp(X_i).

The values are floating point, and two proofs stand behind them.

Node rule.  The bump 30u^2(1-u)^2 has degree 4, so step j of the cascade of
nested antiderivatives integrates a polynomial of degree 5j - 1 on each
segment.  On N Gauss-Legendre nodes the collocation antiderivative is exact
below degree N and the weights through degree 2N - 1, so N(t) =
max(5(t - 1), ceil(5t/2)) makes a degree-t walk exact in exact arithmetic.
With t = max(trunc, MAX_HOLONOMY_TRUNC) that is 15 nodes for every trunc up
to the cap, so values there do not depend on trunc, and 20 and 25 nodes at
trunc 5 and 6.

Error bar (N. J. Higham, *Accuracy and Stability of Numerical Algorithms*,
ch. 3).  A degree-k coefficient over S segments is a sum over paths of
products of k rule entries, each path meeting at most N + S + 8 roundings
per level, and that sum taken with absolute values is at most
rho^k C(S+k-1, k), where rho (about 1) is the largest absolute mass the rule
gives one segment.  The float rule also misses the exact one, by its
residual r on the shifted Legendre polynomials.  A degree-(5j - 1)
integrand f has Legendre coefficients of absolute sum at most 5j ||f||_2,
and ||bump||_2 = sqrt(10/7), so step j adds at most sqrt(10/7) 5j r times
the bound on the values it integrates.  The bar is
(gamma_{k(N+S+8)} + sqrt(10/7) r 5k(k+1)/2) rho^k C(S+k-1, k): it depends
on S, k and N, never on the values.

The 1/2 rule.  With phi the algebra map X_i -> exp(X_i) - 1, the x_i loop
has holonomy exp(X_i) = phi(1 + X_i), so H(w) = phi(M(w)) for the Magnus
expansion M.  phi adds to a degree-d part only terms of degree above d, so
H(b) - H(a) has the lowest nonzero part of M(b) - M(a): in DegLex order its
coefficients are 0 up to the first nonzero one, an integer.
``holonomy_compare`` therefore decides at the first key whose difference
exceeds 1/2, which is exact while the two error bars there sum to less
than 1/2.  It returns None where they reach 1/2, and when trunc is below
the deciding degree.

The integral of X_{i1}..X_{ik} is one step of the cascade past that of its
prefix, so the series is a walk over the trie of index tuples, one degree
at a time: Σ r^k steps through degree k instead of Σ k·r^k, every value by
the same floating-point operations as a cascade of its own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .freegroup import FreeWord
from .series import Verdict

MAX_HOLONOMY_TRUNC = 4  # the word count per degree grows as rank**degree
_BUMP_L2 = math.sqrt(10.0 / 7.0)  # the L2 norm of the bump on [0, 1]


def bump_density(u: float | np.ndarray) -> float | np.ndarray:
    """The segment profile 30 u^2 (1-u)^2: smooth at the ends, unit mass."""
    return 30.0 * u * u * (1.0 - u) * (1.0 - u)


@dataclass(frozen=True)
class LoopModel:
    """A loop built from one segment per free-group letter.

    Segments are signed generator indices, exactly like FreeWord letters,
    but the sequence is *not* freely reduced: a loop that walks x1 and then
    back along x1^-1 is a genuine (nullhomotopic) loop, and its holonomy
    cancelling to 1 is a theorem about the integrals, not bookkeeping.
    """

    rank: int
    segments: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        for l in self.segments:
            if l == 0 or abs(l) > self.rank:
                raise ValueError(f"segment letter {l} out of range for rank {self.rank}")

    @classmethod
    def from_word(cls, w: FreeWord) -> LoopModel:
        return cls(w.rank, w.letters)

    def __len__(self) -> int:
        return len(self.segments)


def _gamma(roundings: int, unit: float = float(np.finfo(np.float64).eps) / 2) -> float:
    """Higham's gamma_n: the relative error bound of n roundings."""
    return roundings * unit / (1.0 - roundings * unit)


def _node_count(trunc: int) -> int:
    """The node rule: exact through degree max(trunc, MAX_HOLONOMY_TRUNC)."""
    t = max(trunc, MAX_HOLONOMY_TRUNC)
    return max(5 * (t - 1), -(-5 * t // 2))


def _legendre_tables(t: np.ndarray, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """P_q at ``t`` for q <= 2·nodes, and for q < nodes the antiderivative
    from x = 0 of P_q(2x - 1) at x = (t + 1)/2, both in the dtype of ``t``."""
    vander = np.polynomial.legendre.legvander(t, 2 * nodes)
    anti = np.empty((len(t), nodes), dtype=t.dtype)
    anti[:, 0] = (t + 1) / 2
    for q in range(1, nodes):
        anti[:, q] = (vander[:, q + 1] - vander[:, q - 1]) / (2 * (2 * q + 1))
    return vander, anti


@functools.lru_cache(maxsize=None)
def _collocation(nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float]:
    """Gauss-Legendre weights on [0,1], the antiderivative matrix (exact on
    values of polynomials of degree < nodes), the bump at the nodes, and the
    rule's residual and growth.  The residual is the float rule's largest
    miss on a shifted Legendre polynomial, measured in extended precision at
    the nodes used, plus a generous bound on the rounding of that measurement;
    the growth is the largest absolute mass the rule gives one segment, >= 1.
    """
    t, wt = np.polynomial.legendre.leggauss(nodes)
    x = (t + 1.0) / 2.0
    weights = wt / 2.0
    vander, anti = _legendre_tables(t, nodes)
    matrix = np.linalg.solve(vander[:, :nodes].T, anti.T).T
    bump = np.asarray(bump_density(x))
    wide = np.longdouble
    vander_w, anti_w = _legendre_tables(2 * x.astype(wide) - 1, nodes)
    quadrature_miss = weights.astype(wide) @ vander_w[:, : 2 * nodes]
    quadrature_miss[0] -= 1
    measured = max(
        float(np.abs(matrix.astype(wide) @ vander_w[:, :nodes] - anti_w).max()),
        float(np.abs(quadrature_miss).max()),
    )
    size = float(np.abs(matrix).sum(axis=1).max()) + 1.0
    residual = measured + _gamma(10 * nodes, float(np.finfo(wide).eps) / 2) * size
    growth = max(1.0, float((np.abs(matrix) @ bump).max()), float(weights @ bump))
    return weights, matrix, bump, residual, growth


def _error_bound(segments: int, degree: int, nodes: int) -> float:
    """The a-priori bar on every degree-``degree`` coefficient of a loop of
    ``segments`` segments, for ``degree`` >= 1 (module docstring)."""
    *_, residual, growth = _collocation(nodes)
    rounding = _gamma(degree * (nodes + segments + 8))
    rule = _BUMP_L2 * residual * 5 * degree * (degree + 1) / 2
    return (rounding + rule) * growth**degree * math.comb(segments + degree - 1, degree)


def _step(
    segments: tuple[int, ...],
    level: list[np.ndarray | float],
    target: int,
    nodes: int,
    keep_level: bool,
) -> tuple[list[np.ndarray | float], float]:
    """Extend a prefix's per-segment node values by ``target``: one level of
    the nested-antiderivative recursion, with the new integral over the loop.

    A segment of another generator holds its constant as a float, which numpy
    broadcasts to the values an array of it would hold.  ``keep_level=False``
    skips the arrays of a key nothing extends; the integral is the same.
    """
    weights, matrix, bump, _, _ = _collocation(nodes)
    carry = 0.0
    nxt: list[np.ndarray | float] = []
    for letter, prev in zip(segments, level):
        if abs(letter) == target:
            sign = 1.0 if letter > 0 else -1.0
            if keep_level:
                local = sign * bump * prev
                nxt.append(carry + matrix @ local)
            carry = carry + sign * float(weights @ (bump * prev))
        elif keep_level:
            nxt.append(carry)
    return nxt, carry


def _cascade(segments: tuple[int, ...], indices: tuple[int, ...], nodes: int) -> float:
    """One iterated integral at a fixed node count: the steps folded in turn."""
    level: list[np.ndarray | float] = [1.0] * len(segments)
    carry = 0.0
    for depth, target in enumerate(indices, start=1):
        level, carry = _step(segments, level, target, nodes, depth < len(indices))
    return carry


def iterated_integral(loop: LoopModel, indices: tuple[int, ...]) -> tuple[float, float]:
    """Value and error bar of one iterated integral along the loop.

    ``indices`` names the monomial X_{i1}..X_{ik}; the empty tuple gives the
    constant term 1.  The value is one cascade at the node count of the node
    rule for degree k, exact in exact arithmetic, and the bar is the
    a-priori rounding bound for S segments and degree k (module docstring).
    Through MAX_HOLONOMY_TRUNC both are bit for bit what ``holonomy_series``
    gives for the key.
    """
    for i in indices:
        if not 1 <= i <= loop.rank:
            raise ValueError(f"index {i} out of range for rank {loop.rank}")
    if not indices:
        return 1.0, 0.0
    k = len(indices)
    nodes = _node_count(k)
    return _cascade(loop.segments, indices, nodes), _error_bound(len(loop), k, nodes)


def _walk(
    loop: LoopModel, trunc: int
) -> Iterator[dict[tuple[int, ...], tuple[float, float]]]:
    """One dict of (value, error) per degree 1..``trunc``, keys in lex order,
    each computed only when asked for.

    Each degree keeps the cascade state of its keys, so a monomial costs one
    ``_step`` past its prefix; every key of a degree shares one error bar.
    """
    nodes = _node_count(trunc)
    segments = loop.segments
    states: dict[tuple[int, ...], list] = {(): [1.0] * len(segments)}
    for degree in range(1, trunc + 1):
        error = _error_bound(len(segments), degree, nodes)
        coefficients, extended = {}, {}
        for prefix, level in states.items():
            for i in range(1, loop.rank + 1):
                key = prefix + (i,)
                extended[key], value = _step(segments, level, i, nodes, degree < trunc)
                coefficients[key] = (value, error)
        states = extended
        yield coefficients


@dataclass(frozen=True)
class HolonomySeries:
    """A truncated holonomy: float coefficient and error bound per monomial."""

    rank: int
    trunc: int
    values: dict[tuple[int, ...], float]
    errors: dict[tuple[int, ...], float]

    def coefficient(self, indices: tuple[int, ...]) -> float:
        return self.values.get(tuple(indices), 0.0)


def _check_trunc(trunc: int, allow_deep: bool) -> None:
    if trunc < 0:
        raise ValueError(f"trunc must be >= 0, got {trunc}")
    if trunc > MAX_HOLONOMY_TRUNC and not allow_deep:
        raise ValueError(
            f"trunc {trunc} exceeds {MAX_HOLONOMY_TRUNC}; the monomial count "
            f"grows as rank**degree, pass allow_deep=True to accept the cost"
        )


def holonomy_series(
    loop: LoopModel,
    trunc: int = MAX_HOLONOMY_TRUNC,
    *,
    allow_deep: bool = False,
) -> HolonomySeries:
    """All iterated integrals of the loop through the given degree.

    One walk over the monomial trie at the one node count of the node rule
    for max(trunc, MAX_HOLONOMY_TRUNC), with the a-priori error bar of each
    degree (module docstring).  Through MAX_HOLONOMY_TRUNC every value and
    error is bit for bit the one ``iterated_integral`` gives for its key.
    """
    _check_trunc(trunc, allow_deep)
    values: dict[tuple[int, ...], float] = {(): 1.0}
    errors: dict[tuple[int, ...], float] = {(): 0.0}
    for coefficients in _walk(loop, trunc):
        for key, (value, err) in coefficients.items():
            values[key] = value
            errors[key] = err
    return HolonomySeries(loop.rank, trunc, values, errors)


def holonomy_compare(
    a: FreeWord,
    b: FreeWord,
    *,
    trunc: int = MAX_HOLONOMY_TRUNC,
    allow_deep: bool = False,
) -> Verdict | None:
    """Order two words by the first holonomy difference past 1/2.

    Scans H(a) - H(b) in graded lexicographic order and decides at the first
    key where it exceeds 1/2 in absolute value.  By H(w) = phi(M(w)) every
    true difference before that key is 0 and the one at it a nonzero
    integer, so the verdict is the exact Magnus order (module docstring).
    Freely equal words compare EQUAL outright.  Returns None (indeterminate)
    at the first key whose two error bars sum to 1/2 or more, and when no
    difference through ``trunc`` exceeds 1/2.  The two walks advance in
    lockstep and stop at the deciding degree.
    """
    if a.rank != b.rank:
        raise ValueError(f"rank mismatch: {a.rank} vs {b.rank}")
    if a.letters == b.letters:
        return Verdict.EQUAL
    _check_trunc(trunc, allow_deep)
    walk_a = _walk(LoopModel.from_word(a), trunc)
    walk_b = _walk(LoopModel.from_word(b), trunc)
    for coeffs_a, coeffs_b in zip(walk_a, walk_b):
        for key, (value_a, err_a) in coeffs_a.items():
            value_b, err_b = coeffs_b[key]
            if err_a + err_b >= 0.5:
                return None
            diff = value_a - value_b
            if abs(diff) > 0.5:
                return Verdict.LESS if diff < 0 else Verdict.GREATER
    return None
