"""Numerical holonomy of loops via iterated integrals.

A free-group word is realized as a concrete loop: one unit-time segment per
letter, and for each generator index i a 1-form whose pullback to an x_i
segment is a fixed smooth bump of unit mass (negative letters traverse the
bump with opposite sign).  Iterated integrals of these forms, indexed by
monomials, assemble into a truncated series-valued holonomy that is
multiplicative under loop concatenation and sends the x_i loop to exp(X_i).

Everything in here is floating point, but every integrand is piecewise
polynomial, so a modest Gauss-Legendre collocation cascade computes the
integrals to near machine precision.  Each value carries an error estimate
(disagreement of two node counts plus a rounding floor) and the comparison
routine refuses to decide anything within its noise band.

The integral of X_{i1}..X_{ik} is one step of the cascade past that of its
prefix X_{i1}..X_{i(k-1)}, so the series is computed as a walk over the trie
of index tuples, one degree at a time, that keeps each prefix's cascade
state: Σ r^k steps through degree k instead of Σ k·r^k, with every value
produced by the same floating-point operations as a cascade of its own.
``holonomy_compare`` walks both loops in lockstep and stops at the deciding
degree, so coefficients above it are never computed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .freegroup import FreeWord
from .series import Verdict

MAX_HOLONOMY_TRUNC = 4  # the word count per degree grows as rank**degree
DEFAULT_NODE_COUNTS = (26, 34, 46)
DEFAULT_TOL = 1e-9
DEFAULT_MARGIN = 1e-6


class QuadratureError(RuntimeError):
    """The node-count ladder never brought the two-resolution disagreement
    under the requested tolerance."""


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


@functools.lru_cache(maxsize=None)
def _collocation(nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on [0,1], weights, and the antiderivative matrix.

    The matrix maps values of a polynomial at the nodes to values of its
    antiderivative (vanishing at 0) at the same nodes; it is exact for
    polynomial degree < nodes.
    """
    t, wt = np.polynomial.legendre.leggauss(nodes)
    x = (t + 1.0) / 2.0
    weights = wt / 2.0
    vander = np.polynomial.legendre.legvander(t, nodes)  # columns P_0..P_nodes
    v = vander[:, :nodes]
    anti = np.empty_like(v)
    anti[:, 0] = x
    for q in range(1, nodes):
        anti[:, q] = (vander[:, q + 1] - vander[:, q - 1]) / (2.0 * (2 * q + 1))
    matrix = np.linalg.solve(v.T, anti.T).T
    return x, weights, matrix


@functools.lru_cache(maxsize=None)
def _bump_at_nodes(nodes: int) -> np.ndarray:
    x, _, _ = _collocation(nodes)
    return np.asarray(bump_density(x))


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
    _, weights, matrix = _collocation(nodes)
    bump = _bump_at_nodes(nodes)
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


def _ladder(
    value_at: Callable[[int], float],
    segments: tuple[int, ...],
    indices: tuple[int, ...],
    node_counts: tuple[int, ...],
    tol: float,
) -> tuple[float, float]:
    """Climb the node counts until two consecutive values agree within
    ``tol``, asking for each value only once the one below has not sufficed."""
    floor = 1e-15 * (len(segments) + len(indices))
    value = value_at(node_counts[0])
    for nodes in node_counts[1:]:
        refined = value_at(nodes)
        estimate = abs(refined - value) + floor * (1.0 + abs(refined))
        if estimate <= tol:
            return refined, estimate
        value = refined
    raise QuadratureError(
        f"integral for {indices} over {len(segments)} segments did not "
        f"stabilize below {tol} on node counts {node_counts}"
    )


def _check_node_counts(node_counts: tuple[int, ...]) -> None:
    if len(node_counts) < 2:
        raise ValueError("need at least two node counts for an error estimate")


def iterated_integral(
    loop: LoopModel,
    indices: tuple[int, ...],
    *,
    node_counts: tuple[int, ...] = DEFAULT_NODE_COUNTS,
    tol: float = DEFAULT_TOL,
) -> tuple[float, float]:
    """Value and error estimate of one iterated integral along the loop.

    ``indices`` names the monomial X_{i1}..X_{ik}; the empty tuple gives the
    constant term 1.  The error estimate is the disagreement between two
    consecutive node counts plus a rounding floor; if the ladder in
    ``node_counts`` never gets the disagreement under ``tol``, raises
    QuadratureError rather than returning a number it cannot stand behind.
    """
    for i in indices:
        if not 1 <= i <= loop.rank:
            raise ValueError(f"index {i} out of range for rank {loop.rank}")
    _check_node_counts(node_counts)
    if not indices:
        return 1.0, 0.0
    if not loop.segments:
        return 0.0, 0.0
    return _ladder(
        lambda nodes: _cascade(loop.segments, indices, nodes),
        loop.segments, indices, node_counts, tol,
    )


def _walk(
    loop: LoopModel, trunc: int, node_counts: tuple[int, ...], tol: float
) -> Iterator[dict[tuple[int, ...], tuple[float, float]]]:
    """One dict of (value, error) per degree 1..``trunc``, keys in lex order,
    each computed only when asked for.

    Each node count keeps the cascade state of every prefix it has reached,
    so a monomial costs one ``_step`` past its prefix.
    """
    _check_node_counts(node_counts)
    segments = loop.segments
    reached = {nodes: {(): ([1.0] * len(segments), 0.0)} for nodes in node_counts}

    def cascade(nodes: int, key: tuple[int, ...]) -> tuple[list, float]:
        known = reached[nodes]
        if key not in known:
            level, _ = cascade(nodes, key[:-1])
            known[key] = _step(segments, level, key[-1], nodes, len(key) < trunc)
        return known[key]

    keys: list[tuple[int, ...]] = [()]
    for _ in range(trunc):
        keys = [key + (i,) for key in keys for i in range(1, loop.rank + 1)]
        if not segments:
            yield {key: (0.0, 0.0) for key in keys}
            continue
        yield {
            key: _ladder(
                lambda nodes: cascade(nodes, key)[1], segments, key, node_counts, tol
            )
            for key in keys
        }


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
    node_counts: tuple[int, ...] = DEFAULT_NODE_COUNTS,
    tol: float = DEFAULT_TOL,
) -> HolonomySeries:
    """All iterated integrals of the loop through the given degree.

    One walk over the monomial trie; every value and error is the one
    ``iterated_integral`` gives for its key.
    """
    _check_trunc(trunc, allow_deep)
    values: dict[tuple[int, ...], float] = {(): 1.0}
    errors: dict[tuple[int, ...], float] = {(): 0.0}
    for coefficients in _walk(loop, trunc, node_counts, tol):
        for key, (value, err) in coefficients.items():
            values[key] = value
            errors[key] = err
    return HolonomySeries(loop.rank, trunc, values, errors)


def holonomy_compare(
    a: FreeWord,
    b: FreeWord,
    *,
    trunc: int = MAX_HOLONOMY_TRUNC,
    margin: float = DEFAULT_MARGIN,
    allow_deep: bool = False,
    node_counts: tuple[int, ...] = DEFAULT_NODE_COUNTS,
    tol: float = DEFAULT_TOL,
) -> Verdict | None:
    """Order two words by the first numerically-resolved holonomy monomial.

    Scans coefficient differences in graded lexicographic order and decides
    at the first one exceeding both error estimates plus ``margin``.  Freely
    equal words compare EQUAL outright; otherwise, if every monomial through
    ``trunc`` is inside the noise band, returns None (indeterminate) instead
    of guessing.

    The walks of the two loops advance in lockstep, one degree at a time, and
    the scan stops at the deciding degree: coefficients above it are never
    computed, so a QuadratureError up there does not abort a comparison that
    a lower degree has decided.
    """
    if a.rank != b.rank:
        raise ValueError(f"rank mismatch: {a.rank} vs {b.rank}")
    if a.letters == b.letters:
        return Verdict.EQUAL
    _check_trunc(trunc, allow_deep)
    walk_a = _walk(LoopModel.from_word(a), trunc, node_counts, tol)
    walk_b = _walk(LoopModel.from_word(b), trunc, node_counts, tol)
    for coeffs_a, coeffs_b in zip(walk_a, walk_b):
        for key, (value_a, err_a) in coeffs_a.items():
            value_b, err_b = coeffs_b[key]
            diff = value_a - value_b
            noise = err_a + err_b + margin
            if abs(diff) > noise:
                return Verdict.LESS if diff < 0 else Verdict.GREATER
    return None
