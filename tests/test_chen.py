"""Holonomy layer: iterated integrals against an exact rational oracle."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from biorder import chen
from biorder.chen import (
    MAX_HOLONOMY_TRUNC,
    LoopModel,
    bump_density,
    holonomy_compare,
    holonomy_series,
    iterated_integral,
)
from biorder.freegroup import (
    FreeWord,
    first_difference,
    magnus_compare,
    random_reduced_word,
)
from biorder.series import TruncSeries, Verdict, deglex_key

# --- exact oracle: the same nested antiderivatives, done symbolically ------
#
# Every integrand is piecewise polynomial with rational coefficients, so the
# whole computation can be carried out in Fraction-coefficient polynomials
# (lists indexed by power, local coordinate per segment).

BUMP_POLY = [Fraction(0), Fraction(0), Fraction(30), Fraction(-60), Fraction(30)]


def poly_mul(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_antiderivative(p: list[Fraction]) -> list[Fraction]:
    return [Fraction(0)] + [c / (i + 1) for i, c in enumerate(p)]


def poly_eval_one(p: list[Fraction]) -> Fraction:
    return sum(p, Fraction(0))


def poly_at(p: list[Fraction], u: Fraction) -> Fraction:
    return sum((c * u**i for i, c in enumerate(p)), Fraction(0))


def exact_iterated_integral(
    segments: tuple[int, ...], indices: tuple[int, ...]
) -> Fraction:
    level = [[Fraction(1)] for _ in segments]
    carry = Fraction(0)
    for target in indices:
        carry = Fraction(0)
        nxt: list[list[Fraction]] = []
        for letter, prev in zip(segments, level):
            if abs(letter) == target:
                sign = Fraction(1 if letter > 0 else -1)
                inner = poly_antiderivative(
                    poly_mul([sign * c for c in BUMP_POLY], prev)
                )
                nxt.append([inner[0] + carry] + inner[1:])
                carry += poly_eval_one(inner)
            else:
                nxt.append([carry])
        level = nxt
    return carry if indices else Fraction(1)


def all_keys(rank: int, trunc: int) -> list[tuple[int, ...]]:
    import itertools

    keys: list[tuple[int, ...]] = [()]
    for d in range(1, trunc + 1):
        keys.extend(itertools.product(range(1, rank + 1), repeat=d))
    return keys


def shuffles(alpha: tuple[int, ...], beta: tuple[int, ...]):
    if not alpha:
        yield beta
        return
    if not beta:
        yield alpha
        return
    for rest in shuffles(alpha[1:], beta):
        yield (alpha[0],) + rest
    for rest in shuffles(alpha, beta[1:]):
        yield (beta[0],) + rest


def random_loop(rng: random.Random, rank: int, length: int) -> LoopModel:
    # Deliberately unreduced: loops may double back on themselves.
    segments = tuple(
        rng.choice([1, -1]) * rng.randrange(1, rank + 1) for _ in range(length)
    )
    return LoopModel(rank, segments)


def signed_letters(rank: int) -> list[int]:
    return [sign * i for i in range(1, rank + 1) for sign in (1, -1)]


@st.composite
def loops(draw, max_segments: int = 12) -> LoopModel:
    rank = draw(st.integers(1, 3))
    segments = draw(
        st.lists(st.sampled_from(signed_letters(rank)), max_size=max_segments)
    )
    return LoopModel(rank, tuple(segments))


@st.composite
def word_pairs(draw) -> tuple[FreeWord, FreeWord]:
    """(a, a*c); c is often trivial, so a = b and empty words occur."""
    rank = draw(st.integers(1, 3))
    letters = st.sampled_from(signed_letters(rank))
    a = FreeWord.from_letters(rank, draw(st.lists(letters, max_size=8)))
    c = FreeWord.from_letters(rank, draw(st.lists(letters, max_size=6)))
    return a, a * c


def full_scan_compare(a: FreeWord, b: FreeWord, trunc: int) -> Verdict | None:
    """The comparison as first written: build both whole series, then scan
    with the 1/2 rule."""
    if a.letters == b.letters:
        return Verdict.EQUAL
    sa = holonomy_series(LoopModel.from_word(a), trunc)
    sb = holonomy_series(LoopModel.from_word(b), trunc)
    for key in sorted(all_keys(a.rank, trunc), key=deglex_key):
        if not key:
            continue
        if sa.errors[key] + sb.errors[key] >= 0.5:
            return None
        diff = sa.coefficient(key) - sb.coefficient(key)
        if abs(diff) > 0.5:
            return Verdict.LESS if diff < 0 else Verdict.GREATER
    return None


def exp(s: TruncSeries) -> TruncSeries:
    """Truncated exponential of a series with zero constant term."""
    if s.coefficient(()) != 0:
        raise ValueError("exp requires zero constant term")
    one = TruncSeries.unit(s.rank, s.trunc)
    result = one
    for k in range(s.trunc, 0, -1):
        result = one + (s * result).scale(Fraction(1, k))
    return result


def exact_holonomy(loop: LoopModel, trunc: int) -> TruncSeries:
    """Chen's theorem: the holonomy is the product of exp(+-X_i) along the loop."""
    result = TruncSeries.unit(loop.rank, trunc)
    for letter in loop.segments:
        step = TruncSeries.generator(loop.rank, trunc, abs(letter))
        result = result * exp(step.scale(1 if letter > 0 else -1))
    return result


def concat(a: LoopModel, b: LoopModel) -> LoopModel:
    return LoopModel(a.rank, a.segments + b.segments)


def reverse(loop: LoopModel) -> LoopModel:
    """The same loop traversed backwards."""
    return LoopModel(loop.rank, tuple(-l for l in reversed(loop.segments)))


def product_coefficient(sa, sb, key: tuple[int, ...]) -> tuple[float, float]:
    """The coefficient of ``key`` in the truncated product of two holonomies,
    with first-order error propagation."""
    value = error = 0.0
    for cut in range(len(key) + 1):
        va, ea = sa.values[key[:cut]], sa.errors[key[:cut]]
        vb, eb = sb.values[key[cut:]], sb.errors[key[cut:]]
        value += va * vb
        error += abs(va) * eb + ea * abs(vb) + ea * eb
    return value, error


# --- tests -----------------------------------------------------------------


def test_bump_mass_and_first_integrals():
    assert exact_iterated_integral((1,), (1,)) == 1
    assert exact_iterated_integral((1,), (1, 1)) == Fraction(1, 2)
    loop = LoopModel(2, (1,))
    value, err = iterated_integral(loop, (1,))
    assert abs(value - 1.0) <= err + 1e-12
    value, err = iterated_integral(loop, (1, 1))
    assert abs(value - 0.5) <= err + 1e-12
    assert bump_density(0.0) == 0.0 and bump_density(1.0) == 0.0


def test_matches_exact_oracle_on_random_loops():
    rng = random.Random(31)
    for _ in range(40):
        loop = random_loop(rng, 2, rng.randrange(0, 6))
        k = rng.randrange(0, 4)
        indices = tuple(rng.randrange(1, 3) for _ in range(k))
        value, err = iterated_integral(loop, indices)
        exact = float(exact_iterated_integral(loop.segments, indices))
        assert abs(value - exact) <= err + 1e-12


def test_empty_cases():
    loop = LoopModel(2, (1, 2))
    assert iterated_integral(loop, ()) == (1.0, 0.0)
    assert iterated_integral(LoopModel(2, ()), (1,)) == (0.0, 0.0)


def test_generator_loop_holonomy_is_exponential():
    for i in (1, 2):
        series = holonomy_series(LoopModel(2, (i,)), trunc=4)
        for key in all_keys(2, 4):
            expected = (
                1.0 / math.factorial(len(key)) if set(key) <= {i} else 0.0
            )
            assert abs(series.coefficient(key) - expected) <= 1e-8


def test_holonomy_multiplicative_under_concatenation():
    rng = random.Random(32)
    for _ in range(15):
        a = random_loop(rng, 2, rng.randrange(1, 5))
        b = random_loop(rng, 2, rng.randrange(1, 5))
        sc = holonomy_series(concat(a, b), trunc=3)
        sa, sb = holonomy_series(a, trunc=3), holonomy_series(b, trunc=3)
        for key in all_keys(2, 3):
            value, error = product_coefficient(sa, sb, key)
            tolerance = sc.errors[key] + error + 1e-10
            assert abs(sc.values[key] - value) <= tolerance


def test_shuffle_identity():
    rng = random.Random(33)
    pairs = [((1,), (2,)), ((1,), (2, 2)), ((1, 2), (2,)), ((1,), (1,))]
    for _ in range(10):
        loop = random_loop(rng, 2, rng.randrange(1, 6))
        for alpha, beta in pairs:
            va, ea = iterated_integral(loop, alpha)
            vb, eb = iterated_integral(loop, beta)
            total, err = 0.0, 0.0
            for gamma in shuffles(alpha, beta):
                v, e = iterated_integral(loop, gamma)
                total += v
                err += e
            lhs_err = abs(va) * eb + ea * abs(vb) + ea * eb
            assert abs(va * vb - total) <= lhs_err + err + 1e-9


def test_reversed_loop_inverts_holonomy():
    rng = random.Random(34)
    for _ in range(10):
        loop = random_loop(rng, 2, rng.randrange(1, 5))
        series = holonomy_series(concat(loop, reverse(loop)), trunc=3)
        for key in all_keys(2, 3):
            expected = 1.0 if not key else 0.0
            assert abs(series.values[key] - expected) <= series.errors[key] + 1e-9


def test_backtracking_loop_has_trivial_holonomy():
    series = holonomy_series(LoopModel(2, (1, -1)), trunc=4)
    for key in all_keys(2, 4):
        expected = 1.0 if not key else 0.0
        assert abs(series.coefficient(key) - expected) <= 1e-9


def test_compare_agrees_with_magnus_on_sample():
    rng = random.Random(35)
    indeterminate = 0
    for _ in range(30):
        a = random_reduced_word(rng, 2, rng.randrange(0, 5))
        b = random_reduced_word(rng, 2, rng.randrange(0, 5))
        verdict = holonomy_compare(a, b)
        if verdict is None:
            indeterminate += 1
        else:
            assert verdict is magnus_compare(a, b)
    assert indeterminate <= 5


def test_compare_basic_verdicts():
    x1 = FreeWord(2, (1,))
    x2 = FreeWord(2, (2,))
    one = FreeWord.identity(2)
    assert holonomy_compare(one, x1) is Verdict.LESS
    assert holonomy_compare(x1, x2) is Verdict.GREATER  # x2 sits below x1
    assert holonomy_compare(x1, x1) is Verdict.EQUAL
    with pytest.raises(ValueError):
        holonomy_compare(x1, FreeWord.identity(3))


def test_compare_returns_none_past_truncation():
    # These differ first in degree 3, invisible at trunc 2.
    commutator = FreeWord(2, (1, 2, -1, -2))
    deep_a = commutator * FreeWord(2, (2,))
    deep_b = FreeWord(2, (2,)) * commutator
    # Sanity: they really are distinct and magnus-comparable.
    assert magnus_compare(deep_a, deep_b) is not Verdict.EQUAL
    assert holonomy_compare(deep_a, deep_b, trunc=2) is None


def test_deep_truncation_needs_opt_in():
    loop = LoopModel(2, (1,))
    with pytest.raises(ValueError):
        holonomy_series(loop, trunc=5)
    series = holonomy_series(loop, trunc=5, allow_deep=True)
    assert abs(series.coefficient((1,) * 5) - 1.0 / 120.0) <= 1e-8


def test_node_rule_makes_every_step_exact():
    # Step j integrates a polynomial of degree 5j - 1: the antiderivative
    # must be exact for the kept levels j < t, the Gauss weights at j = t.
    for trunc in range(9):
        nodes = chen._node_count(trunc)
        t = max(trunc, MAX_HOLONOMY_TRUNC)
        assert 5 * (t - 1) - 1 < nodes and 5 * t - 1 <= 2 * nodes - 1
    assert [chen._node_count(t) for t in (0, 2, 4, 5, 6)] == [15, 15, 15, 20, 25]
    # What is left is the float rule's own miss, which the measured residual
    # bounds; on the mass of the bump it is 2.5e-15 at 20 nodes.
    for nodes in (15, 20, 25):
        weights, _, _, residual, _ = chen._collocation(nodes)
        x = (np.polynomial.legendre.leggauss(nodes)[0] + 1.0) / 2.0
        mass = sum(
            Fraction(w) * poly_at(BUMP_POLY, Fraction(u)) for w, u in zip(weights, x)
        )
        assert residual < 1e-14
        assert abs(mass - 1) <= Fraction(5 * math.sqrt(10 / 7) * residual)


def test_loop_model_validation():
    with pytest.raises(ValueError):
        LoopModel(2, (3,))
    with pytest.raises(ValueError):
        LoopModel(2, (0,))
    loop = LoopModel.from_word(FreeWord(2, (1, 2, -1)))
    assert loop.segments == (1, 2, -1)
    assert len(loop) == 3


def test_iterated_integral_rejects_out_of_range_index():
    with pytest.raises(ValueError):
        iterated_integral(LoopModel(2, (1,)), (5,))


@settings(max_examples=100, deadline=None)
@given(loops(), st.integers(0, 4))
def test_series_equals_per_key_integrals_exactly(loop, trunc):
    series = holonomy_series(loop, trunc)
    assert list(series.values) == all_keys(loop.rank, trunc)
    for key in all_keys(loop.rank, trunc):
        expected = iterated_integral(loop, key)
        assert (series.values[key], series.errors[key]) == expected


@settings(max_examples=50, deadline=None)
@given(loops())
def test_values_below_the_cap_do_not_depend_on_trunc(loop):
    low, high = holonomy_series(loop, 2), holonomy_series(loop, 4)
    for key, value in low.values.items():
        assert (value, low.errors[key]) == (high.values[key], high.errors[key])


@settings(max_examples=120, deadline=None)
@given(word_pairs(), st.integers(0, 4))
def test_compare_equals_full_series_scan(pair, trunc):
    a, b = pair
    assert holonomy_compare(a, b, trunc=trunc) is full_scan_compare(a, b, trunc)
    assert holonomy_compare(b, a, trunc=trunc) is full_scan_compare(b, a, trunc)


def test_error_bars_bound_the_exact_holonomy():
    rng = random.Random(36)
    checked = 0
    for _ in range(150):
        loop = random_loop(rng, rng.randint(1, 3), rng.randrange(0, 12))
        series = holonomy_series(loop, trunc=4)
        exact = exact_holonomy(loop, 4)
        for key, value in series.values.items():
            miss = abs(Fraction(value) - exact.coefficient(key))
            assert miss <= Fraction(series.errors[key]), (loop, key)
            checked += 1
    assert checked > 5000


def assert_within_bars(series, exact) -> None:
    for key, value in series.values.items():
        miss = abs(Fraction(value) - exact.coefficient(key))
        assert miss <= Fraction(series.errors[key]), key


def test_long_powers_lie_within_their_bars():
    # x1^30 and x1^40 reach coefficients of 33,750 and 106,667 at degree 4.
    for power in (30, 40):
        loop = LoopModel(2, (1,) * power)
        assert_within_bars(holonomy_series(loop, trunc=4), exact_holonomy(loop, 4))
    a = FreeWord(2, (1,) * 40)
    b = FreeWord(2, (2,))
    assert holonomy_compare(a, b) is magnus_compare(a, b) is Verdict.GREATER
    assert holonomy_compare(b, a) is Verdict.LESS


def test_deep_truncations_match_the_exact_holonomy():
    # Past the cap the walk runs at 20 and 25 nodes, where the float rule's
    # own residual is a few units of roundoff and the bars must count it.
    rng = random.Random(37)
    for trunc in (5, 6):
        loops_ = [LoopModel(1, (1,)), LoopModel(2, (1, -2))]
        loops_ += [random_loop(rng, 2, rng.randrange(1, 6)) for _ in range(10)]
        for loop in loops_:
            series = holonomy_series(loop, trunc, allow_deep=True)
            assert_within_bars(series, exact_holonomy(loop, trunc))


@settings(max_examples=150, deadline=None)
@given(word_pairs())
def test_first_key_past_one_half_is_the_kernel_witness(pair):
    # H(w) = phi(M(w)): every difference before the deciding key is 0, and
    # the one at it is the coefficient of first_difference(a^-1 b).
    a, b = pair
    witness = first_difference(a.inverse() * b, 4)
    assume(witness is not None or a.letters == b.letters)
    sa, sb = (holonomy_series(LoopModel.from_word(w), 4) for w in (a, b))
    for key in sorted(sa.values, key=deglex_key):
        diff = sb.values[key] - sa.values[key]
        if abs(diff) > 0.5:
            break
        assert abs(diff) <= sa.errors[key] + sb.errors[key]
    else:
        assert witness is None
        return
    assert witness is not None
    _, monomial, coefficient = witness
    assert key == monomial
    assert round(diff) == coefficient
