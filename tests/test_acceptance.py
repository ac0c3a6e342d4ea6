"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to see the per-criterion
verdict lines; ``-s`` additionally shows the printed sample counts and
timings.
"""

from __future__ import annotations

import itertools
import math
import random
import time

from biorder.braid import (
    PureBraidWord,
    SingularBraid,
    all_generators,
    artin_automorphism,
    braid_compare,
    comb,
    conjugation_relators,
    ft_invariant,
    insert_relator,
    random_pure_braid,
    singular_alternating_sum,
)
from biorder.chen import LoopModel, holonomy_compare, holonomy_series, iterated_integral
from biorder.freegroup import (
    FreeWord,
    commutator,
    lcs_depth,
    magnus_compare,
    magnus_expand,
    random_reduced_word,
)
from biorder.ordtools import iterated_extension_compare
from biorder.series import Verdict
from test_chen import product_coefficient
from test_freegroup import all_reduced_words


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- 1 ----------------------------------------------------------------------


def test_criterion_1_expansion_is_a_homomorphism():
    rng = random.Random(101)
    start = time.perf_counter()
    checked = 0
    ok = True
    for _ in range(300):
        rank = rng.choice([2, 3])
        trunc = rng.randrange(1, 5)
        a = random_reduced_word(rng, rank, rng.randrange(0, 9))
        b = random_reduced_word(rng, rank, rng.randrange(0, 9))
        lhs = magnus_expand(a * b, trunc)
        rhs = magnus_expand(a, trunc) * magnus_expand(b, trunc)
        if lhs != rhs:
            ok = False
            break
        checked += 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    report(1, ok, f"expansion multiplicative on {checked}/300 pairs "
                  f"(rank<=3, len<=8, degree<=4), exact equality, {elapsed:.2f}s (<10s)")


# -- 2 ----------------------------------------------------------------------


def test_criterion_2_orders_are_bi_invariant():
    rng = random.Random(102)
    start = time.perf_counter()
    word_ok = 0
    for _ in range(1000):
        a = random_reduced_word(rng, 2, rng.randrange(0, 7))
        b = random_reduced_word(rng, 2, rng.randrange(0, 7))
        c = random_reduced_word(rng, 2, rng.randrange(0, 7))
        verdict = magnus_compare(a, b)
        if (magnus_compare(c * a, c * b) is verdict
                and magnus_compare(a * c, b * c) is verdict):
            word_ok += 1
    braid_ok = 0
    for _ in range(1000):
        n = rng.choice([3, 4])
        a = random_pure_braid(rng, n, rng.randrange(0, 5))
        b = random_pure_braid(rng, n, rng.randrange(0, 5))
        c = random_pure_braid(rng, n, rng.randrange(0, 5))
        verdict = braid_compare(a, b)
        if (braid_compare(c * a, c * b) is verdict
                and braid_compare(a * c, b * c) is verdict):
            braid_ok += 1
    elapsed = time.perf_counter() - start
    ok = word_ok == 1000 and braid_ok == 1000 and elapsed < 60.0
    report(2, ok, f"bi-invariance exact on {word_ok}/1000 free-group triples and "
                  f"{braid_ok}/1000 pure-braid triples (3-4 strands), {elapsed:.2f}s (<60s)")


# -- 3 ----------------------------------------------------------------------


def test_criterion_3_class_ladder_matches_series_order():
    words = list(all_reduced_words(2, 5))
    assert len(words) == 485
    start = time.perf_counter()
    agree = 0
    total = 0
    for a in words:
        for b in words:
            if a.letters == b.letters:
                continue
            total += 1
            expected = magnus_compare(a, b)
            got = iterated_extension_compare(a, b, max(1, len(a) + len(b)))
            if got is expected:
                agree += 1
    elapsed = time.perf_counter() - start
    ok = agree == total == 485 * 484
    report(3, ok, f"nilpotent-quotient ladder agreed with the series order on "
                  f"{agree}/{total} ordered pairs of distinct words (len<=5), "
                  f"{elapsed:.1f}s")


# -- 4 ----------------------------------------------------------------------


def test_criterion_4_numerical_holonomy_matches_exact_order():
    # Generator loops expand to exponentials through degree 4.
    exp_ok = True
    for i in (1, 2):
        series = holonomy_series(LoopModel(2, (i,)), trunc=4)
        for degree in range(0, 5):
            for key in itertools.product((1, 2), repeat=degree):
                expected = 1.0 / math.factorial(degree) if set(key) <= {i} else 0.0
                if abs(series.coefficient(key) - expected) > 1e-8:
                    exp_ok = False
    rng = random.Random(104)
    indeterminate = 0
    shallow_undecided = 0  # None although a^-1 b has depth <= trunc
    mismatches = 0
    for _ in range(200):
        a = random_reduced_word(rng, 2, rng.randrange(0, 6))
        b = random_reduced_word(rng, 2, rng.randrange(0, 6))
        verdict = holonomy_compare(a, b, trunc=4)
        if verdict is None:
            indeterminate += 1
            shallow_undecided += lcs_depth(a.inverse() * b, 4) is not None
        elif verdict is not magnus_compare(a, b):
            mismatches += 1
    ok = exp_ok and mismatches == 0 and indeterminate < 10 and shallow_undecided == 0
    report(4, ok, f"generator holonomy = exponential within 1e-8 through degree 4 "
                  f"({'yes' if exp_ok else 'no'}); order agreement 200 pairs: "
                  f"{mismatches} mismatches, {indeterminate}/200 indeterminate (<5%), "
                  f"{shallow_undecided} of them with depth <= 4 (must be 0)")


# -- 5 ----------------------------------------------------------------------


def test_criterion_5_holonomy_is_multiplicative_and_shuffles():
    rng = random.Random(105)
    keys = [()]
    for d in (1, 2, 3):
        keys.extend(itertools.product((1, 2), repeat=d))
    shuffle_pairs = [((1,), (2,)), ((1,), (1,)), ((1, 2), (2,)), ((2,), (1, 1))]
    mult_bad = 0
    shuffle_bad = 0
    for _ in range(50):
        a = LoopModel(2, tuple(rng.choice([1, -1, 2, -2])
                               for _ in range(rng.randrange(1, 5))))
        b = LoopModel(2, tuple(rng.choice([1, -1, 2, -2])
                               for _ in range(rng.randrange(1, 5))))
        sc = holonomy_series(LoopModel(2, a.segments + b.segments), trunc=3)
        sa, sb = holonomy_series(a, trunc=3), holonomy_series(b, trunc=3)
        for key in keys:
            value, error = product_coefficient(sa, sb, key)
            if abs(sc.values[key] - value) > 10.0 * (sc.errors[key] + error):
                mult_bad += 1
        for alpha, beta in shuffle_pairs:
            va, ea = iterated_integral(a, alpha)
            vb, eb = iterated_integral(a, beta)
            total, err_sum = 0.0, 0.0
            stack = [(alpha, beta, ())]
            while stack:
                rest_a, rest_b, prefix = stack.pop()
                if not rest_a or not rest_b:
                    v, e = iterated_integral(a, prefix + rest_a + rest_b)
                    total += v
                    err_sum += e
                    continue
                stack.append((rest_a[1:], rest_b, prefix + rest_a[:1]))
                stack.append((rest_a, rest_b[1:], prefix + rest_b[:1]))
            prod_err = abs(va) * eb + ea * abs(vb) + ea * eb
            if abs(va * vb - total) > 10.0 * (prod_err + err_sum):
                shuffle_bad += 1
    ok = mult_bad == 0 and shuffle_bad == 0
    report(5, ok, f"50 loop pairs, degree<=3: {mult_bad} multiplicativity and "
                  f"{shuffle_bad} shuffle violations (tolerance 10x summed error bounds)")


# -- 6 ----------------------------------------------------------------------


def test_criterion_6_filtration_depth_ladder_and_bound():
    x1 = FreeWord(2, (1,))
    x2 = FreeWord(2, (2,))
    c = commutator(x1, x2)
    ladder_ok = (
        lcs_depth(x1) == 1
        and lcs_depth(c) == 2
        and lcs_depth(commutator(c, x2)) == 3
    )
    bound_ok = True
    total = 0
    for w in all_reduced_words(2, 6):
        if w.is_identity:
            continue
        total += 1
        depth = lcs_depth(w)
        if depth is None or depth > len(w):
            bound_ok = False
            break
    ok = ladder_ok and bound_ok
    report(6, ok, f"depth ladder 1/2/3 on generator and nested commutators "
                  f"({'yes' if ladder_ok else 'no'}); depth <= length for all "
                  f"{total} nontrivial reduced words of length <= 6 "
                  f"({'yes' if bound_ok else 'no'})")


# -- 7 ----------------------------------------------------------------------


def test_criterion_7_relators_and_recombination():
    rng = random.Random(107)
    relator_ok = 0
    for t in range(200):
        n = 3 if t % 2 == 0 else 4
        relators = conjugation_relators(n)
        a = random_pure_braid(rng, n, rng.randrange(0, 5))
        b = random_pure_braid(rng, n, rng.randrange(0, 5))
        rel = rng.choice(relators)
        pos = rng.randrange(0, len(a.letters) + 1)
        if braid_compare(insert_relator(a, rel, pos), b) is braid_compare(a, b):
            relator_ok += 1
    recomb_ok = 0
    for _ in range(500):
        n = rng.choice([2, 3, 4])
        w = random_pure_braid(rng, n, rng.randrange(0, 7))
        if artin_automorphism(comb(w).to_word()) == artin_automorphism(w):
            recomb_ok += 1
    ok = relator_ok == 200 and recomb_ok == 500
    report(7, ok, f"verdicts unchanged under {relator_ok}/200 relator insertions; "
                  f"combing round-tripped {recomb_ok}/500 braid words (2-4 strands)")


# -- 8 ----------------------------------------------------------------------


def _degree_d_invariants(strands: int, d: int) -> list[tuple[int, tuple[int, ...]]]:
    out = []
    for factor in range(1, strands):
        out.extend((factor, key) for key in
                   itertools.product(range(1, factor + 1), repeat=d))
    return out


def test_criterion_8_finite_type_vanishing_and_witness():
    rng = random.Random(108)
    strands = 3
    positives = all_generators(strands)
    vanish_ok = True
    checked = 0
    for d in (1, 2, 3):
        invariants = _degree_d_invariants(strands, d)
        for _ in range(100):
            filler = random_pure_braid(rng, strands, rng.randrange(0, 4))
            letters = list(filler.letters)
            marked: list[int] = []
            for _ in range(d + 1):
                pos = rng.randrange(0, len(letters) + 1)
                marked = [p + 1 if p >= pos else p for p in marked]
                letters.insert(pos, (*rng.choice(positives), 1))
                marked.append(pos)
            singular = SingularBraid(
                PureBraidWord(strands, tuple(letters)), tuple(sorted(marked))
            )
            for factor, key in invariants:
                value = singular_alternating_sum(
                    singular, lambda w: ft_invariant(factor, key, w)
                )
                checked += 1
                if value != 0:
                    vanish_ok = False
    witness_ok = True
    for d in (1, 2, 3):
        word = PureBraidWord(strands, ((1, 3, 1),) * d)
        singular = SingularBraid(word, tuple(range(d)))
        value = singular_alternating_sum(
            singular, lambda w: ft_invariant(2, (1,) * d, w)
        )
        if value != 2**d:
            witness_ok = False
    ok = vanish_ok and witness_ok
    report(8, ok, f"degree-d invariants vanished on all {checked} alternating sums "
                  f"over (d+1)-marked braids, d<=3; d-marked witness hit 2^d "
                  f"({'yes' if witness_ok else 'no'})")
