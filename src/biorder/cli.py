"""Command-line front end.

Subcommands map one-to-one onto the library layers: ``expand`` and
``compare`` for free-group words, ``comb``/``invariants``/``singular-sum``
for braids, ``holonomy`` for the numerical route, and ``verify`` for the
randomized order-axiom harness.

Exit codes: 0 on success (including an honest "indeterminate"), 1 on usage
or input errors and when the reader of stdout closes it early, 2 when
``verify`` finds a property violation.  The default expansion degree can be
set with the BIORDER_DEGREE environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import Sequence

from .braid import (
    braid_compare,
    braid_witness,
    comb,
    conjugation_relator,
    format_braid,
    ft_invariant,
    insert_relator,
    parse_braid,
    parse_singular_braid,
    random_pure_braid,
    relator_count,
    singular_alternating_sum,
)
from .chen import MAX_HOLONOMY_TRUNC, LoopModel, holonomy_compare, holonomy_series
from .freegroup import (
    FreeWord,
    format_word,
    magnus_expand,
    magnus_witness,
    parse_word,
    random_reduced_word,
)
from .ordtools import (
    GroupOrderOracle,
    HarnessReport,
    UndecidedAtClass,
    axiom_harness,
    iterated_extension_compare,
    magnus_order_oracle,
)
from .series import Verdict, deglex_key, to_json_obj as series_to_json_obj

DEGREE_ENV_VAR = "BIORDER_DEGREE"
_FALLBACK_DEGREE = 4
_INFER_RANK_CAP = 26

_VERDICT_SYMBOL = {Verdict.LESS: "<", Verdict.EQUAL: "==", Verdict.GREATER: ">"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse, but usage problems exit with status 1 instead of 2."""

    def error(self, message: str):  # type: ignore[override]
        raise _UsageError(message)


def _default_degree() -> int:
    raw = os.environ.get(DEGREE_ENV_VAR)
    if raw is None:
        return _FALLBACK_DEGREE
    try:
        degree = int(raw)
    except ValueError:
        raise _UsageError(f"{DEGREE_ENV_VAR} must be an integer, got {raw!r}")
    if degree < 0:
        raise _UsageError(f"{DEGREE_ENV_VAR} must be >= 0, got {degree}")
    return degree


def _degree(args) -> int:
    """``--degree``, or the default degree where it is omitted."""
    degree = args.degree if args.degree is not None else _default_degree()
    if degree < 0:
        raise _UsageError(f"degree must be >= 0, got {degree}")
    return degree


def _parse_word_inferring_rank(text: str, rank: int | None) -> FreeWord:
    if rank is not None:
        return parse_word(text, rank)
    wide = parse_word(text, _INFER_RANK_CAP)
    used = max((abs(l) for l in wide.letters), default=1)
    return FreeWord(max(used, 2), wide.letters)


def _monomial_label(indices: tuple[int, ...], letter: str = "X") -> str:
    if not indices:
        return "1"
    return "".join(f"{letter}{i}" for i in indices)


def _coeff_json(value) -> list[int]:
    from fractions import Fraction

    frac = Fraction(value)
    return [frac.numerator, frac.denominator]


def _emit(obj, as_json: bool, human_lines: list[str]) -> None:
    if as_json:
        print(json.dumps(obj, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


# ---------------------------------------------------------------------------
# Subcommands.


def _cmd_expand(args) -> int:
    word = _parse_word_inferring_rank(args.word, args.rank)
    degree = args.degree if args.degree is not None else _default_degree()
    series = magnus_expand(word, degree)
    lines = [f"word: {format_word(word)}", f"degree: {degree}"]
    for key in sorted(series.terms, key=deglex_key):
        lines.append(f"  {_monomial_label(key)}: {series.terms[key]}")
    _emit(
        {"word": format_word(word), "degree": degree, "series": series_to_json_obj(series)},
        args.json,
        lines,
    )
    return 0


def _cmd_compare(args) -> int:
    if args.braid:
        a = parse_braid(args.left, args.strands)
        b = parse_braid(args.right, args.strands)
        if a.strands != b.strands:
            strands = max(a.strands, b.strands)
            a, b = parse_braid(args.left, strands), parse_braid(args.right, strands)
        verdict, level, key, ca, cb = braid_witness(a, b)
        symbol = _VERDICT_SYMBOL[verdict]
        lines = [f"{format_braid(a)} {symbol} {format_braid(b)}"]
        if key is not None:
            lines.append(
                f"decided at level {level}, monomial {_monomial_label(key, 'Y')}: "
                f"{ca} vs {cb}"
            )
        _emit(
            {
                "left": format_braid(a),
                "right": format_braid(b),
                "verdict": verdict.name,
                "level": level,
                "monomial": list(key) if key is not None else None,
                "coefficients": None
                if key is None
                else [_coeff_json(ca), _coeff_json(cb)],
            },
            args.json,
            lines,
        )
        return 0

    a = _parse_word_inferring_rank(args.left, args.rank)
    b = _parse_word_inferring_rank(args.right, args.rank)
    if a.rank != b.rank:
        rank = max(a.rank, b.rank)
        a, b = FreeWord(rank, a.letters), FreeWord(rank, b.letters)

    if args.method == "magnus":
        verdict, key, ca, cb = magnus_witness(a, b)
        lines = [f"{format_word(a)} {_VERDICT_SYMBOL[verdict]} {format_word(b)}"]
        if key is not None:
            lines.append(f"decided at monomial {_monomial_label(key)}: {ca} vs {cb}")
        obj = {
            "left": format_word(a),
            "right": format_word(b),
            "method": "magnus",
            "verdict": verdict.name,
            "monomial": list(key) if key is not None else None,
            "coefficients": None if key is None else [_coeff_json(ca), _coeff_json(cb)],
        }
    elif args.method == "classes":
        max_class = args.max_class if args.max_class is not None else _default_degree()
        try:
            verdict = iterated_extension_compare(a, b, max_class)
            lines = [
                f"{format_word(a)} {_VERDICT_SYMBOL[verdict]} {format_word(b)}",
                f"decided within nilpotency class {max_class}",
            ]
            name: str | None = verdict.name
        except UndecidedAtClass as undecided:
            lines = [
                f"{format_word(a)} ? {format_word(b)}",
                f"undecided through nilpotency class {undecided.max_class}",
            ]
            name = None
        obj = {
            "left": format_word(a),
            "right": format_word(b),
            "method": "classes",
            "max_class": max_class,
            "verdict": name,
        }
    else:  # holonomy
        degree = _degree(args)
        try:
            verdict_or_none = holonomy_compare(a, b, trunc=degree)
        except ValueError:
            # Freely equal words are EQUAL at any degree; only a real scan
            # past the cap is refused, and compare has no --allow-deep.
            if degree > MAX_HOLONOMY_TRUNC:
                raise _UsageError(
                    f"the holonomy route of compare is capped at degree "
                    f"{MAX_HOLONOMY_TRUNC}, got {degree}"
                )
            raise
        if verdict_or_none is None:
            lines = [
                f"{format_word(a)} ? {format_word(b)}",
                f"indeterminate through degree {degree}",
            ]
        else:
            lines = [
                f"{format_word(a)} {_VERDICT_SYMBOL[verdict_or_none]} {format_word(b)}"
            ]
        obj = {
            "left": format_word(a),
            "right": format_word(b),
            "method": "holonomy",
            "degree": degree,
            "verdict": verdict_or_none.name if verdict_or_none is not None else None,
        }
    _emit(obj, args.json, lines)
    return 0


def _cmd_comb(args) -> int:
    braid = parse_braid(args.braid, args.strands)
    combed = comb(braid)
    lines = [f"braid: {format_braid(braid)} on {braid.strands} strands"]
    for level, factor in enumerate(combed.factors, start=1):
        text = format_word(factor).replace("x", "y") if factor.letters else "1"
        lines.append(f"  level {level}: {text}")
    lines.append(f"normal form: {format_braid(combed.to_word())}")
    _emit(
        {
            "braid": format_braid(braid),
            "strands": braid.strands,
            "factors": [list(f.letters) for f in combed.factors],
            "normal_form": format_braid(combed.to_word()),
        },
        args.json,
        lines,
    )
    return 0


def _cmd_invariants(args) -> int:
    braid = parse_braid(args.braid, args.strands)
    factor = args.factor
    if not 1 <= factor <= braid.strands - 1:
        raise _UsageError(f"factor must be in 1..{braid.strands - 1}, got {factor}")
    degree = _degree(args)
    import itertools

    rows = []
    for d in range(1, degree + 1):
        for key in itertools.product(range(1, factor + 1), repeat=d):
            rows.append((key, ft_invariant(factor, key, braid)))
    lines = [
        f"braid: {format_braid(braid)} on {braid.strands} strands",
        f"factor {factor} invariants through degree {degree}:",
    ]
    lines += [f"  {_monomial_label(key, 'Y')}: {value}" for key, value in rows]
    _emit(
        {
            "braid": format_braid(braid),
            "factor": factor,
            "degree": degree,
            "invariants": {
                _monomial_label(key, "Y"): _coeff_json(value) for key, value in rows
            },
        },
        args.json,
        lines,
    )
    return 0


def _cmd_singular_sum(args) -> int:
    singular = parse_singular_braid(args.braid, args.strands)
    try:
        key = tuple(int(part) for part in args.monomial.split(",") if part)
    except ValueError:
        raise _UsageError(f"bad monomial {args.monomial!r}: want e.g. 1,2,1")
    total = singular_alternating_sum(singular, lambda w: ft_invariant(args.factor, key, w))
    marks = len(singular.marked)
    lines = [
        f"singular braid: {args.braid.strip()} ({marks} marked)",
        f"alternating sum of factor-{args.factor} {_monomial_label(key, 'Y')}: {total}",
    ]
    _emit(
        {
            "braid": args.braid.strip(),
            "marks": marks,
            "factor": args.factor,
            "monomial": list(key),
            "sum": _coeff_json(total),
        },
        args.json,
        lines,
    )
    return 0


def _cmd_holonomy(args) -> int:
    word = _parse_word_inferring_rank(args.word, args.rank)
    degree = _degree(args)
    if degree > MAX_HOLONOMY_TRUNC and not args.allow_deep:
        raise _UsageError(
            f"degree {degree} exceeds {MAX_HOLONOMY_TRUNC}; the monomial count "
            f"grows as rank**degree, pass --allow-deep to accept the cost"
        )
    series = holonomy_series(
        LoopModel.from_word(word), degree, allow_deep=args.allow_deep
    )
    keys = sorted(series.values, key=deglex_key)
    lines = [f"word: {format_word(word)}", f"degree: {degree}"]
    lines += [
        f"  {_monomial_label(key)}: {series.values[key]:+.12f} "
        f"(err <= {series.errors[key]:.2e})"
        for key in keys
    ]
    _emit(
        {
            "word": format_word(word),
            "degree": degree,
            "coefficients": {
                _monomial_label(key): [series.values[key], series.errors[key]]
                for key in keys
            },
        },
        args.json,
        lines,
    )
    return 0


def _report_obj(report: HarnessReport) -> dict:
    return {
        "oracle": report.oracle,
        "samples": report.samples,
        "violations": [v.to_json_obj() for v in report.violations],
        "passed": report.passed,
    }


def _cmd_verify(args) -> int:
    if args.strands < 2:
        raise _UsageError(f"strands must be >= 2, got {args.strands}")
    if args.samples < 0:
        raise _UsageError(f"samples must be >= 0, got {args.samples}")
    rng = random.Random(args.seed)
    reports: list[HarnessReport] = []

    word_oracle = magnus_order_oracle(2)
    triples = [
        tuple(random_reduced_word(rng, 2, rng.randrange(0, 7)) for _ in range(3))
        for _ in range(args.samples)
    ]
    reports.append(axiom_harness(word_oracle, triples))

    braid_oracle = GroupOrderOracle(
        name=f"braid-order-strands{args.strands}",
        compare=braid_compare,
        multiply=lambda a, b: a * b,
        describe=format_braid,
    )
    braid_triples = [
        tuple(
            random_pure_braid(rng, args.strands, rng.randrange(0, 5))
            for _ in range(3)
        )
        for _ in range(max(args.samples // 4, 10))
    ]
    reports.append(axiom_harness(braid_oracle, braid_triples))

    relator_failures = []
    count = relator_count(args.strands)  # 0 on 2 strands: P_2 is cyclic
    relator_samples = max(args.samples // 10, 5) if count else 0
    for _ in range(relator_samples):
        a = random_pure_braid(rng, args.strands, rng.randrange(0, 5))
        b = random_pure_braid(rng, args.strands, rng.randrange(0, 5))
        rel = conjugation_relator(args.strands, rng.randrange(count))
        pos = rng.randrange(0, len(a.letters) + 1)
        before = braid_compare(a, b)
        after = braid_compare(insert_relator(a, rel, pos), b)
        if before is not after:
            relator_failures.append(
                {"a": format_braid(a), "b": format_braid(b), "relator": format_braid(rel)}
            )

    passed = all(r.passed for r in reports) and not relator_failures
    if args.json:
        print(
            json.dumps(
                {
                    "seed": args.seed,
                    "harnesses": [_report_obj(r) for r in reports],
                    "relator_insertions": {
                        "samples": relator_samples,
                        "failures": relator_failures,
                    },
                    "passed": passed,
                },
                sort_keys=True,
            )
        )
    else:
        print(f"seed: {args.seed}")
        for report in reports:
            status = "PASS" if report.passed else "FAIL"
            print(
                f"{report.oracle}: {report.samples} samples, "
                f"{len(report.violations)} violations -- {status}"
            )
            for violation in report.violations:
                print(f"  {violation.axiom}: {violation.detail}")
        status = "PASS" if not relator_failures else "FAIL"
        print(
            f"relator-insertion invariance: {relator_samples} samples, "
            f"{len(relator_failures)} violations -- {status}"
        )
        print("PASS" if passed else "FAIL")
    return 0 if passed else 2


# ---------------------------------------------------------------------------
# Wiring.


def _build_parser() -> _Parser:
    parser = _Parser(prog="biorder", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="integer-coefficient series of a word")
    p.add_argument("word", help="free-group word, e.g. 'x1 x2^-1' or 'abA'")
    p.add_argument("--rank", type=int, default=None, help="number of generators")
    p.add_argument("--degree", type=int, default=None, help="truncation degree")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("compare", help="order two words (or two braids)")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--rank", type=int, default=None)
    p.add_argument(
        "--method",
        choices=["magnus", "classes", "holonomy"],
        default="magnus",
        help="exact series scan, nilpotent-quotient ladder, or numerics",
    )
    p.add_argument("--max-class", type=int, default=None, dest="max_class")
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--braid", action="store_true", help="inputs are braid words")
    p.add_argument("--strands", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("comb", help="fibration normal form of a pure braid")
    p.add_argument("braid", help="braid word, e.g. 'A12 A13^-1'")
    p.add_argument("--strands", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_comb)

    p = sub.add_parser("invariants", help="combing-coefficient invariants of a braid")
    p.add_argument("braid")
    p.add_argument("--strands", type=int, default=None)
    p.add_argument("--factor", type=int, required=True, help="fibration level")
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser(
        "singular-sum", help="alternating sum of an invariant over resolutions"
    )
    p.add_argument("braid", help="braid word with *A.. marking double points")
    p.add_argument("--strands", type=int, default=None)
    p.add_argument("--factor", type=int, required=True)
    p.add_argument("--monomial", required=True, help="comma-separated indices, e.g. 1,1")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_singular_sum)

    p = sub.add_parser("holonomy", help="numerical loop holonomy of a word")
    p.add_argument("word")
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--allow-deep", action="store_true", dest="allow_deep")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_holonomy)

    p = sub.add_parser("verify", help="randomized order-axiom checks")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--strands", type=int, default=3)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, inside the guard
        return code
    except BrokenPipeError:
        # The reader went away (``biorder ... | head``).  Point stdout at
        # devnull so the flush at interpreter shutdown cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (_UsageError, ValueError) as exc:  # the syntax errors are ValueErrors
        print(f"biorder: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help and friends
        code = exc.code
        return int(code) if code is not None else 0


if __name__ == "__main__":
    sys.exit(main())
