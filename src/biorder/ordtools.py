"""Order combinators for group extensions, plus an axiom-testing harness.

Two ways of ordering a group built from ordered pieces:

- ``extension_compare``: the short-exact-sequence rule — compare images in
  the base, and on a tie compare the fiber difference against the identity.
- ``iterated_extension_compare``: the same rule applied along the whole
  lower-central tower of a free group at once, reading each layer off the
  Magnus expansion of a^-1 b degree by degree (``first_difference``).

``axiom_harness`` samples an ordering oracle for totality, antisymmetry,
transitivity, and two-sided invariance, and reports violations as data
rather than raising, so deliberately broken oracles can be inspected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from .freegroup import FreeWord, first_difference
from .series import Verdict


class FiberError(ValueError):
    """An element landed outside the fiber; the projection/section pair is broken."""


class UndecidedAtClass(Exception):
    """Two distinct elements agree through every tested nilpotent class."""

    def __init__(self, max_class: int):
        super().__init__(
            f"elements distinct but not separated through class {max_class}"
        )
        self.max_class = max_class


@dataclass(frozen=True)
class GroupOrderOracle:
    """A group with a candidate left-invariant (or bi-invariant) order.

    ``compare`` returns a Verdict; ``multiply``/``invert``/``identity``
    supply just enough group structure for the harness to phrase the
    invariance axioms.
    """

    name: str
    compare: Callable[[Any, Any], Verdict]
    multiply: Callable[[Any, Any], Any]
    invert: Callable[[Any], Any]
    identity: Any
    describe: Callable[[Any], str] = str  # how witnesses are rendered in reports


def extension_compare(
    g: Any,
    h: Any,
    *,
    project: Callable[[Any], Any],
    compare_base: Callable[[Any, Any], Verdict],
    fiber_difference: Callable[[Any, Any], Any],
    fiber_identity: Any,
    compare_fiber: Callable[[Any, Any], Verdict],
) -> Verdict:
    """Order a group from an ordered base and an ordered fiber.

    g < h when project(g) < project(h) in the base; on a base tie the
    difference g^-1 h lies in the fiber (``fiber_difference`` must map it
    there, raising FiberError otherwise) and the verdict is that of
    identity vs g^-1 h under the fiber order.  The result is a genuine
    bi-invariant order whenever the base and fiber orders are bi-invariant
    and the fiber order is preserved by conjugation by the whole group;
    the harness can spot-check that premise but not prove it.
    """
    base = compare_base(project(g), project(h))
    if base is not Verdict.EQUAL:
        return base
    return compare_fiber(fiber_identity, fiber_difference(g, h))


def iterated_extension_compare(a: FreeWord, b: FreeWord, max_class: int) -> Verdict:
    """Order F_n through the tower of nilpotent quotients.

    a and b agree in the class-(k-1) quotient exactly when M(a^-1 b) - 1
    vanishes below degree k; at the first class k where it does not, the
    DegLex-first nonzero degree-k coefficient decides (positive means
    a < b).  ``first_difference`` climbs k = 1, 2, ... on a^-1 b with
    ``max_class`` as its ceiling.  Raises UndecidedAtClass for distinct
    words that every tested class misses, i.e. when the depth of a^-1 b
    exceeds ``max_class``.
    """
    if a.rank != b.rank:
        raise ValueError(f"rank mismatch: {a.rank} vs {b.rank}")
    if max_class < 1:
        raise ValueError(f"max_class must be >= 1, got {max_class}")
    if a.letters == b.letters:
        return Verdict.EQUAL
    found = first_difference(a.inverse() * b, max_class)
    if found is None:
        raise UndecidedAtClass(max_class)
    return Verdict.LESS if found[2] > 0 else Verdict.GREATER


# ---------------------------------------------------------------------------
# Axiom harness.


@dataclass(frozen=True)
class Violation:
    """One observed failure of an ordering axiom, with its witnesses."""

    axiom: str
    witnesses: tuple[str, ...]
    detail: str

    def to_json_obj(self) -> dict:
        return {
            "axiom": self.axiom,
            "witnesses": list(self.witnesses),
            "detail": self.detail,
        }


@dataclass
class HarnessReport:
    """Outcome of sampling an oracle; empty ``violations`` means a pass."""

    oracle: str
    samples: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_lines(self) -> str:
        lines = [
            json.dumps(
                {
                    "oracle": self.oracle,
                    "samples": self.samples,
                    "violations": len(self.violations),
                    "passed": self.passed,
                },
                sort_keys=True,
            )
        ]
        for violation in self.violations:
            lines.append(json.dumps(violation.to_json_obj(), sort_keys=True))
        return "\n".join(lines)


def magnus_order_oracle(rank: int) -> GroupOrderOracle:
    """The Magnus ordering of F_rank packaged for the harness."""
    from .freegroup import format_word, magnus_compare

    return GroupOrderOracle(
        name=f"magnus/F{rank}",
        compare=magnus_compare,
        multiply=lambda a, b: a * b,
        invert=lambda a: a.inverse(),
        identity=FreeWord.identity(rank),
        describe=format_word,
    )


def word_length_oracle(rank: int) -> GroupOrderOracle:
    """Compare by reduced word length: deliberately NOT invariant.

    Kept as a harness fixture; cancellation under translation produces
    left- and right-invariance violations that the report should surface.
    """
    from .freegroup import format_word

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
        invert=lambda a: a.inverse(),
        identity=FreeWord.identity(rank),
        describe=format_word,
    )


def _transitivity_ok(v_ab: Verdict, v_bc: Verdict, v_ac: Verdict) -> bool:
    if v_ab is Verdict.GREATER or v_bc is Verdict.GREATER:
        return True  # premise a <= b <= c not met
    if v_ab is Verdict.EQUAL and v_bc is Verdict.EQUAL:
        return v_ac is Verdict.EQUAL
    return v_ac is Verdict.LESS


def axiom_harness(
    oracle: GroupOrderOracle,
    triples: Iterable[tuple[Any, Any, Any]],
    *,
    max_violations: int = 25,
) -> HarnessReport:
    """Check ordering axioms on sample triples (a, b, c).

    Per triple: verdict flip-consistency for (a, b) (totality plus
    antisymmetry), reflexivity of a, transitivity along a <= b <= c, and
    left/right translation invariance by c.  Stops recording after
    ``max_violations`` violations but keeps counting samples.
    """
    report = HarnessReport(oracle=oracle.name)
    show = oracle.describe

    def record(axiom: str, witnesses: tuple[Any, ...], detail: str) -> None:
        if len(report.violations) < max_violations:
            report.violations.append(
                Violation(axiom, tuple(show(w) for w in witnesses), detail)
            )

    for a, b, c in triples:
        report.samples += 1
        v_ab = oracle.compare(a, b)
        v_ba = oracle.compare(b, a)
        if v_ba is not v_ab.flipped():
            record(
                "antisymmetry",
                (a, b),
                f"compare(a,b)={v_ab.value} but compare(b,a)={v_ba.value}",
            )
        if oracle.compare(a, a) is not Verdict.EQUAL:
            record("reflexivity", (a,), "compare(a,a) is not equal")
        v_bc = oracle.compare(b, c)
        v_ac = oracle.compare(a, c)
        if not _transitivity_ok(v_ab, v_bc, v_ac):
            record(
                "transitivity",
                (a, b, c),
                f"compare(a,b)={v_ab.value}, compare(b,c)={v_bc.value}, "
                f"compare(a,c)={v_ac.value}",
            )
        v_left = oracle.compare(oracle.multiply(c, a), oracle.multiply(c, b))
        if v_left is not v_ab:
            record(
                "left-invariance",
                (a, b, c),
                f"compare(a,b)={v_ab.value} but compare(ca,cb)={v_left.value}",
            )
        v_right = oracle.compare(oracle.multiply(a, c), oracle.multiply(b, c))
        if v_right is not v_ab:
            record(
                "right-invariance",
                (a, b, c),
                f"compare(a,b)={v_ab.value} but compare(ac,bc)={v_right.value}",
            )
    return report


def conjugation_invariance_report(
    oracle: GroupOrderOracle,
    pairs_with_conjugators: Iterable[tuple[Any, Any, Any]],
    *,
    conjugate: Callable[[Any, Any], Any] | None = None,
    max_violations: int = 25,
) -> HarnessReport:
    """Spot-check that the order survives conjugation h -> g h g^-1.

    ``conjugate(g, h)`` defaults to multiplication inside the oracle's own
    group; pass a callable when the conjugating elements live in a larger
    group acting on this one (the extension-order premise).
    """
    if conjugate is None:

        def conjugate(g: Any, h: Any) -> Any:
            return oracle.multiply(oracle.multiply(g, h), oracle.invert(g))

    report = HarnessReport(oracle=f"{oracle.name}/conjugation")
    for a, b, g in pairs_with_conjugators:
        report.samples += 1
        v = oracle.compare(a, b)
        v_conj = oracle.compare(conjugate(g, a), conjugate(g, b))
        if v_conj is not v and len(report.violations) < max_violations:
            report.violations.append(
                Violation(
                    "conjugation-invariance",
                    (oracle.describe(a), oracle.describe(b), oracle.describe(g)),
                    f"compare(a,b)={v.value} but compare(gag^-1,gbg^-1)={v_conj.value}",
                )
            )
    return report
