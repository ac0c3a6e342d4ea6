"""The nilpotent-class ladder and an axiom-testing harness for orders.

``iterated_extension_compare`` orders a free group through the tower of its
nilpotent quotients: at each class it compares images in the quotient and,
on a tie, passes to the next layer, reading each layer off the Magnus
expansion of a^-1 b degree by degree (``first_difference``).

``axiom_harness`` samples an ordering oracle for totality, antisymmetry,
transitivity, and two-sided invariance, and reports violations as data
rather than raising, so deliberately broken oracles can be inspected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from .freegroup import FreeWord, first_difference, format_word, magnus_compare
from .series import Verdict


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

    ``compare`` returns a Verdict; ``multiply`` is the group structure the
    harness needs to phrase the invariance axioms.
    """

    name: str
    compare: Callable[[Any, Any], Verdict]
    multiply: Callable[[Any, Any], Any]
    describe: Callable[[Any], str] = str  # how witnesses are rendered in reports


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


def magnus_order_oracle(rank: int) -> GroupOrderOracle:
    """The Magnus ordering of F_rank packaged for the harness."""
    return GroupOrderOracle(
        name=f"magnus/F{rank}",
        compare=magnus_compare,
        multiply=lambda a, b: a * b,
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
