"""Bi-invariant orderings of free and pure braid groups, with numerics.

The package has five working layers:

- ``series``: exact truncated non-commutative power series and the DegLex
  scan that the Magnus ordering runs on them.
- ``freegroup``: free-group words, the Magnus expansion, the Magnus
  ordering, and lower-central-series depth.
- ``ordtools``: the nilpotent-class ladder (iterated extensions along the
  lower central series) and a property-testing harness for ordering axioms.
- ``braid``: pure braid words, the Artin action, combing coordinates, the
  resulting bi-invariant ordering, and finite-type invariants.
- ``chen``: a numerical iterated-integral model whose holonomy comparison
  cross-checks the exact Magnus ordering.

``cli`` exposes the lot as the ``biorder`` command.
"""

from .braid import (
    CombedBraid,
    PureBraidWord,
    SingularBraid,
    artin_automorphism,
    braid_compare,
    braid_equal,
    braid_witness,
    comb,
    fiber_coordinates,
    format_braid,
    ft_invariant,
    parse_braid,
    parse_singular_braid,
    singular_alternating_sum,
)
from .chen import (
    HolonomySeries,
    LoopModel,
    holonomy_compare,
    holonomy_series,
    iterated_integral,
)
from .freegroup import (
    FreeWord,
    format_word,
    lcs_depth,
    magnus_compare,
    magnus_expand,
    magnus_witness,
    parse_word,
)
from .ordtools import GroupOrderOracle, axiom_harness, iterated_extension_compare
from .series import Monomial, TruncSeries, Verdict

__all__ = [
    "CombedBraid",
    "FreeWord",
    "GroupOrderOracle",
    "HolonomySeries",
    "LoopModel",
    "Monomial",
    "PureBraidWord",
    "SingularBraid",
    "TruncSeries",
    "Verdict",
    "artin_automorphism",
    "axiom_harness",
    "braid_compare",
    "braid_equal",
    "braid_witness",
    "comb",
    "fiber_coordinates",
    "format_braid",
    "format_word",
    "ft_invariant",
    "holonomy_compare",
    "holonomy_series",
    "iterated_extension_compare",
    "iterated_integral",
    "lcs_depth",
    "magnus_compare",
    "magnus_expand",
    "magnus_witness",
    "parse_braid",
    "parse_singular_braid",
    "parse_word",
    "singular_alternating_sum",
]

__version__ = "0.1.0"
