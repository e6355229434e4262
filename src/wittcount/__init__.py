"""Exact arithmetic for counting cyclic p-power extensions of F_q(T).

Layers: finite fields and polynomials (``fields``, ``polys``,
``rationals``), truncated p-typical Witt vectors (``witt``), generator
normal forms and conductors (``asw``), closed-form counts with
brute-force oracle recounts (``counting``), Carlitz-module polynomials
(``carlitz``), and the verification harness (``checks``, ``cli``).
"""

from .asw import (
    AswGenerator,
    AswNormalForm,
    InfinityBehavior,
    conductor_exponent,
    hasse_normalize,
    infinity_behavior,
    is_single_ramified_form,
    is_normal_form,
    split_constants,
    witt_normalize,
)
from .carlitz import CarlitzPoly, carlitz_compose_check, carlitz_eval, carlitz_gcd_check, carlitz_poly
from .counting import (
    CountParams,
    VerificationReport,
    ln1_bound,
    lemma42_ceil,
    lemma42_floor,
    oracle_as_classes,
    oracle_asw_classes,
    oracle_cyclic_subgroups,
    ratio_check,
    s_n,
    t1,
    v_n,
    w,
)
from .fields import FiniteField, FqElem, field
from .polys import (
    CapExceededError,
    Polynomial,
    canonical_prime,
    factor,
    is_irreducible,
    monic_irreducibles,
    parse_poly,
    phi,
)
from .rationals import RationalFunction, parse_rational, partial_fractions
from .witt import WittVector, parse_witt, witt_tables

__version__ = "0.1.0"

__all__ = [
    "AswGenerator", "AswNormalForm", "CapExceededError", "CarlitzPoly", "CountParams",
    "FiniteField", "FqElem", "InfinityBehavior", "Polynomial", "RationalFunction",
    "VerificationReport", "WittVector",
    "canonical_prime", "carlitz_compose_check", "carlitz_eval", "carlitz_gcd_check",
    "carlitz_poly", "conductor_exponent", "factor", "field",
    "hasse_normalize", "infinity_behavior",
    "is_single_ramified_form", "is_irreducible", "is_normal_form", "lemma42_ceil", "lemma42_floor",
    "ln1_bound", "monic_irreducibles", "oracle_as_classes", "oracle_asw_classes",
    "oracle_cyclic_subgroups", "parse_poly", "parse_rational", "parse_witt",
    "partial_fractions", "phi", "ratio_check", "s_n", "split_constants", "t1", "v_n",
    "w", "witt_normalize", "witt_tables",
]
