"""Exact computations in the algebra generated by a nilpotent element x
and a partner q with xqx = x and qxq = q.

The package provides confluent rewriting to normal forms, exact element
arithmetic over prime fields or the rationals, the structural analysis of
products of two families (interface types, the top word of the expansion
and its classification, the unit-regularity search), and the faithful
2x2 matrix realization over a free algebra together with its degenerate
two-nilpotent variant.
"""

from .analysis import (
    check_tau_forms_families, check_tau_uniqueness_families, left_shape_words,
    right_shape_words, search_unit_regular_witness)
from .elements import Algebra, AlgebraElement
from .fields import QQ, PrimeField
from .matrixrep import MatrixElement, MatrixModel, verify_phi_faithful
from .rewriting import (
    IDENTITY_WORD, ReductionOutcome, Word, ab_system, enumerate_basis,
    parse_word, reduce, xq_system)

__version__ = "0.1.0"

__all__ = [
    "Algebra", "AlgebraElement", "IDENTITY_WORD", "MatrixElement",
    "MatrixModel", "PrimeField", "QQ", "ReductionOutcome", "Word",
    "ab_system", "check_tau_forms_families", "check_tau_uniqueness_families",
    "enumerate_basis", "left_shape_words", "parse_word", "reduce",
    "right_shape_words", "search_unit_regular_witness", "verify_phi_faithful",
    "xq_system",
]
