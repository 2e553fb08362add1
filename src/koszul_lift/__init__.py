"""Exact-arithmetic lifting of graded free complexes modulo a regular
sequence, with the homotopy-family solver and the product-complex
construction built on top of it.

The pipeline: take a complex of free modules over R = Q/(f_1, ..., f_c),
lift its differentials to Q, solve for the system of higher homotopies,
and assemble the lift and homotopies into a complex of free Q-modules
whose reduction back to R has the same homology as the input.

The names below are the documented entry points; everything else lives in
the submodules (``koszul_lift.algebra``, ``koszul_lift.complexes``, ...).
"""

from .algebra import GradedRing, PolyMatrix
from .assembly import (
    assemble,
    epsilon_C,
    minimality_and_lifting_report,
    rank_report,
)
from .complexes import (
    FreeComplex,
    check_complex,
    homology_dims,
    lift_to_Q,
    minimize,
    reduce_to_R,
)
from .errors import (
    DegreeBoundTooLowError,
    InvalidInputError,
    KoszulLiftError,
    LevelTooLowError,
    ParseError,
)
from .fields import GF, QQ
from .homotopy import eisenbud_operator_checks, solve_homotopies
from .koszul import check_regular_up_to
from .linalg import backend_name
from .resolve import Presentation, resolve_over_R

__version__ = "0.1.0"

__all__ = [
    "DegreeBoundTooLowError",
    "FreeComplex",
    "GF",
    "GradedRing",
    "InvalidInputError",
    "KoszulLiftError",
    "LevelTooLowError",
    "ParseError",
    "PolyMatrix",
    "Presentation",
    "QQ",
    "assemble",
    "backend_name",
    "check_complex",
    "check_regular_up_to",
    "eisenbud_operator_checks",
    "epsilon_C",
    "homology_dims",
    "lift_to_Q",
    "minimality_and_lifting_report",
    "minimize",
    "rank_report",
    "reduce_to_R",
    "resolve_over_R",
    "solve_homotopies",
    "__version__",
]
