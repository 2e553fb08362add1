"""Exact-arithmetic lifting of graded free complexes modulo a regular
sequence, with the homotopy-family solver and the product-complex
construction built on top of it.

The pipeline: take a complex of free modules over R = Q/(f_1, ..., f_c),
lift its differentials to Q, solve for the system of higher homotopies,
and assemble the lift and homotopies into a complex of free Q-modules
whose reduction back to R has the same homology as the input.
"""

from .algebra import GradedRing, Poly, PolyMatrix, block_matrix, parse_poly
from .assembly import (
    BlockInfo,
    EpsilonReport,
    MinimalityReport,
    ProductComplex,
    RankReport,
    TransferReport,
    VandermondeReport,
    assemble,
    assemble_codim1,
    epsilon_C,
    minimality_and_lifting_report,
    rank_report,
    vandermonde_identity,
)
from .builtin_examples import (
    EXAMPLES,
    get_example,
    lifted_koszul_pair,
    paper_5_2,
    periodic_factorization,
)
from .complexes import (
    ComplexReport,
    FreeComplex,
    check_complex,
    homology_dims,
    is_minimal,
    lift_to_Q,
    reduce_to_R,
)
from .errors import (
    DegreeBoundTooLowError,
    InvalidInputError,
    KoszulLiftError,
    LevelTooLowError,
    ParseError,
    WrongCodimensionError,
)
from .fields import GF, QQ, Field, PrimeField, RationalField, field_from_spec
from .homotopy import (
    EisenbudReport,
    HomotopyFamily,
    RelationReport,
    eisenbud_operator_checks,
    solve_homotopies,
    verify_relation,
)
from .koszul import (
    MAX_C,
    RegularityReport,
    check_regular_up_to,
    koszul_complex,
    koszul_differential,
    wedge,
)
from .linalg import backend_name
from .resolve import Presentation, resolve_over_R
from .samples import (
    random_finite_complex,
    random_homogeneous,
    random_presentation,
    random_regular_ring,
    random_resolved_complex,
)

__version__ = "0.1.0"

__all__ = [
    "BlockInfo",
    "ComplexReport",
    "DegreeBoundTooLowError",
    "EisenbudReport",
    "EpsilonReport",
    "EXAMPLES",
    "Field",
    "FreeComplex",
    "GF",
    "GradedRing",
    "HomotopyFamily",
    "InvalidInputError",
    "KoszulLiftError",
    "LevelTooLowError",
    "MAX_C",
    "MinimalityReport",
    "ParseError",
    "Poly",
    "PolyMatrix",
    "Presentation",
    "PrimeField",
    "ProductComplex",
    "QQ",
    "RankReport",
    "RationalField",
    "RegularityReport",
    "RelationReport",
    "TransferReport",
    "VandermondeReport",
    "WrongCodimensionError",
    "assemble",
    "assemble_codim1",
    "backend_name",
    "block_matrix",
    "check_complex",
    "check_regular_up_to",
    "eisenbud_operator_checks",
    "epsilon_C",
    "field_from_spec",
    "get_example",
    "homology_dims",
    "is_minimal",
    "koszul_complex",
    "koszul_differential",
    "lift_to_Q",
    "lifted_koszul_pair",
    "minimality_and_lifting_report",
    "paper_5_2",
    "parse_poly",
    "periodic_factorization",
    "random_finite_complex",
    "random_homogeneous",
    "random_presentation",
    "random_regular_ring",
    "random_resolved_complex",
    "rank_report",
    "reduce_to_R",
    "resolve_over_R",
    "solve_homotopies",
    "vandermonde_identity",
    "verify_relation",
    "wedge",
    "__version__",
]
