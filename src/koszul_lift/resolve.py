"""Minimal graded free resolutions over R = Q/(f), degree by degree.

Every step works in R-coordinates.  The degree-d piece of a free R-module
with given twists has, on each generator of twist a, the basis
``GradedRing.quotient_basis(d - a)`` of R_{d-a}, and ``algebra.quotient_sums``
writes a module map on such pieces.  At step n the syzygies of degree d
are the kernel of d_{n-1} read over R on degree-d pieces
(``linalg.nullspace_columns`` of ``algebra.quotient_columns``): exactly the
degree-d elements of F_{n-1} tensor R that d_{n-1} sends to zero in
F_{n-2} tensor R.  Over Q the integer columns of source generator j are
the rational ones times ``algebra.column_denominator`` of d_{n-1}'s column
j, times one integer common to all columns.  The kernel of M*D is
D^-1 * ker M, so each kernel coordinate is multiplied by its generator's
``column_denominator``.

Every step picks its generators by one graded Nakayama rule, degree by
degree: a candidate becomes a generator exactly when it is not in the span
of the multiples of the generators already chosen at that step and of the
candidates before it.  The multiples of a chosen generator g of degree e
are g times the basis of R_{d-e}, the columns of ``quotient_columns``, and
``linalg.extend_pivots`` makes the greedy left-to-right choice against
them.  At step one the candidates are the presentation's columns read over
R, and the picked columns themselves become d_1.  Later the candidates are
the syzygy vectors, and each pick becomes the column of its coefficients on
the ``quotient_basis`` monomials (``algebra.coords_to_columns``), so every
entry of d_n for n >= 2 is a normal form.  Only the finished differentials
are ``PolyMatrix``.  Free variables never enter: the kernel basis is the
one of the reduced row echelon form and pivot selection is the greedy
echelon choice, both fixed by the column order, so the output is
deterministic.

The search is bounded by ``degree_bound``; if new generators still appear
at the bound itself the truncation is unsafe and DegreeBoundTooLowError is
raised.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .algebra import GradedRing, PolyMatrix, column_denominator, coords_to_columns
from .algebra import exact_int, json_int, matrix_from_json, matrix_to_json
from .algebra import quotient_columns, quotient_module_dim
from .complexes import FreeComplex
from .errors import DegreeBoundTooLowError, InvalidInputError, ParseError


@dataclass
class Presentation:
    """A graded R-module given by generators and relations: coker of a
    matrix whose column j is a relation among generators with the given
    twists.  Entries must be homogeneous with every column of a single
    degree, and must avoid units (present the module minimally)."""

    twists: tuple
    relations: PolyMatrix

    def __post_init__(self):
        self.twists = tuple(exact_int(a, "generator twist") for a in self.twists)
        if self.relations.nrows != len(self.twists):
            raise InvalidInputError(
                f"relation matrix has {self.relations.nrows} rows for "
                f"{len(self.twists)} generators"
            )

    def column_degrees(self, ring: GradedRing):
        """Forced degree of each relation column; None for zero columns."""
        degs = []
        for j, column in enumerate(self.relations.column_nonzeros()):
            deg = None
            for i, p in column:
                p = ring.normal_form(p)
                if p.is_zero():
                    continue
                e = p.degree()
                if e is None:
                    raise InvalidInputError(
                        f"relation entry ({i},{j}) is not homogeneous"
                    )
                d = e + self.twists[i]
                if deg is None:
                    deg = d
                elif deg != d:
                    raise InvalidInputError(
                        f"column {j} mixes degrees {deg} and {d}"
                    )
                if e == 0:
                    raise InvalidInputError(
                        f"unit entry at ({i},{j}); present the module "
                        "minimally"
                    )
            degs.append(deg)
        return degs

    def to_json_dict(self) -> dict:
        return {
            "twists": list(self.twists),
            "relations": matrix_to_json(self.relations),
        }

    @classmethod
    def from_json_dict(cls, ring: GradedRing, data) -> "Presentation":
        if not isinstance(data, dict):
            raise ParseError("presentation JSON must be an object")
        try:
            raw_twists = data["twists"]
            raw = data["relations"]
        except KeyError as exc:
            raise ParseError(f"presentation JSON missing key: {exc}") from exc
        if not isinstance(raw_twists, list):
            raise ParseError("presentation twists must be a list")
        twists = tuple(json_int(a, "presentation twist") for a in raw_twists)
        return cls(
            twists,
            matrix_from_json(ring, raw, len(twists), None, "presentation relations"),
        )


def _columns_matrix(ring, nrows, cols):
    """The PolyMatrix whose column k has the nonzero cells ``cols[k]``, a
    list of (row, entry) pairs."""
    rows = [{} for _ in range(nrows)]
    for k, col in enumerate(cols):
        for i, p in col:
            rows[i][k] = p
    return PolyMatrix._from_sparse(nrows, len(cols), rows, ring.zero)


def _picks(ring, twists, degs, cols, d, vecs):
    """Graded Nakayama in degree d: the indices of the vectors ``vecs``, in
    R-coordinates on the degree-d piece of the free R-module with the given
    twists, that are not in the span of the multiples of the generators
    ``cols`` (of degrees ``degs``) chosen so far and of the vectors before
    them."""
    if not vecs:
        return []
    base = quotient_columns(ring, cols, degs, twists, d)
    return linalg.extend_pivots(ring.field, base, vecs, quotient_module_dim(ring, twists, d))


def _relation_generators(ring, presentation, col_degs):
    """Degrees and columns, as (row, nonzero entry) pairs, of a minimal
    choice among the presentation's columns: in each degree the columns
    read over R are the candidates, and a picked column is kept as it is
    given, in normal form."""
    twists = presentation.twists
    columns = [
        [(i, q) for i, p in col if (q := ring.normal_form(p)).terms]
        for col in presentation.relations.column_nonzeros()
    ]
    degs, cols = [], []
    for d in sorted(set(col_degs) - {None}):
        here = [columns[j] for j, dj in enumerate(col_degs) if dj == d]
        vecs = quotient_columns(ring, here, [d] * len(here), twists, d)
        picked = _picks(ring, twists, degs, cols, d, vecs)
        cols += [here[k] for k in picked]
        degs += [d] * len(picked)
    return degs, cols


def _syzygy_generators(ring, mat, src_twists, tgt_twists, degree_bound):
    """Degrees and columns of minimal generators of the syzygies of ``mat``
    over R through ``degree_bound``: in each degree the kernel of ``mat``
    read over R, in R-coordinates, is the candidate list."""
    field = ring.field
    columns = mat.column_nonzeros()
    dens = None if field.char else [column_denominator(col) for col in columns]
    degs, cols = [], []
    for d in range(min(src_twists, default=degree_bound + 1), degree_bound + 1):
        bases = [ring.quotient_basis(d - a)[0] for a in src_twists]
        sums = quotient_columns(ring, columns, src_twists, tgt_twists, d)
        null = linalg.nullspace_columns(field, sums, quotient_module_dim(ring, tgt_twists, d))
        if dens:
            scale = [den for den, basis in zip(dens, bases) for _ in basis]
            null = [{i: v * scale[i] for i, v in vec.items()} for vec in null]
        picked = _picks(ring, src_twists, degs, cols, d, null)
        cols += coords_to_columns(ring, bases, [null[k] for k in picked])
        degs += [d] * len(picked)
    return degs, cols


def resolve_over_R(
    ring: GradedRing,
    presentation: Presentation,
    length: int,
    degree_bound: int,
) -> FreeComplex:
    """Minimal free resolution of coker(relations) over R out to homological
    position ``length``, with syzygy generators searched through internal
    degree ``degree_bound``.  A ``length`` or ``degree_bound`` that is not
    an int is an InvalidInputError."""
    length = exact_int(length, "length")
    degree_bound = exact_int(degree_bound, "degree bound")
    if length < 1:
        raise InvalidInputError("length must be >= 1")
    f0_twists = presentation.twists
    col_degs = presentation.column_degrees(ring)
    max_given = max((d for d in col_degs if d is not None), default=0)
    if degree_bound < max(max_given, max(f0_twists, default=0)) + 1:
        raise DegreeBoundTooLowError(
            f"degree bound {degree_bound} cannot even hold the presentation"
        )

    twists = {0: f0_twists}
    diffs = {}
    for step in range(1, length + 1):
        src_twists = twists[step - 1]
        if step == 1:
            degs, cols = _relation_generators(ring, presentation, col_degs)
        else:
            degs, cols = _syzygy_generators(
                ring, diffs[step - 1], src_twists, twists[step - 2], degree_bound
            )
        if degs and degs[-1] == degree_bound:
            raise DegreeBoundTooLowError(
                f"new syzygy generators still appear at degree "
                f"{degree_bound} (position {step}); raise the bound"
            )
        twists[step] = tuple(degs)
        diffs[step] = _columns_matrix(ring, len(src_twists), cols)

    return FreeComplex(
        ring,
        "R",
        (0, length),
        twists,
        diffs,
        support="bounded_below",
    )
