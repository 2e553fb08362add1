"""Minimal graded free resolutions over R = Q/(f), degree by degree.

Everything happens in Q-coordinates: the degree-d piece of a free
R-module with given twists is V_d/W_d where W_d is the span of the
f-multiples.  Every step picks its generators by one graded Nakayama rule,
degree by degree: a candidate becomes a generator exactly when it adds a
pivot beyond W_d plus the multiples of every generator already chosen at
that step.  The candidates are the presentation columns at step one and,
later, the source parts of a nullspace basis of the [matrix | span] block.
Free variables never enter: pivot selection is the greedy left-to-right
echelon choice, which depends only on the span of the base, so the output
is deterministic.

The search is bounded by ``degree_bound``; if new generators still appear
at the bound itself the truncation is unsafe and DegreeBoundTooLowError is
raised.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .algebra import GradedRing, PolyMatrix, graded_matrix_rows, module_dim
from .complexes import (
    FreeComplex,
    coords_to_column,
    module_span_columns,
    module_span_rows,
)
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
        self.twists = tuple(int(a) for a in self.twists)
        if self.relations.nrows != len(self.twists):
            raise InvalidInputError(
                f"relation matrix has {self.relations.nrows} rows for "
                f"{len(self.twists)} generators"
            )

    def column_degrees(self, ring: GradedRing):
        """Forced degree of each relation column; None for zero columns."""
        degs = []
        for j in range(self.relations.ncols):
            deg = None
            for i in range(self.relations.nrows):
                p = ring.normal_form(self.relations.rows[i][j])
                if p.is_zero():
                    continue
                if not p.is_homogeneous():
                    raise InvalidInputError(
                        f"relation entry ({i},{j}) is not homogeneous"
                    )
                d = p.homogeneous_degree() + self.twists[i]
                if deg is None:
                    deg = d
                elif deg != d:
                    raise InvalidInputError(
                        f"column {j} mixes degrees {deg} and {d}"
                    )
                if p.homogeneous_degree() == 0:
                    raise InvalidInputError(
                        f"unit entry at ({i},{j}); present the module "
                        "minimally"
                    )
            degs.append(deg)
        return degs

    def to_json_dict(self) -> dict:
        return {
            "twists": list(self.twists),
            "relations": [[str(p) for p in row] for row in self.relations.rows],
        }

    @classmethod
    def from_json_dict(cls, ring: GradedRing, data) -> "Presentation":
        try:
            twists = tuple(int(a) for a in data["twists"])
            raw = data["relations"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"presentation JSON missing key: {exc}") from exc
        except ValueError as exc:
            raise ParseError(f"bad presentation twist: {exc}") from exc
        if not isinstance(raw, list) or not all(isinstance(row, list) for row in raw):
            raise ParseError("presentation relations must be a list of rows")
        ncols = len(raw[0]) if raw else 0
        if len(raw) != len(twists) or any(len(row) != ncols for row in raw):
            raise ParseError(
                f"presentation relations must have {len(twists)} rows of "
                "equal length, one per twist"
            )
        rows = [[ring.parse(cell) for cell in row] for row in raw]
        return cls(twists, PolyMatrix(len(twists), ncols, rows))


def _multiple_columns(ring, cols, col_degrees, twists, d):
    """Coordinate columns, in the degree-d piece of the free module with the
    given twists, of every monomial multiple of the polynomial columns
    ``cols`` (column j homogeneous of degree ``col_degrees[j]``)."""
    mat = PolyMatrix(
        len(twists), len(cols), [[col[i] for col in cols] for i in range(len(twists))]
    )
    return list(zip(*graded_matrix_rows(ring, mat, col_degrees, twists, d)))


def _minimal_generators(ring, twists, candidates):
    """Graded Nakayama, one degree at a time.

    ``candidates`` yields (d, coordinate vectors in the degree-d piece of the
    free module with the given twists) in increasing d.  A vector becomes a
    generator exactly when it is not in W_d plus the multiples of the
    generators already chosen plus the vectors before it.  Returns the
    generators' degrees and polynomial columns."""
    degs, cols = [], []
    for d, vecs in candidates:
        base = module_span_columns(ring, twists, d) + _multiple_columns(
            ring, cols, degs, twists, d
        )
        dim = module_dim(ring, twists, d)
        for k in linalg.extend_pivots(ring.field, base, vecs, dim):
            degs.append(d)
            cols.append(coords_to_column(ring, twists, d, vecs[k]))
    return degs, cols


def _relation_candidates(ring, presentation, col_degs):
    """The presentation columns of each degree, as coordinate vectors."""
    twists = presentation.twists
    rows = presentation.relations.rows
    for d in sorted(set(col_degs) - {None}):
        here = [[row[j] for row in rows] for j, dj in enumerate(col_degs) if dj == d]
        yield d, _multiple_columns(ring, here, [d] * len(here), twists, d)


def _syzygy_candidates(ring, mat, src_twists, tgt_twists, degree_bound):
    """Source parts of a nullspace basis of [mat | W] in each degree: they
    span W_d together with lifts of the kernel of mat over R."""
    start = min(src_twists) if src_twists else degree_bound + 1
    for d in range(start, degree_bound + 1):
        ns = module_dim(ring, src_twists, d)
        if ns == 0:
            continue
        rows = graded_matrix_rows(ring, mat, src_twists, tgt_twists, d)
        for row, wrow in zip(rows, module_span_rows(ring, tgt_twists, d)):
            row.extend(wrow)
        null = linalg.nullspace(ring.field, rows, len(rows[0]) if rows else ns)
        yield d, [vec[:ns] for vec in null]


def resolve_over_R(
    ring: GradedRing,
    presentation: Presentation,
    length: int,
    degree_bound: int,
) -> FreeComplex:
    """Minimal free resolution of coker(relations) over R out to homological
    position ``length``, with syzygy generators searched through internal
    degree ``degree_bound``."""
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
            candidates = _relation_candidates(ring, presentation, col_degs)
        else:
            candidates = _syzygy_candidates(
                ring, diffs[step - 1], src_twists, twists[step - 2], degree_bound
            )
        degs, cols = _minimal_generators(ring, src_twists, candidates)
        if degs and degs[-1] == degree_bound:
            raise DegreeBoundTooLowError(
                f"new syzygy generators still appear at degree "
                f"{degree_bound} (position {step}); raise the bound"
            )
        twists[step] = tuple(degs)
        diffs[step] = PolyMatrix(
            len(src_twists),
            len(cols),
            [[col[i] for col in cols] for i in range(len(src_twists))],
        )

    return FreeComplex(
        ring,
        "R",
        (0, length),
        twists,
        diffs,
        support="bounded_below",
    )
