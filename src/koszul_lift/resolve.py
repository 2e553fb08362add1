"""Minimal graded free resolutions over R = Q/(f), degree by degree.

Everything happens in Q-coordinates: the degree-d piece of a free
R-module with given twists is V_d/W_d where W_d is the span of the
f-multiples.  Every step picks its generators by one graded Nakayama rule,
degree by degree: a candidate becomes a generator exactly when it adds a
pivot beyond W_d plus the multiples of every generator already chosen at
that step.  The candidates are the presentation columns at step one and,
later, the source parts of a nullspace basis of the [matrix | span] block.
Candidates are sparse coordinate vectors {index: nonzero}, from
``linalg.nullspace`` through ``linalg.extend_pivots`` to
``coords_to_column``; the base is passed as the rows that
``module_span_rows`` and ``graded_matrix_rows`` build.  Free variables never
enter: pivot selection is the greedy left-to-right echelon choice, which
depends only on the span of the base, so the output is deterministic.

The search is bounded by ``degree_bound``; if new generators still appear
at the bound itself the truncation is unsafe and DegreeBoundTooLowError is
raised.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .algebra import GradedRing, PolyMatrix, graded_matrix_rows, module_dim
from .algebra import json_int, matrix_from_json
from .complexes import (
    FreeComplex,
    coords_to_column,
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
        for j, column in enumerate(self.relations.column_nonzeros()):
            deg = None
            for i, p in column:
                p = ring.normal_form(p)
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
            raw_twists = data["twists"]
            raw = data["relations"]
        except (KeyError, TypeError) as exc:
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


def _minimal_generators(ring, twists, candidates):
    """Graded Nakayama, one degree at a time.

    ``candidates`` yields (d, sparse coordinate vectors in the degree-d piece
    of the free module with the given twists) in increasing d.  A vector
    becomes a generator exactly when it is not in W_d plus the multiples of
    the generators already chosen plus the vectors before it.  Returns the
    generators' degrees and columns, as (row, nonzero entry) pairs."""
    degs, cols = [], []
    for d, vecs in candidates:
        base = module_span_rows(ring, twists, d)
        multiples = _columns_matrix(ring, len(twists), cols)
        for row, mrow in zip(base, graded_matrix_rows(ring, multiples, degs, twists, d)):
            row.extend(mrow)
        for k in linalg.extend_pivots(ring.field, base, vecs, len(base)):
            degs.append(d)
            col = coords_to_column(ring, twists, d, vecs[k])
            cols.append([(i, p) for i, p in enumerate(col) if p.terms])
    return degs, cols


def _relation_candidates(ring, presentation, col_degs):
    """The presentation columns of each degree, as sparse coordinate
    vectors."""
    twists = presentation.twists
    columns = presentation.relations.column_nonzeros()
    for d in sorted(set(col_degs) - {None}):
        here = [columns[j] for j, dj in enumerate(col_degs) if dj == d]
        rows = graded_matrix_rows(
            ring, _columns_matrix(ring, len(twists), here), [d] * len(here), twists, d
        )
        yield d, [
            {i: row[k] for i, row in enumerate(rows) if row[k]} for k in range(len(here))
        ]


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
        yield d, [{i: v for i, v in vec.items() if i < ns} for vec in null]


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
        diffs[step] = _columns_matrix(ring, len(src_twists), cols)

    return FreeComplex(
        ring,
        "R",
        (0, length),
        twists,
        diffs,
        support="bounded_below",
    )
