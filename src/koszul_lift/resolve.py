"""Minimal graded free resolutions over R = Q/(f), degree by degree.

Everything happens in Q-coordinates: the degree-d piece of a free
R-module with given twists is V_d/W_d where W_d is the span of the
f-multiples.  Every step picks its generators by one graded Nakayama rule,
degree by degree: a candidate becomes a generator exactly when it adds a
pivot beyond W_d plus the multiples of every generator already chosen at
that step.  The candidates are the presentation columns at step one and,
later, the source parts of a nullspace basis of the [matrix | span] block.
The f-span is the image of ``span_map``, the map F tensor K_1 -> F of the
Koszul complex on f, whose columns join the step's other polynomial
columns.  Every polynomial column is a list of nonzero ``(row, Poly)``
pairs.  ``graded_columns`` turns them into sparse coordinate columns
{index: nonzero}: the base [span | multiples], the step-one candidates
and the [matrix | span] block, which goes to ``linalg.nullspace_columns``
as it is, so no dense list row is built.  ``coords_to_columns`` turns the
picked vectors back into polynomial columns, and only the finished
differentials are ``PolyMatrix``.  Free variables never enter: pivot
selection is the greedy left-to-right echelon choice, which depends only on
the span of the base, so the output is deterministic.

The search is bounded by ``degree_bound``; if new generators still appear
at the bound itself the truncation is unsafe and DegreeBoundTooLowError is
raised.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .algebra import GradedRing, PolyMatrix, graded_columns
from .algebra import coords_to_columns, json_int, matrix_from_json, matrix_to_json
from .algebra import module_dim, span_map
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


def _minimal_generators(ring, twists, candidates):
    """Graded Nakayama, one degree at a time.

    ``candidates`` yields (d, sparse coordinate vectors in the degree-d piece
    of the free module with the given twists) in increasing d.  A vector
    becomes a generator exactly when it is not in W_d plus the multiples of
    the generators already chosen plus the vectors before it.  Returns the
    generators' degrees and columns, as (row, nonzero entry) pairs."""
    span_cols, span_twists = span_map(ring, twists)
    degs, cols = [], []
    for d, vecs in candidates:
        base = graded_columns(ring, span_cols + cols, span_twists + tuple(degs), twists, d)
        picked = linalg.extend_pivots(ring.field, base, vecs, module_dim(ring, twists, d))
        cols += coords_to_columns(ring, twists, d, [vecs[k] for k in picked])
        degs += [d] * len(picked)
    return degs, cols


def _relation_candidates(ring, presentation, col_degs):
    """The presentation columns of each degree, as sparse coordinate
    vectors."""
    twists = presentation.twists
    columns = presentation.relations.column_nonzeros()
    for d in sorted(set(col_degs) - {None}):
        here = [columns[j] for j, dj in enumerate(col_degs) if dj == d]
        yield d, graded_columns(ring, here, [d] * len(here), twists, d)


def _syzygy_candidates(ring, mat, src_twists, tgt_twists, degree_bound):
    """Source parts of a nullspace basis of [mat | span] in each degree:
    they span W_d together with lifts of the kernel of mat over R.  The
    block's sparse coordinate columns go to ``linalg.nullspace_columns``
    as they are; a zero target piece makes every source basis vector a
    candidate on its own."""
    span_cols, span_twists = span_map(ring, tgt_twists)
    block = mat.column_nonzeros() + span_cols
    block_twists = tuple(src_twists) + span_twists
    start = min(src_twists) if src_twists else degree_bound + 1
    for d in range(start, degree_bound + 1):
        ns = module_dim(ring, src_twists, d)
        if ns == 0:
            continue
        nt = module_dim(ring, tgt_twists, d)
        if nt == 0:
            yield d, [{i: ring.field.one} for i in range(ns)]
            continue
        cols = graded_columns(ring, block, block_twists, tgt_twists, d)
        null = linalg.nullspace_columns(ring.field, cols, nt)
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
