"""Minimal graded free resolutions over R = Q/(f), degree by degree.

Everything happens in Q-coordinates: the degree-d piece of a free
R-module with given twists is V_d/W_d where W_d is the span of the
f-multiples.  Kernels of the induced maps are found as nullspaces of
[matrix | span] blocks, and new generators are chosen by graded Nakayama:
a kernel element becomes a generator exactly when it adds a pivot beyond
W_d + (variables * kernel at degree d-1).  Free variables never enter:
pivot selection is the greedy left-to-right echelon choice, so the output
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
        rows = [[ring.parse(cell) for cell in row] for row in raw]
        ncols = len(rows[0]) if rows else 0
        return cls(twists, PolyMatrix(len(twists), ncols, rows))


def _multiple_columns(ring, cols, col_degrees, twists, d):
    """Coordinate columns, in the degree-d piece of the free module with the
    given twists, of every monomial multiple of the polynomial columns
    ``cols`` (column j homogeneous of degree ``col_degrees[j]``)."""
    mat = PolyMatrix(
        len(twists), len(cols), [[col[i] for col in cols] for i in range(len(twists))]
    )
    return list(zip(*graded_matrix_rows(ring, mat, col_degrees, twists, d)))


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
    field = ring.field
    f0_twists = presentation.twists
    col_degs = presentation.column_degrees(ring)

    live = [
        (d, [presentation.relations.rows[i][j] for i in range(len(f0_twists))])
        for j, d in enumerate(col_degs)
        if d is not None
    ]
    max_given = max((d for d, _ in live), default=0)
    if degree_bound < max(max_given, max(f0_twists, default=0)) + 1:
        raise DegreeBoundTooLowError(
            f"degree bound {degree_bound} cannot even hold the presentation"
        )

    # step one: a minimal generating set of the relation submodule
    chosen_cols = []
    chosen_degs = []
    for d in sorted(set(dd for dd, _ in live)):
        lower = [(dd, col) for dd, col in live if dd < d]
        here = [col for dd, col in live if dd == d]
        base = module_span_columns(ring, f0_twists, d) + _multiple_columns(
            ring, [col for _, col in lower], [dd for dd, _ in lower], f0_twists, d
        )
        extras = _multiple_columns(ring, here, [d] * len(here), f0_twists, d)
        dim = module_dim(ring, f0_twists, d)
        picked = linalg.extend_pivots(field, base, extras, dim)
        for k in picked:
            chosen_cols.append(here[k])
            chosen_degs.append(d)

    twists = {0: tuple(f0_twists)}
    diffs = {}
    prev_twists = tuple(chosen_degs)
    twists[1] = prev_twists
    diffs[1] = PolyMatrix(
        len(f0_twists),
        len(chosen_cols),
        [
            [ring.normal_form(chosen_cols[j][i]) for j in range(len(chosen_cols))]
            for i in range(len(f0_twists))
        ],
    )

    # later steps: syzygies of the previous differential
    for step in range(2, length + 1):
        src_twists = twists[step - 1]
        tgt_twists = twists[step - 2]
        mat = diffs[step - 1]
        new_degs = []
        new_cols = []
        prev_cols = []  # kernel representatives modulo W at degree d - 1
        start = min(src_twists) if src_twists else degree_bound + 1
        for d in range(start, degree_bound + 1):
            ns = module_dim(ring, src_twists, d)
            if ns == 0:
                prev_cols = []
                continue
            rows = graded_matrix_rows(ring, mat, src_twists, tgt_twists, d)
            for row, wrow in zip(rows, module_span_rows(ring, tgt_twists, d)):
                row.extend(wrow)
            null = linalg.nullspace(field, rows, len(rows[0]) if rows else ns)
            kcols = [vec[:ns] for vec in null]
            ws = module_span_columns(ring, src_twists, d)
            rep_vecs = [kcols[k] for k in linalg.extend_pivots(field, ws, kcols, ns)]
            rep_cols = [coords_to_column(ring, src_twists, d, u) for u in rep_vecs]
            base = ws + _multiple_columns(
                ring, prev_cols, [d - 1] * len(prev_cols), src_twists, d
            )
            picked = linalg.extend_pivots(field, base, rep_vecs, ns)
            if picked and d == degree_bound:
                raise DegreeBoundTooLowError(
                    f"new syzygy generators still appear at degree "
                    f"{degree_bound} (position {step}); raise the bound"
                )
            for k in picked:
                new_degs.append(d)
                new_cols.append(rep_cols[k])
            prev_cols = rep_cols
        twists[step] = tuple(new_degs)
        diffs[step] = PolyMatrix(
            len(src_twists),
            len(new_cols),
            [
                [new_cols[j][i] for j in range(len(new_cols))]
                for i in range(len(src_twists))
            ],
        )

    return FreeComplex(
        ring,
        "R",
        (0, length),
        twists,
        diffs,
        support="bounded_below",
    )
