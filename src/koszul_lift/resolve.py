"""Minimal graded free resolutions over R = Q/(f), degree by degree.

Every step works in R-coordinates.  The degree-d piece of a free R-module
with given twists has, on each generator of twist a, the basis
``GradedRing.quotient_basis(d - a)`` of R_{d-a}, and ``algebra.quotient_sums``
writes a module map on such pieces.  At step n the syzygies of degree d,
K_d, are the kernel of d_{n-1} read over R on degree-d pieces: exactly the
degree-d elements of F_{n-1} tensor R that d_{n-1} sends to zero in
F_{n-2} tensor R.

Every step picks its generators by one graded Nakayama rule, degree by
degree: a candidate becomes a generator exactly when it is not in the span
of the multiples of the generators already chosen at that step and of the
candidates before it.  The multiples of a chosen generator g of degree e
are g times the basis of R_{d-e}, the columns of ``quotient_columns``.
They make d_n's R-matrix in degree d but for the generators of degree d
itself, which are independent of them and of each other; so each step
hands its multiples on as the next step's matrix, and each R-matrix is
built once.

Each step counts before it eliminates.  The free columns F of d_{n-1}'s
matrix in degree d, the columns outside the span of the columns before
them, come from step n-1's elimination; there are dim K_d of them, and a
syzygy is fixed by its coordinates on F.  At step n the multiples, read
on F, and after them the unit vectors of F are eliminated once
(``linalg.pivot_columns``).  The unit of free column f stands for the
kernel vector of f (1 at f, 0 at the other free columns), so the units
that are pivots are the kernel vectors the greedy rule picks
(``linalg.extend_pivots``'s choice).  The pivots among the multiples give
the free columns of d_n for step n+1.  When no unit is a pivot, the
multiples span K_d and no generator can appear: the degree ends without a
kernel.  Otherwise the kernel of d_{n-1}'s matrix is computed
(``linalg.nullspace_columns``), its free columns must be F, or a
KoszulLiftError names the step and the degree, and the picked kernel
vectors become generators.  Over Q the integer columns of source
generator j are the rational ones times ``algebra.column_denominator`` of
d_{n-1}'s column j, times one integer common to all columns.  The kernel
of M*D is D^-1 * ker M, so each kernel coordinate is multiplied by its
generator's ``column_denominator``; scaling a coordinate keeps the
support, so the free columns do not change.  This is the rank-counting
strategy for minimal resolutions (La Scala and Stillman, "Strategies for
computing minimal free resolutions", J. Symbolic Comput. 1998).

At step one the candidates are the presentation's columns read over R,
eliminated after the multiples in the same way, and the picked columns
themselves become d_1; the degrees run on past the last column, because
step two reads d_1's free columns in each of them.  Later each pick
becomes the column of its coefficients on the ``quotient_basis`` monomials
(``algebra.coords_to_columns``), so every entry of d_n for n >= 2 is a
normal form.  Only the finished differentials are ``PolyMatrix``.  Free
variables never enter: the kernel basis is the one of the reduced row
echelon form and the picks are pivot columns, both fixed by the column
order, so the output is deterministic.

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
from .errors import DegreeBoundTooLowError, InvalidInputError, KoszulLiftError, ParseError


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


def _pivots(field, mults, vecs, dim):
    """One elimination of the columns ``mults`` followed by ``vecs``, all of
    length ``dim``: the indices of the vectors that are pivot columns (the
    greedy picks, each outside the span of the multiples and the vectors
    before it), and the free columns among the multiples, ascending."""
    nb = len(mults)
    pivots = linalg.pivot_columns(field, mults + vecs, dim)
    taken = set(pivots)
    return [c - nb for c in pivots if c >= nb], [c for c in range(nb) if c not in taken]


def _relation_generators(ring, presentation, col_degs, degree_bound):
    """Step one: degrees and columns, as (row, nonzero entry) pairs, of a
    minimal choice among the presentation's columns, and per degree the
    multiples and free columns of d_1 (see ``_syzygy_generators``).  In
    each degree the columns read over R are the candidates, and a picked
    column is kept as it is given, in normal form.  The degrees run on to
    ``degree_bound`` past the last column, because step two reads the free
    columns of d_1 in each of them."""
    field = ring.field
    twists = presentation.twists
    columns = [
        [(i, q) for i, p in col if (q := ring.normal_form(p)).terms]
        for col in presentation.relations.column_nonzeros()
    ]
    degs, cols, mults_at, free_at = [], [], {}, {}
    for d in range(min(set(col_degs) - {None}, default=degree_bound + 1), degree_bound + 1):
        mults = quotient_columns(ring, cols, degs, twists, d)
        here = [columns[j] for j, dj in enumerate(col_degs) if dj == d]
        vecs = quotient_columns(ring, here, [d] * len(here), twists, d)
        dim = quotient_module_dim(ring, twists, d)
        picked, free_at[d] = _pivots(field, mults, vecs, dim)
        mults_at[d] = mults
        cols += [here[k] for k in picked]
        degs += [d] * len(picked)
    return degs, cols, mults_at, free_at


def _syzygy_generators(ring, step, prev, src_twists, tgt_twists, degree_bound):
    """Step ``step`` >= 2: degrees and columns of minimal generators of the
    syzygies of d_{n-1} over R through ``degree_bound``, and per degree the
    multiples and free columns of the new differential d_n.

    ``prev`` is step n-1's result: d_{n-1}'s columns, and per degree d its
    multiples and their free columns F.  The multiples, read on F, and the
    unit vectors of F are eliminated together (see the module docstring).
    The kernel is computed only when a unit is a pivot, from the multiples
    alone, since the picks of degree d add no kernel vector; its free
    columns must be F."""
    field = ring.field
    prev_cols, prev_mults, prev_free = prev
    dens = None if field.char else [column_denominator(col) for col in prev_cols]
    degs, cols, mults_at, free_at = [], [], {}, {}
    for d in range(min(src_twists, default=degree_bound + 1), degree_bound + 1):
        free = prev_free[d]
        at = {f: k for k, f in enumerate(free)}
        mults = quotient_columns(ring, cols, degs, src_twists, d)
        on_free = [{at[i]: v for i, v in vec.items() if i in at} for vec in mults]
        units = [{k: field.one} for k in range(len(free))]
        picked, free_at[d] = _pivots(field, on_free, units, len(free))
        mults_at[d] = mults
        if not picked:
            continue
        null = linalg.nullspace_columns(
            field, prev_mults[d], quotient_module_dim(ring, tgt_twists, d)
        )
        if [max(vec, default=None) for vec in null] != free:
            raise KoszulLiftError(
                f"syzygies at position {step}, degree {d}: the kernel of "
                f"d_{step - 1} has {len(null)} vectors, but the rank of its "
                f"multiples left {len(free)} free columns"
            )
        bases = [ring.quotient_basis(d - a)[0] for a in src_twists]
        if dens:
            scale = [den for den, basis in zip(dens, bases) for _ in basis]
            null = [{i: v * scale[i] for i, v in null[k].items()} for k in picked]
        else:
            null = [null[k] for k in picked]
        cols += coords_to_columns(ring, bases, null)
        degs += [d] * len(picked)
    return degs, cols, mults_at, free_at


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
            degs, cols, mults_at, free_at = _relation_generators(
                ring, presentation, col_degs, degree_bound
            )
        else:
            degs, cols, mults_at, free_at = _syzygy_generators(
                ring, step, (cols, mults_at, free_at), src_twists, twists[step - 2],
                degree_bound,
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
