"""Bounded graded free complexes over Q or R = Q/(f).

A ``FreeComplex`` stores a window [lo, hi] of homological positions, the
generator twists of each position, and the differentials d_n : F_n ->
F_{n-1} for lo < n <= hi.  The ``support`` flag says how to read positions
outside the window:

* ``"window"``: a finite view of a complex that may continue on both sides,
  so nothing is known outside;
* ``"bounded_below"``: F_n = 0 for n < lo, unknown above hi;
* ``"finite"``: F_n = 0 outside [lo, hi].

Differential entries are J-reduced representatives.  Over Q ("over": "Q")
identities hold modulo J; over R they hold modulo (J, f).  A complex
flagged ``is_lift`` is written over Q but only promises d o d in (f): it is
a chosen lift of an R-complex, the raw material for homotopy solving.

Homology is computed degree by degree from the ranks of the differentials
on graded pieces.  For an R-complex the pieces are those of F_n tensor R,
in the basis of R_d that ``GradedRing.quotient_basis`` computes once per
degree; above the top degree of an Artinian R they are zero and cost
nothing.  Membership in (f), for the composites of an R-complex or a lift,
is a normal-form reduction in the same basis.

``minimize`` returns a homotopy equivalent complex with no unit left, so
its homology is computed on far fewer generators.  For each position and
source twist it splits off one invertible block Phi of constants, chosen
greedily (rows top to bottom, then columns left to right), by the Schur
complement E - Gamma Phi^-1 Delta: Gaussian elimination for chain
complexes, a block at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernel, linalg
from .algebra import GradedRing, Poly, PolyMatrix, graded_columns
from .algebra import graded_matrix_rows  # unused; perfbench/tracing.py probes it here by name
from .algebra import dense_rows, module_dim, product_sum, span_map
from .algebra import quotient_module_dim, quotient_sums
from .algebra import exact_int, json_int, matrix_from_json, matrix_to_json
from .errors import InvalidInputError, ParseError

SUPPORTS = ("window", "bounded_below", "finite")


class FreeComplex:
    """Finitely generated graded free complex on a window of positions."""

    def __init__(
        self,
        ring: GradedRing,
        over: str,
        window: tuple[int, int],
        twists,
        diffs,
        support: str = "window",
        is_lift: bool = False,
    ):
        if over not in ("Q", "R"):
            raise InvalidInputError(f"over must be 'Q' or 'R', got {over!r}")
        if support not in SUPPORTS:
            raise InvalidInputError(f"unknown support {support!r}")
        if is_lift and over != "Q":
            raise InvalidInputError("a lift is written over Q")
        lo = exact_int(window[0], "window bound")
        hi = exact_int(window[1], "window bound")
        if lo > hi:
            raise InvalidInputError(f"empty window {window}")
        self.ring = ring
        self.over = over
        self.window = (lo, hi)
        self.support = support
        self.is_lift = is_lift

        clean_twists = {}
        for n in range(lo, hi + 1):
            if n not in twists:
                raise InvalidInputError(f"missing twists for position {n}")
            what = f"twist at position {n}"
            clean_twists[n] = tuple(exact_int(a, what) for a in twists[n])
        if set(twists) - set(clean_twists):
            raise InvalidInputError("twists outside the window")
        self.twists = clean_twists

        clean_diffs = {}
        for n in range(lo + 1, hi + 1):
            mat = diffs.get(n)
            shape = (len(clean_twists[n - 1]), len(clean_twists[n]))
            if mat is None:
                mat = PolyMatrix.zeros(ring, *shape)
            if (mat.nrows, mat.ncols) != shape:
                raise InvalidInputError(
                    f"differential at {n} is {mat.nrows}x{mat.ncols}, "
                    f"expected {shape[0]}x{shape[1]}"
                )
            clean_diffs[n] = mat.map_entries(ring.normal_form)
        if set(diffs) - set(clean_diffs):
            raise InvalidInputError("differential keys outside (lo, hi]")
        self.diffs = clean_diffs

    # -- shape queries -------------------------------------------------------

    def positions(self) -> range:
        return range(self.window[0], self.window[1] + 1)

    def known_rank(self, n: int):
        """Rank of F_n, 0 when the support flag forces it, None if unknown."""
        lo, hi = self.window
        if lo <= n <= hi:
            return len(self.twists[n])
        if n < lo:
            return 0 if self.support in ("bounded_below", "finite") else None
        return 0 if self.support == "finite" else None

    def known_twist(self, n: int):
        lo, hi = self.window
        if lo <= n <= hi:
            return self.twists[n]
        return () if self.known_rank(n) == 0 else None

    def rank(self, n: int) -> int:
        r = self.known_rank(n)
        if r is None:
            raise InvalidInputError(f"rank at position {n} is outside the window")
        return r

    def differential(self, n: int):
        """d_n as a matrix; implied zero matrices outside the window where
        the support determines them; None where nothing is known."""
        lo, hi = self.window
        if lo < n <= hi:
            return self.diffs[n]
        src = self.known_rank(n)
        tgt = self.known_rank(n - 1)
        if src is None or tgt is None:
            return None
        return PolyMatrix.zeros(self.ring, tgt, src)

    def interior_positions(self) -> range:
        """Positions where kernel and image are both determined."""
        lo, hi = self.window
        if self.support == "finite":
            return range(lo, hi + 1)
        if self.support == "bounded_below":
            return range(lo, hi)
        return range(lo + 1, hi)

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        out = {
            "over": self.over,
            "support": self.support,
            "window": [self.window[0], self.window[1]],
            "twists": {str(n): list(self.twists[n]) for n in self.positions()},
            "diffs": {str(n): matrix_to_json(self.diffs[n]) for n in sorted(self.diffs)},
        }
        if self.is_lift:
            out["lift"] = True
        return out

    @classmethod
    def from_json_dict(cls, ring: GradedRing, data) -> "FreeComplex":
        if not isinstance(data, dict):
            raise ParseError("complex JSON must be an object")
        try:
            over = data["over"]
            window = data["window"]
            raw_twists = data["twists"]
        except KeyError as exc:
            raise ParseError(f"complex JSON missing key: {exc}") from exc
        if not isinstance(window, (list, tuple)) or len(window) != 2:
            raise ParseError(f"bad window {window!r}")
        lo, hi = (json_int(b, "window bound") for b in window)
        raw_diffs = data.get("diffs", {})
        is_lift = data.get("lift", False)
        if not isinstance(is_lift, bool):
            raise ParseError("complex JSON lift must be true or false")
        if not isinstance(raw_twists, dict) or not isinstance(raw_diffs, dict):
            raise ParseError("complex JSON twists and diffs must be objects")
        twists = {}
        for key, val in raw_twists.items():
            if not isinstance(val, list):
                raise ParseError(f"twists at position {key} must be a list")
            twists[json_int(key, "twist position")] = tuple(
                json_int(a, f"twist at position {key}") for a in val
            )
        diffs = {}
        for key, rows in raw_diffs.items():
            n = json_int(key, "differential position")
            if not (lo < n <= hi) or (n - 1) not in twists or n not in twists:
                raise ParseError(f"differential key {n} outside window")
            diffs[n] = matrix_from_json(
                ring, rows, len(twists[n - 1]), len(twists[n]), f"differential at {n}"
            )
        return cls(
            ring,
            over,
            (lo, hi),
            twists,
            diffs,
            support=data.get("support", "window"),
            is_lift=is_lift,
        )

    def __eq__(self, other):
        return (
            isinstance(other, FreeComplex)
            and self.ring == other.ring
            and self.over == other.over
            and self.window == other.window
            and self.support == other.support
            and self.is_lift == other.is_lift
            and self.twists == other.twists
            and self.diffs == other.diffs
        )

    def __repr__(self):
        lo, hi = self.window
        ranks = ",".join(str(len(self.twists[n])) for n in self.positions())
        return (
            f"FreeComplex(over={self.over}, window=[{lo},{hi}], "
            f"support={self.support}, ranks=[{ranks}])"
        )


def lift_to_Q(C: FreeComplex) -> FreeComplex:
    """Read an R-complex's entries as a chosen lift over Q (d^2 lands in
    (f) rather than vanishing)."""
    if C.over != "R":
        raise InvalidInputError("lift_to_Q expects a complex over R")
    return FreeComplex(
        C.ring, "Q", C.window, C.twists, C.diffs, support=C.support, is_lift=True
    )


def reduce_to_R(C: FreeComplex) -> FreeComplex:
    """Reduce a Q-complex modulo (f): same entries, now read over R."""
    if C.over != "Q":
        raise InvalidInputError("reduce_to_R expects a complex over Q")
    return FreeComplex(
        C.ring, "R", C.window, C.twists, C.diffs, support=C.support
    )


@dataclass
class ComplexFailure:
    kind: str  # "homogeneity" or "composite"
    position: int
    entry: tuple
    detail: str


@dataclass
class ComplexReport:
    ok: bool
    failures: list

    def first(self):
        return self.failures[0] if self.failures else None


def homogeneity_failures(C: FreeComplex):
    """Yield a failure for every differential entry that is not homogeneous
    of its forced degree (source twist minus target twist), position by
    position in row-major order."""
    lo, hi = C.window
    for n in range(lo + 1, hi + 1):
        src = C.twists[n]
        tgt = C.twists[n - 1]
        for i, j, p in C.diffs[n].nonzeros():
            want = src[j] - tgt[i]
            if p.degree() != want:
                yield ComplexFailure(
                    "homogeneity",
                    n,
                    (i, j),
                    f"entry {p} at ({i},{j}) of d_{n} should be "
                    f"homogeneous of degree {want}",
                )


def check_complex(C: FreeComplex) -> ComplexReport:
    """Structural validation: every entry homogeneous of its forced degree,
    and consecutive differentials compose to zero (over R / for lifts: to
    zero modulo (f))."""
    ring = C.ring
    failures = list(homogeneity_failures(C))
    lo, hi = C.window
    weak = C.over == "R" or C.is_lift
    for n in range(lo + 2, hi + 1):
        comp = C.diffs[n - 1].mul(C.diffs[n], ring)
        for i, j, p in comp.nonzeros():
            if weak and ring.in_sequence_ideal(p):
                continue
            failures.append(
                ComplexFailure(
                    "composite",
                    n,
                    (i, j),
                    f"(d_{n-1} d_{n})[{i},{j}] = {p} "
                    + ("not in (f)" if weak else "nonzero"),
                )
            )
    return ComplexReport(not failures, failures)


# -- graded piece machinery ----------------------------------------------------


# No library code calls this: ``resolve`` works in R-coordinates and needs
# no f-span, and ``GradedRing.quotient_basis`` reads the f-span of Q itself
# off ``span_map``.  It stays only because perfbench/tracing.py probes it
# by name.
def module_span_columns(ring: GradedRing, twists, d: int):
    """Sparse coordinate columns {row: nonzero} spanning the degree-d piece
    of (f) * F inside the free module F with the given twists: the columns
    of ``span_map``'s k-matrix."""
    return graded_columns(ring, *span_map(ring, twists), twists, d)


def homology_dims(C: FreeComplex, positions, degree_bound: int) -> dict:
    """Graded homology dimensions dim_k H_n(C)_d for the requested interior
    positions and all internal degrees up to ``degree_bound``.

    Each d_n is written as a k-matrix on degree-d pieces, and dim H_n =
    dim (F_n)_d - rank d_n - rank d_{n+1}.  Over Q the pieces carry the
    monomial bases of Q, and the rank is the number of pivot columns
    (``linalg.pivot_columns``) of the sparse columns of ``graded_columns``;
    no list row is built.  Over R = Q/(f) they carry the bases of
    ``GradedRing.quotient_basis`` and every image is reduced to its normal
    form there, so the ranks are those of the maps of R-modules.  There
    ``linalg.rank`` reads the ``dense_rows`` of the integer sums of
    ``quotient_sums``, reducing them mod p and dropping their zero cells
    itself; over Q each column is the rational one times a nonzero integer,
    which leaves the rank alone.  That list-row round trip stays because
    ``perfbench/tracing.py`` counts ``linalg.rank``'s cells under this
    function.  A position or a ``degree_bound`` that is not an int (a bool,
    a float or a string) is an InvalidInputError.
    """
    if C.is_lift:
        raise InvalidInputError("homology of a lift is not defined; reduce first")
    ring = C.ring
    field = ring.field
    positions = sorted({exact_int(n, "homology position") for n in positions})
    degree_bound = exact_int(degree_bound, "degree bound")
    interior = C.interior_positions()
    for n in positions:
        if n not in interior:
            raise InvalidInputError(
                f"position {n} is not interior for support {C.support!r} "
                f"window {list(C.window)}"
            )
    all_twists = [a for n in C.positions() for a in C.twists[n]]
    if not all_twists:
        return {(n, d): 0 for n in positions for d in range(0, degree_bound + 1)}
    dmin = min(all_twists)
    degrees = range(dmin, degree_bound + 1)
    piece_dim = quotient_module_dim if C.over == "R" else module_dim

    rank_cache: dict = {}

    def rank(n, d):
        """rank of d_n on degree-d pieces."""
        key = (n, d)
        if key not in rank_cache:
            src = C.known_twist(n)
            tgt = C.known_twist(n - 1)
            if src is None or tgt is None:
                raise InvalidInputError(f"differential at {n} undetermined")
            columns = C.differential(n).column_nonzeros()
            if C.over == "R":
                rows = dense_rows(*quotient_sums(ring, columns, src, tgt, d))
                rank_cache[key] = linalg.rank(field, rows)
            else:
                cols = graded_columns(ring, columns, src, tgt, d)
                rank_cache[key] = len(
                    linalg.pivot_columns(field, cols, module_dim(ring, tgt, d))
                )
        return rank_cache[key]

    out: dict = {}
    for n in positions:
        for d in degrees:
            dim = piece_dim(ring, C.known_twist(n), d)
            if dim:
                dim -= rank(n, d) + rank(n + 1, d)
            out[(n, d)] = dim
    return out


def is_minimal(C: FreeComplex) -> bool:
    """Minimality: no unit appears in any differential, i.e. every entry
    has zero constant term."""
    for mat in C.diffs.values():
        for _, _, p in mat.nonzeros():
            if p.constant_term():
                return False
    return True


def minimize(C: FreeComplex) -> FreeComplex:
    """A homotopy equivalent complex with no unit in any differential.

    One block step per position n, ascending, and source twist t of F_n,
    ascending, where d_n has a unit (a nonzero constant, which joins two
    generators of twist t).  M is the constants of d_n in the columns of
    twist t.  The pivot rows A are the rows of M, top to bottom, each kept
    if independent of those kept before (the pivot columns of M's
    transpose), and the pivot columns J are those of M[A], left to right,
    so Phi = M[A, J] is invertible.  With d_n = [[Phi, Delta], [Gamma, E]],
    rows A and columns J first, d_n becomes E - Gamma Phi^-1 Delta, d_{n+1}
    loses rows J and d_{n-1} loses columns A.  When d o d = 0, J and A span
    a contractible summand, so the result has the homology of C at every
    interior position and internal degree (Gaussian elimination for chain
    complexes in block form: Barnes-Lambe 1991, Skoldberg 2006).  One pass
    is enough: a step leaves no constant in twist t, those of other twists
    do not move (a product of entries across two twists has a factor of
    negative degree), and d_{n-1} and d_{n+1} only lose rows or columns.

    The rows A, written over the field with the columns of twist t first,
    reduce to [I | Phi^-1 Delta] with pivots J (``_kernel.gauss_jordan``);
    one ``product_sum`` gives the rows that meet J as D - Gamma [I | Phi^-1
    Delta], D being those rows, whose entries in J cancel.  C is not
    changed.
    """
    if C.is_lift:
        raise InvalidInputError("minimize expects a complex; a lift's d^2 lies in (f)")
    ring, char = C.ring, C.ring.field.char
    one = (0,) * ring.nvars
    unit = Poly._of(ring, {one: ring.field.one})

    def sparse(rows, ncols):
        return PolyMatrix._from_sparse(len(rows), ncols, rows, ring.zero)

    rows = {n: list(mat._rows) for n, mat in C.diffs.items()}
    dead = {m: set() for m in C.positions()}
    for n in sorted(rows):
        mat, src, tgt = rows[n], C.twists[n], C.twists[n - 1]
        for i in dead[n - 1]:
            mat[i] = {}
        eye = sparse([{j: unit} for j in range(len(src))], len(src))
        for t in sorted(set(src)):
            units = {}  # the columns of M, {j: {i: constant}}
            for i, row in enumerate(mat):
                if tgt[i] != t:
                    continue
                for j, p in row.items():
                    if src[j] != t:
                        continue
                    if len(p.terms) != 1 or one not in p.terms:
                        raise InvalidInputError(
                            f"entry {p} at ({i},{j}) of d_{n} should be a constant"
                        )
                    units.setdefault(j, {})[i] = p.terms[one]
            if not units:
                continue
            A = list(_kernel.echelon(list(units.values()), char))
            # keyed (twist is not t, column, monomial): the columns of M first
            coefficients = [
                {(src[j] != t, j, m): c
                 for j, p in mat[a].items() for m, c in p.terms.items()}
                for a in A
            ]
            reduced = _kernel.gauss_jordan(coefficients, char)
            J = [j for (_, j, _), _ in reduced]
            solved = []
            for _, row in reduced:
                entries = {}
                for (_, j, m), c in row.items():
                    entries.setdefault(j, {})[m] = c
                solved.append({j: Poly._of(ring, terms) for j, terms in entries.items()})
            for a in A:
                mat[a] = {}
            hit = [i for i, row in enumerate(mat) if not row.keys().isdisjoint(J)]
            gamma = [{r: mat[i][j] for r, j in enumerate(J) if j in mat[i]} for i in hit]
            products = [
                (1, sparse([mat[i] for i in hit], len(src)), eye),
                (-1, sparse(gamma, len(J)), sparse(solved, len(src))),
            ]
            for i, row in zip(hit, product_sum(ring, products)._rows):
                mat[i] = row
            dead[n - 1].update(A)
            dead[n].update(J)

    keep = {m: [i for i in range(len(C.twists[m])) if i not in dead[m]] for m in dead}
    diffs = {}
    for n, mat in rows.items():
        col = {j: k for k, j in enumerate(keep[n])}
        diffs[n] = sparse(
            [{col[j]: p for j, p in mat[i].items() if j in col} for i in keep[n - 1]],
            len(keep[n]),
        )
    twists = {m: tuple(C.twists[m][i] for i in keep[m]) for m in keep}
    return FreeComplex(ring, C.over, C.window, twists, diffs, support=C.support)
