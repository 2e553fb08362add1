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
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .algebra import GradedRing, PolyMatrix, graded_matrix_rows, module_dim
from .algebra import quotient_matrix_rows, quotient_module_dim
from .algebra import json_int, matrix_from_json
from .algebra import coords_to_column, module_basis  # noqa: F401 (re-exported)
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
        lo, hi = int(window[0]), int(window[1])
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
            clean_twists[n] = tuple(int(a) for a in twists[n])
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
            "diffs": {
                str(n): [[str(p) for p in row] for row in self.diffs[n].rows]
                for n in sorted(self.diffs)
            },
        }
        if self.is_lift:
            out["lift"] = True
        return out

    @classmethod
    def from_json_dict(cls, ring: GradedRing, data) -> "FreeComplex":
        try:
            over = data["over"]
            window = data["window"]
            raw_twists = data["twists"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"complex JSON missing key: {exc}") from exc
        if not isinstance(window, (list, tuple)) or len(window) != 2:
            raise ParseError(f"bad window {window!r}")
        lo, hi = (json_int(b, "window bound") for b in window)
        raw_diffs = data.get("diffs", {})
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
            is_lift=bool(data.get("lift", False)),
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
            if not p.is_homogeneous() or p.homogeneous_degree() != want:
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


def module_span_rows(ring: GradedRing, twists, d: int):
    """Rows spanning the degree-d piece of (f) * F inside F for the free
    module F with the given twists: block-diagonal copies of the ring's
    W_{d-a}, rows in module_basis(twists, d) order."""
    blocks = [
        (ring.sequence_span_rows(d - a), module_dim(ring, ring.seq_degrees, d - a))
        for a in twists
    ]
    zero = ring.field.zero
    right = sum(width for _, width in blocks)
    out = []
    left = 0
    for rows, width in blocks:
        right -= width
        for row in rows:
            out.append([zero] * left + row + [zero] * right)
        left += width
    return out


# No library code calls this; it stays only because perfbench/tracing.py
# probes it by name.
def module_span_columns(ring: GradedRing, twists, d: int):
    """The columns of module_span_rows(ring, twists, d)."""
    return list(zip(*module_span_rows(ring, twists, d)))


def homology_dims(C: FreeComplex, positions, degree_bound: int) -> dict:
    """Graded homology dimensions dim_k H_n(C)_d for the requested interior
    positions and all internal degrees up to ``degree_bound``.

    Each d_n is written as a k-matrix on degree-d pieces, and dim H_n =
    dim (F_n)_d - rank d_n - rank d_{n+1}.  Over Q the pieces carry the
    monomial bases of Q (``graded_matrix_rows``).  Over R = Q/(f) they carry
    the bases of ``GradedRing.quotient_basis`` and every image is reduced
    to its normal form there (``quotient_matrix_rows``), so the ranks are
    those of the maps of R-modules.
    """
    if C.is_lift:
        raise InvalidInputError("homology of a lift is not defined; reduce first")
    ring = C.ring
    field = ring.field
    positions = sorted(set(int(n) for n in positions))
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
    if C.over == "R":
        piece_dim, matrix_rows = quotient_module_dim, quotient_matrix_rows
    else:
        piece_dim, matrix_rows = module_dim, graded_matrix_rows

    rank_cache: dict = {}

    def rank(n, d):
        """rank of d_n on degree-d pieces."""
        key = (n, d)
        if key not in rank_cache:
            src = C.known_twist(n)
            tgt = C.known_twist(n - 1)
            if src is None or tgt is None:
                raise InvalidInputError(f"differential at {n} undetermined")
            rows = matrix_rows(ring, C.differential(n), src, tgt, d)
            rank_cache[key] = linalg.rank(field, rows)
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
    field = C.ring.field
    for mat in C.diffs.values():
        for _, _, p in mat.nonzeros():
            if not field.is_zero(p.constant_term()):
                return False
    return True
