"""Exterior index combinatorics and Koszul complexes.

The index set for a sequence f_1..f_c consists of the subsets of {1..c},
encoded as strictly increasing tuples, plus a formal zero element encoded
as None.  The empty tuple is the unit index.  Serialized forms: a subset is
a JSON list like [1, 3], the unit is [], the zero is null.

Signs follow the wedge convention: joining e_alpha with e_beta costs
(-1)**inversions(alpha, beta), where an inversion is a pair (a, b) with
a in alpha, b in beta, a > b.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import NamedTuple, Optional

from .errors import InvalidInputError
from .algebra import MAX_C, GradedRing, PolyMatrix, exact_int

KoszulIndex = Optional[tuple[int, ...]]


class SignedIndex(NamedTuple):
    index: KoszulIndex
    sign: int  # 0 exactly when index is None


def validate_index(alpha, c: int) -> tuple[int, ...]:
    """Normalize a subset index: strictly increasing ints within 1..c.  An
    entry that is not an int (a bool, a float or a string) is an
    InvalidInputError."""
    if c < 0 or c > MAX_C:
        raise InvalidInputError(f"sequence length {c} outside 0..{MAX_C}")
    alpha = tuple(exact_int(i, "index entry") for i in alpha)
    if any(i < 1 or i > c for i in alpha):
        raise InvalidInputError(f"index {alpha} outside 1..{c}")
    if any(alpha[k] >= alpha[k + 1] for k in range(len(alpha) - 1)):
        raise InvalidInputError(f"index {alpha} not strictly increasing")
    return alpha


def inversions(alpha: tuple[int, ...], beta: tuple[int, ...]) -> int:
    """Number of pairs (a, b) in alpha x beta with a > b."""
    return sum(1 for a in alpha for b in beta if a > b)


def wedge(alpha: KoszulIndex, beta: KoszulIndex) -> SignedIndex:
    """e_alpha ^ e_beta as a signed index; overlapping subsets give zero.

    The zero index absorbs everything."""
    if alpha is None or beta is None:
        return SignedIndex(None, 0)
    if set(alpha) & set(beta):
        return SignedIndex(None, 0)
    merged = tuple(sorted(alpha + beta))
    sign = -1 if inversions(alpha, beta) % 2 else 1
    return SignedIndex(merged, sign)


def insertion_count(i: int, gamma: tuple[int, ...]) -> int:
    """Position count #{j in gamma : j < i}, the exponent written (e_i gamma)."""
    return sum(1 for j in gamma if j < i)


def insert_index(i: int, gamma: tuple[int, ...]) -> tuple[int, ...]:
    """The subset [e_i gamma] = {i} united with gamma; i must be fresh."""
    if i in gamma:
        raise InvalidInputError(f"{i} already in {gamma}")
    return tuple(sorted((i,) + gamma))


def subsets_of_size(c: int, size: int):
    """Subsets of {1..c} of the given size in sorted-subset order."""
    return combinations(range(1, c + 1), size)


def all_subsets(c: int):
    """All subsets ordered by size then lexicographically."""
    for size in range(c + 1):
        yield from subsets_of_size(c, size)


def index_to_json(alpha: KoszulIndex):
    return None if alpha is None else list(alpha)


def index_from_json(data, c: int) -> KoszulIndex:
    if data is None:
        return None
    if not isinstance(data, (list, tuple)) or not all(type(i) is int for i in data):
        raise InvalidInputError(f"bad index serialization {data!r}")
    return validate_index(data, c)


def koszul_differential(ring: GradedRing, alpha, elements=None):
    """Differential of a Koszul generator: d(e_alpha) as a list of
    (subset, coefficient) pairs, coefficient = (-1)**(l+1) * g_{alpha_l}
    for the l-th deleted element (1-based)."""
    elements = ring.sequence if elements is None else tuple(elements)
    alpha = validate_index(alpha, len(elements))
    out = []
    for l, i in enumerate(alpha, start=1):
        beta = alpha[:l - 1] + alpha[l:]
        g = elements[i - 1]
        out.append((beta, g if l % 2 else -g))
    return out


def koszul_complex(ring: GradedRing, elements=None, over: str = "Q"):
    """The Koszul complex on ``elements`` (default: the ring's sequence) as
    a finite free complex in positions 0..c, generators in sorted-subset
    order per position."""
    from .complexes import FreeComplex  # deferred: complexes imports algebra only

    if elements is None:
        elements = ring.sequence
    else:
        elements = tuple(
            ring.parse(g) if isinstance(g, str) else ring.normal_form(g)
            for g in elements
        )
    degs = [g.degree() for g in elements]
    for g, d in zip(elements, degs):
        if d is None or d < 1:
            raise InvalidInputError(
                f"Koszul complex needs homogeneous elements of degree >= 1, got {g}"
            )
    c = len(elements)
    if c > MAX_C:
        raise InvalidInputError(f"too many elements ({c} > {MAX_C})")

    twists = {}
    for j in range(c + 1):
        twists[j] = tuple(
            sum(degs[i - 1] for i in alpha) for alpha in subsets_of_size(c, j)
        )
    diffs = {}
    for j in range(1, c + 1):
        tgt_index = {beta: k for k, beta in enumerate(subsets_of_size(c, j - 1))}
        cols = list(subsets_of_size(c, j))
        rows = [{} for _ in tgt_index]
        for col, alpha in enumerate(cols):
            for beta, coeff in koszul_differential(ring, alpha, elements):
                rows[tgt_index[beta]][col] = coeff
        diffs[j] = PolyMatrix._from_sparse(len(rows), len(cols), rows, ring.zero)
    return FreeComplex(
        ring,
        over,
        (0, c),
        twists,
        diffs,
        support="finite",
    )


@dataclass
class RegularityReport:
    """Outcome of the Koszul homology regularity check."""

    ok: bool
    degree_bound: int
    first_failure: tuple | None  # (homological position, internal degree)
    dims: dict = field(default_factory=dict)


def check_regular_up_to(ring: GradedRing, degree_bound: int) -> RegularityReport:
    """Test regularity of the ring's sequence through internal degree
    ``degree_bound``: the Koszul homology H_i must vanish there for every
    i >= 1.  This is a bounded certificate, not a proof beyond the bound.
    A ``degree_bound`` that is not an int is an InvalidInputError."""
    from .complexes import homology_dims

    degree_bound = exact_int(degree_bound, "degree bound")
    if degree_bound < 0:
        raise InvalidInputError("degree bound must be >= 0")
    c = ring.c
    if c == 0:
        return RegularityReport(True, degree_bound, None, {})
    K = koszul_complex(ring)
    dims = homology_dims(K, range(1, c + 1), degree_bound)
    first = None
    for i in range(1, c + 1):
        for d in sorted(dd for (n, dd) in dims if n == i):
            if dims[(i, d)]:
                first = (i, d)
                break
        if first:
            break
    return RegularityReport(first is None, degree_bound, first, dims)
