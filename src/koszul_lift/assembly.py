"""Assembly of the perturbed product complex.

Given a lift F of an R-complex and a full homotopy family, the product
total complex has positions P_n = sum over subsets beta of F_{n-|beta|}
tensor e_beta (so each F position appears 2^c times), and differential

    d(x tensor e_beta) = sum over alpha disjoint from beta of
        (-1)**(|x| |alpha|) t^alpha(x) tensor (e_alpha ^ e_beta)
      + (-1)**|x| x tensor dK(e_beta),

with dK the Koszul differential of the sequence.  The defining relations
of the family are exactly d o d = 0 here, so the result is a genuine
complex over Q.

Generators at each position are ordered block by block: |beta| ascending,
subsets in sorted order, then the F generators in their own order.  Blocks
of rank zero are dropped.  ``blocks`` and ``gen_tags`` expose the
provenance of every generator.

Each differential is written as sparse rows at the blocks' offsets: a
Koszul term +-f_i lands on its block's diagonal, and each homotopy map's
nonzeros are copied into its block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .algebra import GradedRing, PolyMatrix, matrix_to_json, product_sum
from .complexes import FreeComplex, is_minimal
from .errors import InvalidInputError, LevelTooLowError
from .homotopy import HomotopyFamily
from .koszul import koszul_differential, subsets_of_size, wedge


@dataclass(frozen=True)
class BlockInfo:
    subset: tuple  # Koszul factor e_subset
    f_position: int  # position of the F factor
    rank: int
    offset: int  # index of the block's first generator


class ProductComplex:
    """The assembled complex plus provenance and the inputs it came from."""

    def __init__(self, complex: FreeComplex, lift: FreeComplex, blocks, family):
        self.complex = complex
        self.lift = lift
        self.blocks = blocks  # position -> list[BlockInfo]
        self.family = family

    @property
    def ring(self) -> GradedRing:
        return self.complex.ring

    def gen_tags(self, n: int):
        """Per-generator provenance: (subset, F position, F generator)."""
        tags = []
        for blk in self.blocks[n]:
            for g in range(blk.rank):
                tags.append((blk.subset, blk.f_position, g))
        return tags

    def block_label(self, blk: BlockInfo) -> str:
        body = "".join(str(i) for i in blk.subset) or "0"
        return f"F_{blk.f_position}*e{body}" if blk.subset else f"F_{blk.f_position}"

    def __repr__(self):
        lo, hi = self.complex.window
        return f"ProductComplex(window=[{lo},{hi}], c={self.ring.c})"


def _product_window(F: FreeComplex, c: int):
    lo, hi = F.window
    if F.support == "finite":
        return lo, hi + c
    if F.support == "bounded_below":
        return lo, hi
    if hi - lo < c:
        raise InvalidInputError(
            f"window [{lo},{hi}] too short to assemble a view with c={c}"
        )
    return lo + c, hi


def _blocks_for(F: FreeComplex, c: int, n: int):
    blocks = []
    offset = 0
    for j in range(c + 1):
        m = n - j
        r = F.known_rank(m)
        if r is None:
            raise InvalidInputError(f"rank of F at {m} undetermined")
        if r == 0:
            continue
        for beta in subsets_of_size(c, j):
            blocks.append(BlockInfo(beta, m, r, offset))
            offset += r
    return blocks


def assemble(F: FreeComplex, family: HomotopyFamily) -> ProductComplex:
    """Build the product complex from a lift and a full-level family."""
    ring = F.ring
    c = ring.c
    if family.base is not F and family.base != F:
        raise InvalidInputError("family was solved on a different complex")
    if family.level < c:
        raise LevelTooLowError(
            f"assembly needs homotopies up to level {c}; family has level "
            f"{family.level}"
        )
    plo, phi = _product_window(F, c)
    blocks = {n: _blocks_for(F, c, n) for n in range(plo, phi + 1)}

    seq_deg = ring.seq_degrees
    twists = {}
    for n in range(plo, phi + 1):
        tw = []
        for blk in blocks[n]:
            shift = sum(seq_deg[i - 1] for i in blk.subset)
            tw.extend(a + shift for a in F.twists[blk.f_position])
        twists[n] = tuple(tw)

    diffs = {}
    for n in range(plo + 1, phi + 1):
        offsets = {(b.subset, b.f_position): b.offset for b in blocks[n - 1]}
        rows = [{} for _ in twists[n - 1]]
        for sblk in blocks[n]:
            beta, m, s0 = sblk.subset, sblk.f_position, sblk.offset
            # Koszul part: (-1)**m x tensor dK(e_beta), on the block diagonal
            for gamma, coeff in koszul_differential(ring, beta):
                if m % 2:
                    coeff = -coeff
                t0 = offsets[(gamma, m)]
                for g in range(sblk.rank):
                    rows[t0 + g][s0 + g] = coeff
            # homotopy part: signs (-1)**(m |alpha|) and the wedge sign
            rest = tuple(i for i in range(1, c + 1) if i not in beta)
            for asize in range(len(rest) + 1):
                for alpha in combinations(rest, asize):
                    t = family.map(alpha, m)
                    if t is None:
                        raise InvalidInputError(
                            f"family does not determine t^{alpha} at {m}"
                        )
                    if t.is_zero():
                        continue
                    gamma, sign = wedge(alpha, beta)
                    if (m * asize) % 2:
                        sign = -sign
                    # a nonzero map has a nonzero target rank, hence a block
                    t0 = offsets[(gamma, m - asize - 1)]
                    for i, j, p in t.nonzeros():
                        rows[t0 + i][s0 + j] = p if sign > 0 else -p
        diffs[n] = PolyMatrix._from_sparse(len(rows), len(twists[n]), rows, ring.zero)

    product = FreeComplex(
        ring,
        "Q",
        (plo, phi),
        twists,
        diffs,
        support=F.support,
    )
    return ProductComplex(product, F, blocks, family)


# -- epsilon projection ---------------------------------------------------------


@dataclass
class EpsilonReport:
    ok: bool
    maps: dict  # position -> PolyMatrix (over R)
    positions: list
    first_failure: tuple | None  # (position, row, col)


def epsilon_C(P: ProductComplex, cbar: FreeComplex) -> EpsilonReport:
    """The projection of the product onto its defining R-complex: at each
    position select the e_{()} block and reduce mod (f).  Checks that the
    squares against both differentials commute over R, which holds exactly
    when the assembled lift really lifts ``cbar``: each residual
    eps_{n-1} D_n - d_n eps_n is one ``product_sum``, and every entry must
    lie in (f)."""
    ring = P.ring
    if cbar.over != "R":
        raise InvalidInputError("epsilon_C compares against a complex over R")
    plo, phi = P.complex.window
    maps = {}
    for n in range(plo, phi + 1):
        r_c = cbar.known_rank(n)
        if r_c is None:
            raise InvalidInputError(f"cbar rank unknown at {n}")
        r_p = len(P.complex.twists[n])
        blk = next((b for b in P.blocks[n] if b.subset == ()), None)
        blk_rank = blk.rank if blk else 0
        if blk_rank != r_c:
            raise InvalidInputError(
                f"unit block rank {blk_rank} at {n} does not match cbar "
                f"rank {r_c}"
            )
        one = ring.one
        rows = [{blk.offset + g: one} for g in range(r_c)]  # r_c = 0 without blk
        maps[n] = PolyMatrix._from_sparse(r_c, r_p, rows, ring.zero)

    positions = []
    first = None
    ok = True
    for n in range(plo + 1, phi + 1):
        d_c = cbar.differential(n)
        if d_c is None:
            continue
        positions.append(n)
        resid = product_sum(
            ring, [(1, maps[n - 1], P.complex.diffs[n]), (-1, d_c, maps[n])]
        )
        for i, j, p in resid.nonzeros():
            if not ring.in_sequence_ideal(p):
                ok = False
                if first is None:
                    first = (n, i, j)
                break
    return EpsilonReport(ok, maps, positions, first)


# -- rank bookkeeping -------------------------------------------------------------


@dataclass
class PositionRank:
    position: int
    actual: int
    expected: int
    ok: bool


@dataclass
class VandermondeReport:
    c: int
    d: int
    n: int
    terms: list
    lhs: int
    rhs: int
    ok: bool


@dataclass
class RankReport:
    per_position: list
    blockwise_ok: bool
    total: tuple | None  # (product total, 2^c * base total, ok)
    ok: bool


def vandermonde_identity(c: int, d: int, n: int) -> VandermondeReport:
    """Convolution sum_i C(c,i) C(d-c, n-i) against C(d,n), by direct
    summation."""
    if not (0 <= c <= d):
        raise InvalidInputError("need 0 <= c <= d")
    terms = [
        math.comb(c, i) * math.comb(d - c, n - i)
        for i in range(0, c + 1)
        if 0 <= n - i <= d - c
    ]
    lhs = sum(terms)
    rhs = math.comb(d, n) if 0 <= n <= d else 0
    return VandermondeReport(c, d, n, terms, lhs, rhs, lhs == rhs)


def rank_report(P: ProductComplex) -> RankReport:
    """Blockwise and total rank accounting for an assembly.

    Every rank of the input is read from ``P.lift``, which carries the
    input's twists.  Every position must satisfy rank P_n = sum_i C(c,i)
    rank F_{n-i}, and every block must have the rank of its F position;
    for finite complexes the totals must satisfy sum rank P = 2^c sum
    rank F."""
    F = P.lift
    c = P.ring.c
    per = []
    blockwise_ok = True
    for n in P.complex.positions():
        actual = len(P.complex.twists[n])
        expected = 0
        for i in range(c + 1):
            r = F.known_rank(n - i)
            if r is None:
                raise InvalidInputError(f"rank undetermined at {n - i}")
            expected += math.comb(c, i) * r
        per.append(PositionRank(n, actual, expected, actual == expected))
        for blk in P.blocks[n]:
            if blk.rank != F.known_rank(blk.f_position):
                blockwise_ok = False

    total = None
    if P.complex.support == "finite":
        base_total = sum(F.known_rank(m) for m in F.positions())
        product_total = sum(len(P.complex.twists[n]) for n in P.complex.positions())
        total = (product_total, (2**c) * base_total, product_total == (2**c) * base_total)

    ok = all(p.ok for p in per) and blockwise_ok and (total is None or total[2])
    return RankReport(per, blockwise_ok, total, ok)


# -- minimality and the degenerate shapes -------------------------------------------


@dataclass
class MinimalityReport:
    minimal: bool
    lifts: bool  # all homotopies vanish: d = dF + dK, a lifted product
    matrix_factorization: bool
    labels: list


def minimality_and_lifting_report(P: ProductComplex) -> MinimalityReport:
    """Classify the assembly: minimality of the product differential,
    the lifted-product case (every homotopy map is zero), and the
    codimension-one matrix factorization case (t^{e_1} is a unit multiple
    of the identity at every position)."""
    ring = P.ring
    minimal = is_minimal(P.complex)

    lifts = True
    for alpha, positions in P.family.maps.items():
        for mat in positions.values():
            if not mat.is_zero():
                lifts = False
                break
        if not lifts:
            break

    mf = False
    if ring.c == 1:
        stored = P.family.maps.get((1,), {})
        square = [mat for mat in stored.values() if mat.nrows and mat.ncols]
        mf = bool(square)
        for mat in square:
            if mat.nrows != mat.ncols:
                mf = False
                break
            # every row holds exactly its diagonal entry, one common unit
            diag = mat.entry(0, 0)
            cells = list(mat.nonzeros())
            if (
                list(diag.terms) != [(0,) * ring.nvars]
                or len(cells) != mat.nrows
                or any(i != j or p != diag for i, j, p in cells)
            ):
                mf = False
                break

    labels = []
    if minimal:
        labels.append("MINIMAL")
    if lifts:
        labels.append("LIFTS")
    if mf:
        labels.append("MATRIX_FACTORIZATION")
    return MinimalityReport(minimal, lifts, mf, labels)


# -- text rendering -----------------------------------------------------------------


def render_matrix(entries, col_groups=None, row_groups=None) -> str:
    """Align a matrix of strings into bracketed rows, with '|' separators
    after the listed column group sizes and dashed rules after row groups."""
    nrows = len(entries)
    ncols = len(entries[0]) if nrows else 0
    if nrows == 0 or ncols == 0:
        return f"[empty {nrows}x{ncols}]"
    widths = [max(len(entries[i][j]) for i in range(nrows)) for j in range(ncols)]
    col_breaks = set()
    if col_groups:
        acc = 0
        for g in col_groups[:-1]:
            acc += g
            col_breaks.add(acc)
    row_breaks = set()
    if row_groups:
        acc = 0
        for g in row_groups[:-1]:
            acc += g
            row_breaks.add(acc)
    lines = []
    for i in range(nrows):
        cells = []
        for j in range(ncols):
            if j in col_breaks:
                cells.append("|")
            cells.append(entries[i][j].rjust(widths[j]))
        lines.append("[ " + "  ".join(cells) + " ]")
        if (i + 1) in row_breaks:
            lines.append("[" + "-" * (len(lines[-1]) - 2) + "]")
    return "\n".join(lines)


def render_position(P: ProductComplex, n: int) -> str:
    parts = [P.block_label(b) + f"^{b.rank}" for b in P.blocks[n]]
    return f"P_{n} = " + (" + ".join(parts) if parts else "0")


def render_differential(P: ProductComplex, n: int) -> str:
    mat = P.complex.diffs[n]
    if mat.nrows == 0 or mat.ncols == 0:
        return f"d_{n}: [empty {mat.nrows}x{mat.ncols}]"
    entries = matrix_to_json(mat)
    col_groups = [b.rank for b in P.blocks[n]]
    row_groups = [b.rank for b in P.blocks[n - 1]]
    return f"d_{n}:\n" + render_matrix(entries, col_groups, row_groups)


def permute_matrix(mat: PolyMatrix, row_order, col_order) -> PolyMatrix:
    """Reindex rows and columns: new[i][j] = old[row_order[i]][col_order[j]]."""
    rows = [[mat.entry(r, c) for c in col_order] for r in row_order]
    return PolyMatrix(len(row_order), len(col_order), rows)


def reverse_block_order(P: ProductComplex, n: int) -> list:
    """Generator order with the blocks reversed (Koszul factor first); the
    conventional display order for codimension one."""
    order = []
    for blk in reversed(P.blocks[n]):
        order.extend(range(blk.offset, blk.offset + blk.rank))
    return order
