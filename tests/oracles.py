"""Independent reference implementations used as oracles.

Everything here is written naively from first principles, on purpose:
dict-based polynomials, textbook row reduction over Fraction and mod p,
brute-force permutation signs. Tests compare the package against these,
never the package against itself.
"""

from fractions import Fraction
from itertools import product


# -- naive exact linear algebra ------------------------------------------------


def naive_rref(rows):
    """Textbook Gauss-Jordan over Fraction. Returns (rref_rows, pivot_cols)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if mat[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                factor = mat[i][c]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def naive_rref_mod(rows, p):
    """Textbook Gauss-Jordan mod p on a copy of ``rows``, entries reduced
    first.  Returns (rref_rows, pivot_cols); rows past the rank are zero."""
    mat = [[x % p for x in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = pow(mat[r][c], p - 2, p)
        mat[r] = [v * inv % p for v in mat[r]]
        for i in range(nrows):
            factor = mat[i][c]
            if i != r and factor:
                mat[i] = [(a - factor * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat, pivots


def naive_rank(rows):
    return len(naive_rref(rows)[1])


def naive_nullspace_dim(rows, ncols):
    if not rows:
        return ncols
    return ncols - naive_rank(rows)


def naive_solve(rows, rhs):
    """Any solution of rows * x = rhs over Fraction, or None."""
    if not rows:
        return None if any(v != 0 for v in rhs) else []
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    red, pivots = naive_rref(aug)
    ncols = len(rows[0])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][ncols]
    return x


def naive_rank_over(p, rows):
    """Rank over F_p, or over Q when p is 0, by textbook elimination."""
    if not rows or not rows[0]:
        return 0
    return len((naive_rref_mod(rows, p) if p else naive_rref(rows))[1])


# -- homology of an R-complex in Q-coordinates ---------------------------------


def block_diagonal_span_rows(ring, twists, d):
    """Rows spanning the degree-d piece of (f) * F inside the free module F
    with the given twists: one copy of the ring's W_{d-a} (the f-span of Q
    itself) per generator, on that generator's rows and columns, zero
    elsewhere."""
    from koszul_lift.algebra import graded_matrix_rows, module_dim, span_map

    widths = [module_dim(ring, ring.seq_degrees, d - a) for a in twists]
    out = []
    for k, a in enumerate(twists):
        left, right = sum(widths[:k]), sum(widths[k + 1 :])
        for row in graded_matrix_rows(ring, *span_map(ring, (0,)), (0,), d - a):
            out.append([0] * left + row + [0] * right)
    return out


def homology_dim_in_Q_coordinates(C, n, d):
    """dim_k H_n(C)_d of a complex C over R = Q/(f), without a basis of R.

    The degree-d piece of F_n tensor R is V_n / W_n, with V_n the piece of
    F_n over Q and W_n the span of the f-multiples in it, so
    dim H_n = dim V_n - rank[d_n | W_{n-1}] + rank W_{n-1} - rank[d_{n+1} | W_n].
    The coordinates of d_n come from ``graded_matrix_rows``; W comes from
    ``block_diagonal_span_rows``, so the oracle does not use ``span_map``
    for general twists; the ranks come from textbook elimination.
    """
    from koszul_lift.algebra import graded_matrix_rows, module_dim

    ring = C.ring
    p = ring.field.char

    def span(m):
        return block_diagonal_span_rows(ring, C.known_twist(m), d)

    def block_rank(m):
        rows = graded_matrix_rows(
            ring,
            C.differential(m).column_nonzeros(),
            C.known_twist(m),
            C.known_twist(m - 1),
            d,
        )
        return naive_rank_over(p, [r + w for r, w in zip(rows, span(m - 1))])

    dim = module_dim(ring, C.known_twist(n), d)
    return dim - block_rank(n) + naive_rank_over(p, span(n - 1)) - block_rank(n + 1)


# -- elements and cells, spelled out -------------------------------------------


def var(ring, name):
    """The variable ``name`` of ``ring``, as a Poly."""
    from koszul_lift.algebra import Poly

    return Poly(ring, {tuple(int(v == name) for v in ring.variables): 1})


def monomial(ring, expts):
    """The monomial with exponents ``expts``, as a Poly of Q: zero when it
    lies in J."""
    from koszul_lift.algebra import Poly

    return ring.normal_form(Poly(ring, {tuple(expts): 1}))


def coords(ring, p, d):
    """Dense coordinates of p (read mod J) over ``ring.monomial_basis(d)``;
    a ValueError when p is nonzero and not homogeneous of degree d."""
    terms = ring.normal_form(p).terms
    if terms and {sum(m) for m in terms} != {d}:
        raise ValueError(f"{p} is not homogeneous of degree {d}")
    return [terms.get(m, ring.field.zero) for m in ring.monomial_basis(d)]


def entries(mat):
    """Every cell of the PolyMatrix ``mat`` as ``(i, j, entry)``, zeros
    included, row-major."""
    return [(i, j, mat.entry(i, j)) for i in range(mat.nrows) for j in range(mat.ncols)]


# -- graded coordinates by multiplying out -------------------------------------


def reference_columns(ring, columns, src_twists, tgt_twists, d):
    """``graded_columns`` cell by cell: one sparse column per basis element
    mu of each source piece, every entry of the source column times mu,
    written out with ``coords`` on its own target block."""
    out = []
    for j, a in enumerate(src_twists):
        entries = dict(columns[j])
        for mu in ring.monomial_basis(d - a):
            dense = []
            for i, b in enumerate(tgt_twists):
                p = ring.mul(entries.get(i, ring.zero), monomial(ring, mu))
                dense += coords(ring, p, d - b)
            out.append({r: v for r, v in enumerate(dense) if v})
    return out


def reference_quotient_rows(ring, columns, src_twists, tgt_twists, d):
    """The map of ``algebra.quotient_columns`` read over the field, cell by
    cell: for each basis monomial mu of R_{d-a} (``quotient_basis``) and each entry p of the source column, the
    product p * mu reduced mod J, its every term replaced by that
    monomial's normal form in R_{d-b} (the integer form over its ``den``),
    on the target block of the entry's row.  Dense list rows."""
    field = ring.field
    blocks = [ring.quotient_basis(d - b) for b in tgt_twists]
    offsets = [sum(len(basis) for basis, _, _ in blocks[:i]) for i in range(len(blocks))]
    nrows = sum(len(basis) for basis, _, _ in blocks)
    cols = []
    for j, a in enumerate(src_twists):
        entries = dict(columns[j])
        for mu in ring.quotient_basis(d - a)[0]:
            vec = [field.zero] * nrows
            for i, (_, forms, den) in enumerate(blocks):
                p = ring.mul(entries.get(i, ring.zero), monomial(ring, mu))
                for m, c in p.terms.items():
                    for k, v in forms[m].items():
                        r = offsets[i] + k
                        vec[r] = field.add(vec[r], field.mul(c, field(Fraction(v, den))))
            cols.append(vec)
    return [[col[r] for col in cols] for r in range(nrows)]


# -- resolve in Q-coordinates ---------------------------------------------------


def minimal_generators_in_Q_coordinates(ring, twists, candidates):
    """Graded Nakayama in Q-coordinates.  In each degree d the base holds
    the columns of W_d (the image of ``span_map``) and the multiples of
    every generator chosen so far, all in Q-coordinates
    (``graded_columns``), and each candidate vector is offered to
    ``linalg.extend_pivots`` as it is.  Returns the generators' degrees and
    columns, as ``(row, Poly)`` pairs built from the picked vectors."""
    from koszul_lift import linalg
    from koszul_lift.algebra import coords_to_columns, graded_columns, module_dim, span_map

    span_cols, span_twists = span_map(ring, twists)
    degs, cols = [], []
    for d, vecs in candidates:
        base = graded_columns(ring, span_cols + cols, span_twists + tuple(degs), twists, d)
        picked = linalg.extend_pivots(ring.field, base, vecs, module_dim(ring, twists, d))
        bases = [ring.monomial_basis(d - a) for a in twists]
        cols += coords_to_columns(ring, bases, [vecs[k] for k in picked])
        degs += [d] * len(picked)
    return degs, cols


def resolve_in_Q_coordinates(ring, presentation, length, degree_bound):
    """``resolve.resolve_over_R`` as it was before it worked in
    R-coordinates, the reference for the old path.  Every candidate is a
    Q-coordinate vector on the degree-d piece of the free Q-module: the
    presentation columns at step one, and later the source parts of a
    nullspace basis of the block [d_{n-1} | span], where span holds the
    columns of W_d of the target (``span_map``).  Those source parts span
    W_d of the source together with lifts of the syzygies over R, and
    ``minimal_generators_in_Q_coordinates`` picks among them.  A generator
    at ``degree_bound`` is a DegreeBoundTooLowError, as in the package."""
    from koszul_lift import linalg
    from koszul_lift.algebra import PolyMatrix, graded_columns, module_dim, span_map
    from koszul_lift.complexes import FreeComplex
    from koszul_lift.errors import DegreeBoundTooLowError

    def relation_candidates(twists):
        columns = presentation.relations.column_nonzeros()
        col_degs = presentation.column_degrees(ring)
        for d in sorted(set(col_degs) - {None}):
            here = [columns[j] for j, dj in enumerate(col_degs) if dj == d]
            yield d, graded_columns(ring, here, [d] * len(here), twists, d)

    def syzygy_candidates(mat, src, tgt):
        span_cols, span_twists = span_map(ring, tgt)
        block = mat.column_nonzeros() + span_cols
        for d in range(min(src, default=degree_bound + 1), degree_bound + 1):
            ns = module_dim(ring, src, d)
            if ns:
                cols = graded_columns(ring, block, tuple(src) + span_twists, tgt, d)
                null = linalg.nullspace_columns(ring.field, cols, module_dim(ring, tgt, d))
                yield d, [{i: v for i, v in vec.items() if i < ns} for vec in null]

    twists, diffs = {0: presentation.twists}, {}
    for n in range(1, length + 1):
        if n == 1:
            candidates = relation_candidates(twists[0])
        else:
            candidates = syzygy_candidates(diffs[n - 1], twists[n - 1], twists[n - 2])
        degs, cols = minimal_generators_in_Q_coordinates(ring, twists[n - 1], candidates)
        if degs and degs[-1] == degree_bound:
            raise DegreeBoundTooLowError(f"generators at the bound (position {n})")
        rows = [{} for _ in twists[n - 1]]
        for k, col in enumerate(cols):
            for i, p in col:
                rows[i][k] = p
        twists[n] = tuple(degs)
        diffs[n] = PolyMatrix._from_sparse(len(rows), len(cols), rows, ring.zero)
    return FreeComplex(ring, "R", (0, length), twists, diffs, support="bounded_below")


# -- resolve with a kernel in every degree ---------------------------------------


def resolve_by_full_kernels(ring, presentation, length, degree_bound):
    """``resolve.resolve_over_R`` as it was before it counted ranks, the
    reference for the counting path.  In R-coordinates, at every step and
    every degree: the candidates are the presentation's columns read over R
    (step one, only in the degrees that have columns) or the whole kernel
    of d_{n-1}'s R-matrix, built afresh from the finished differential,
    with each coordinate times its generator's ``column_denominator`` over
    Q; and ``linalg.extend_pivots`` picks among them against the multiples
    of the generators chosen so far.  A generator at ``degree_bound`` is a
    DegreeBoundTooLowError, as in the package."""
    from koszul_lift import linalg
    from koszul_lift.algebra import (
        PolyMatrix, column_denominator, coords_to_columns, quotient_columns,
        quotient_module_dim,
    )
    from koszul_lift.complexes import FreeComplex
    from koszul_lift.errors import DegreeBoundTooLowError

    field = ring.field

    def pick(twists, degs, cols, d, vecs):
        if not vecs:
            return []
        base = quotient_columns(ring, cols, degs, twists, d)
        return linalg.extend_pivots(field, base, vecs, quotient_module_dim(ring, twists, d))

    twists, diffs = {0: presentation.twists}, {}
    for n in range(1, length + 1):
        src = twists[n - 1]
        degs, cols = [], []
        if n == 1:
            columns = [
                [(i, q) for i, p in col if (q := ring.normal_form(p)).terms]
                for col in presentation.relations.column_nonzeros()
            ]
            col_degs = presentation.column_degrees(ring)
            for d in sorted(set(col_degs) - {None}):
                here = [columns[j] for j, dj in enumerate(col_degs) if dj == d]
                vecs = quotient_columns(ring, here, [d] * len(here), src, d)
                picked = pick(src, degs, cols, d, vecs)
                cols += [here[k] for k in picked]
                degs += [d] * len(picked)
        else:
            columns = diffs[n - 1].column_nonzeros()
            dens = None if field.char else [column_denominator(col) for col in columns]
            for d in range(min(src, default=degree_bound + 1), degree_bound + 1):
                bases = [ring.quotient_basis(d - a)[0] for a in src]
                sums = quotient_columns(ring, columns, src, twists[n - 2], d)
                nrows = quotient_module_dim(ring, twists[n - 2], d)
                null = linalg.nullspace_columns(field, sums, nrows)
                if dens:
                    scale = [den for den, basis in zip(dens, bases) for _ in basis]
                    null = [{i: v * scale[i] for i, v in vec.items()} for vec in null]
                picked = pick(src, degs, cols, d, null)
                cols += coords_to_columns(ring, bases, [null[k] for k in picked])
                degs += [d] * len(picked)
        if degs and degs[-1] == degree_bound:
            raise DegreeBoundTooLowError(f"generators at the bound (position {n})")
        rows = [{} for _ in src]
        for k, col in enumerate(cols):
            for i, p in col:
                rows[i][k] = p
        twists[n] = tuple(degs)
        diffs[n] = PolyMatrix._from_sparse(len(rows), len(cols), rows, ring.zero)
    return FreeComplex(ring, "R", (0, length), twists, diffs, support="bounded_below")


# -- linear changes of the sequence's variables --------------------------------

# x, y, z -> x + y + z, x + 2y + z, x + y + 2z: determinant 1, so the change
# is invertible over Q and over every F_p
SEQUENCE_CHANGE = ((1, 1, 1), (1, 2, 1), (1, 1, 2))


def residue_ring(field):
    """k[x,y,z,w]/(w^2) with f = (x^2, y^2, z^3), whose residue field is
    the benchmark's residue workload."""
    from koszul_lift.algebra import GradedRing

    return GradedRing(
        field, ["x", "y", "z", "w"], relations=["w^2"], sequence=["x^2", "y^2", "z^3"]
    )


def coordinate_changed_ring(ring, change=SEQUENCE_CHANGE):
    """``ring`` with each f_i moved by the linear change of variables
    ``change``: the first ``len(change)`` variables v become the linear
    forms l_v = sum_u change[v][u] * x_u, so x_i^a becomes l_i^a.  J must
    not involve those variables; then an invertible change is an
    automorphism of P that fixes J, so f stays regular and the graded Betti
    numbers of any module whose presentation it fixes do not change.  The
    powers of l_v are built with ``GradedRing.mul`` and the sequence is
    handed over as ``format_poly`` text, as the parser takes no
    parentheses."""
    from koszul_lift.algebra import GradedRing, Poly, format_poly

    n, nvars = len(change), ring.nvars
    assert not any(g[:n] != (0,) * n for g in ring.relations), "J involves a changed variable"

    def unit(v):
        return tuple(int(u == v) for u in range(nvars))

    forms = [Poly(ring, {unit(u): c for u, c in enumerate(row) if c}) for row in change]
    sequence = []
    for f in ring.sequence:
        total = ring.zero
        for m, c in f.terms.items():
            term = Poly(ring, {(0,) * n + m[n:]: c})
            for v in range(n):
                for _ in range(m[v]):
                    term = ring.mul(term, forms[v])
            total = total + term
        sequence.append(format_poly(total))
    relations = [ring.format_monomial(g) for g in ring.relations]
    return GradedRing(ring.field, ring.variables, relations=relations, sequence=sequence)


# -- seeded complexes with homology --------------------------------------------


def finite_complex_cases(rng, count):
    """``count`` seeded ``(ring, K)`` inputs for the product pipeline whose
    homology is not concentrated at one end.  K is the Koszul complex
    ``samples.random_finite_complex`` on 1 or 2 random elements of R, with
    c alternating 1, 2 and F_32003 for the first half of the cases, Q for
    the rest.  A Koszul complex is a complex over Q already, so its
    homotopies would all vanish; every cell of K therefore gets a random
    multiple of each f_i of the cell's degree added.  That changes the lift
    to Q, not K over R.  Drawn here rather than in ``samples``, so that the
    inputs of ``verify --seed`` and their digests do not move."""
    from koszul_lift.algebra import PolyMatrix
    from koszul_lift.complexes import FreeComplex
    from koszul_lift.fields import GF, QQ
    from koszul_lift.samples import (
        random_finite_complex,
        random_homogeneous,
        random_regular_ring,
    )

    for case in range(count):
        field = GF(32003) if 2 * case < count else QQ
        c = 1 + case % 2
        ring = random_regular_ring(rng, field, rng.randint(c, 3), c)
        K = random_finite_complex(rng, ring, rng.randint(1, 2))
        diffs = {}
        for n, mat in K.diffs.items():
            rows = []
            for i, b in enumerate(K.twists[n - 1]):
                row = []
                for j, a in enumerate(K.twists[n]):
                    p = mat.entry(i, j)
                    for f, e in zip(ring.sequence, ring.seq_degrees):
                        if a - b >= e:
                            p = p + ring.mul(f, random_homogeneous(rng, ring, a - b - e))
                    row.append(p)
                rows.append(row)
            diffs[n] = PolyMatrix(mat.nrows, mat.ncols, rows)
        yield ring, FreeComplex(ring, K.over, K.window, K.twists, diffs, support=K.support)


# -- homotopies by the dense grid of matrix cells --------------------------------


def dense_grid_homotopies(F, level):
    """The homotopy family of ``homotopy.solve_homotopies`` with every cell
    (r, s) of every map in a degree group of its own entry degree, zero
    residuals included: at each level and position, each degree group's
    cells are solved together by one ``solve_graded_linear`` call whose
    right-hand sides are (-1)**level times the pair sums at the cells.
    Degree groups are taken in the order their degrees first occur in the
    row-major grid, and cells row-major within a group; each row of a map
    holds its columns in ascending order."""
    from koszul_lift.algebra import PolyMatrix, solve_graded_linear
    from koszul_lift.homotopy import HomotopyFamily, pair_sum
    from koszul_lift.koszul import koszul_complex, subsets_of_size

    ring = F.ring
    kos = koszul_complex(ring)
    H = HomotopyFamily(F, 0, {})
    for size in range(1, level + 1):
        gammas = list(subsets_of_size(ring.c, size - 1))
        mus = list(subsets_of_size(ring.c, size))
        new_maps = {mu: {} for mu in mus}
        for n in F.positions():
            src_rank = F.known_rank(n)
            tgt_rank = F.known_rank(n - size - 1)
            if not src_rank or not tgt_rank:
                continue
            residuals = [pair_sum(H, gamma, n) for gamma in gammas]
            if None in residuals:
                continue
            src_tw = F.twists[n]
            tgt_tw = F.known_twist(n - size - 1)
            groups = {}
            for r in range(tgt_rank):
                for s in range(src_rank):
                    groups.setdefault(src_tw[s] - tgt_tw[r], []).append((r, s))
            entries = {mu: [{} for _ in range(tgt_rank)] for mu in mus}
            for e, cells in groups.items():
                rhs_rows = [{} for _ in residuals]
                for res, row in zip(residuals, rhs_rows):
                    for k, (r, s) in enumerate(cells):
                        p = res.entry(r, s)
                        if p.terms:
                            row[k] = -p if size % 2 else p
                rhs = PolyMatrix._from_sparse(len(gammas), len(cells), rhs_rows, ring.zero)
                sols = solve_graded_linear(
                    ring, kos.diffs[size], kos.twists[size], kos.twists[size - 1], e, rhs
                )
                for (r, s), sol in zip(cells, sols):
                    assert sol is not None, (size, n, r, s)
                    for k, p in sol:
                        entries[mus[k]][r][s] = p
            for mu in mus:
                rows = [dict(sorted(row.items())) for row in entries[mu]]
                new_maps[mu][n] = PolyMatrix._from_sparse(tgt_rank, src_rank, rows, ring.zero)
        merged = dict(H.maps)
        merged.update(new_maps)
        H = HomotopyFamily(F, size, merged)
    return H


# -- minimal form of a complex by dense block steps ----------------------------


def minimize_by_blocks(C):
    """The block rule of ``complexes.minimize``, run on dense rows with
    Poly arithmetic cell by cell.  For n ascending and each source twist t
    of F_n ascending: M holds the constant terms of d_n in the rows and
    columns of twist t; the pivot rows A are the rows of M, top to bottom,
    that raise the rank of those kept before; the pivot columns J are the
    pivot columns of M[A] (``naive_rref``); Phi^-1 is read off the RREF of
    [Phi | I]; d_n becomes E - Gamma Phi^-1 Delta, each cell reduced by
    ``ring.normal_form``; rows J of d_{n+1} and columns A of d_{n-1} are
    deleted."""
    from koszul_lift.algebra import PolyMatrix
    from koszul_lift.complexes import FreeComplex

    ring = C.ring
    p = ring.field.char

    def rref(rows):
        return naive_rref_mod(rows, p) if p else naive_rref(rows)

    twists = {n: list(C.twists[n]) for n in C.positions()}
    d = {n: [list(row) for row in mat.rows] for n, mat in C.diffs.items()}
    for n in sorted(d):
        for t in sorted(set(twists[n])):
            mat, src, tgt = d[n], twists[n], twists[n - 1]
            t_cols = [j for j, a in enumerate(src) if a == t]
            M = {
                i: [mat[i][j].constant_term() for j in t_cols]
                for i, b in enumerate(tgt)
                if b == t
            }
            A = []
            for i in M:
                if len(rref([M[a] for a in A + [i]])[1]) > len(A):
                    A.append(i)
            if not A:
                continue
            J = [t_cols[k] for k in rref([M[a] for a in A])[1]]
            r = len(A)
            phi_eye = [
                [M[a][t_cols.index(j)] for j in J] + [int(x == y) for x in range(r)]
                for y, a in enumerate(A)
            ]
            inv = [row[r:] for row in rref(phi_eye)[0]]  # inv[x][y]: Phi^-1 at (J_x, A_y)
            gamma_inv = {  # (Gamma Phi^-1)[i][y]
                i: [
                    sum((mat[i][j] * inv[x][y] for x, j in enumerate(J)), ring.zero)
                    for y in range(r)
                ]
                for i in range(len(tgt))
            }
            d[n] = [
                [
                    ring.normal_form(
                        mat[i][k]
                        - sum((g * mat[a][k] for g, a in zip(gamma_inv[i], A)), ring.zero)
                    )
                    for k in range(len(src))
                    if k not in J
                ]
                for i in range(len(tgt))
                if i not in A
            ]
            if n + 1 in d:
                d[n + 1] = [row for b, row in enumerate(d[n + 1]) if b not in J]
            if n - 1 in d:
                d[n - 1] = [[q for a, q in enumerate(row) if a not in A] for row in d[n - 1]]
            twists[n] = [a for j, a in enumerate(src) if j not in J]
            twists[n - 1] = [b for i, b in enumerate(tgt) if i not in A]
    diffs = {
        n: PolyMatrix(len(twists[n - 1]), len(twists[n]), rows)
        for n, rows in d.items()
    }
    return FreeComplex(ring, C.over, C.window, twists, diffs, support=C.support)


# -- naive polynomial arithmetic -----------------------------------------------
# a polynomial is a dict exponent-tuple -> Fraction; zero coefficients removed


def pdict(pairs):
    out = {}
    for mono, coeff in pairs:
        coeff = Fraction(coeff)
        if coeff:
            out[tuple(mono)] = out.get(tuple(mono), Fraction(0)) + coeff
            if not out[tuple(mono)]:
                del out[tuple(mono)]
    return out


def padd(f, g):
    out = dict(f)
    for mono, coeff in g.items():
        s = out.get(mono, Fraction(0)) + coeff
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)
    return out


def pscale(f, c):
    c = Fraction(c)
    return {m: v * c for m, v in f.items()} if c else {}


def pmul(f, g):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            s = out.get(m, Fraction(0)) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def preduce(f, gens):
    """Delete the monomials divisible by a generator of the monomial ideal."""

    def killed(mono):
        return any(
            all(a >= b for a, b in zip(mono, g)) for g in gens
        )

    return {m: c for m, c in f.items() if not killed(m)}


def monomials_of_degree(nvars, d):
    """All exponent tuples of total degree d, any order."""
    if nvars == 0:
        return [()] if d == 0 else []
    out = []
    for first in range(d + 1):
        for rest in monomials_of_degree(nvars - 1, d - first):
            out.append((first,) + rest)
    return out


def quotient_dim(nvars, gens, d):
    """dim over the field of degree-d piece of P/(monomial ideal)."""
    count = 0
    for mono in monomials_of_degree(nvars, d):
        if not any(all(a >= b for a, b in zip(mono, g)) for g in gens):
            count += 1
    return count


# -- brute-force signs ----------------------------------------------------------


def perm_sign(seq):
    """Sign of the permutation sorting seq, by counting inversions."""
    n = len(seq)
    inv = 0
    for i in range(n):
        for j in range(i + 1, n):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv % 2 else 1


def brute_wedge(alpha, beta):
    """(merged tuple, sign) by permutation sign, or (None, 0) on overlap."""
    if set(alpha) & set(beta):
        return None, 0
    concat = list(alpha) + list(beta)
    return tuple(sorted(concat)), perm_sign(concat)


def all_exponents_leq(bounds):
    """Iterate over exponent tuples componentwise below bounds."""
    return product(*(range(b + 1) for b in bounds))
