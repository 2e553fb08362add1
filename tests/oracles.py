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
