"""Sparse Gauss-Jordan elimination, the one row reduction behind every rank,
solve and nullspace over F_p and over Q.

Rows are dicts {column: nonzero entry}: ints in [0, p) over F_p; over Q,
Fractions or ints.  ``echelon`` is the forward pass and finds the pivot
columns, which is all a rank needs; ``reduced_rows`` adds the back
substitution, and ``gauss_jordan``, ``kernel_basis`` and
``algebra.GradedRing.quotient_basis`` read their results off its rows.
The reduced row echelon form of a matrix is unique for its column order,
so the order in which rows become pivots does not change the result.

Over Q the elimination runs on primitive integer rows (integer-preserving
elimination, Bareiss 1968, in the primitive-row form with content removal).
On entry each row is scaled in place by the lcm of its denominators
(``clear_denominators``, which ``algebra.product_sum`` also uses on the
terms of its factors) and divided by its content, the gcd of its entries.
A row step is ``row = (lead/g)*row - (b/g)*pivot_row`` with
g = gcd(lead, b), followed by division by the content.  That is the
rational row step up to a nonzero scalar, so every row keeps the support it
would have over Fractions: the sparsest-pivot choice, the fill and the
pivot columns are those of the rational elimination.  Fractions appear
only at the kernel's boundary: ``gauss_jordan`` divides each reduced row by
its lead, one ``Fraction`` per nonzero; ``kernel_basis`` builds one negated
``Fraction`` per kernel-vector entry straight from the integer rows; and
``echelon`` hands back its integer pivot rows, of which callers read only
the keys.  ``quotient_basis`` reads R's forms off the integer rows as ints.

``linalg.pivot_columns`` and ``linalg.nullspace_columns`` (resolve's
counting and Nakayama pick, and its syzygy kernel, both on R-coordinate
columns, and the ranks of ``complexes.homology_dims`` over Q) and
``linalg.extend_pivots`` transpose sparse columns into dict rows;
``linalg.rank`` (for ``homology_dims`` over R) and ``linalg.nullspace``
(kept for the benchmark's tracer) scan dense list rows into them.  All
hand those rows straight to ``echelon`` or ``kernel_basis``.  ``rref_mod``
wraps ``gauss_jordan`` for an int64 array; only ``linalg.rref`` over F_p
takes that route, and only the homotopy solve calls it.  This module does not
import numpy: ``rref_mod`` uses nothing but the methods of the array it is
handed, so numpy is loaded only when ``linalg.rref`` first builds one.  The
array stays, and numpy with it, because ``perfbench/tracing.py`` probes
``rref_mod`` and reads the array's size and shape.
"""

import heapq
from fractions import Fraction
from math import gcd, lcm


def _subtract(row: dict, f: int, prow: dict, p: int) -> None:
    """row -= f * prow over F_p, dropping the entries that cancel."""
    get = row.get
    for k, v in prow.items():
        x = (get(k, 0) - f * v) % p
        if x:
            row[k] = x
        else:
            del row[k]


def _divide_content(row: dict) -> None:
    """Divide the integer row ``row`` in place by the gcd of its entries."""
    g = gcd(*row.values())
    if g != 1:
        for k, v in row.items():
            row[k] = v // g


def clear_denominators(row: dict) -> int:
    """Scale the rationals (Fractions or ints) of ``row`` in place to ints
    by the lcm of their denominators, and return that lcm (1 when empty)."""
    den = lcm(*[v.denominator for v in row.values()])
    if den == 1:
        for k, v in row.items():
            row[k] = v.numerator
    else:
        for k, v in row.items():
            row[k] = v.numerator * (den // v.denominator)
    return den


def _make_primitive(row: dict) -> None:
    """Scale the rational row ``row`` in place to a primitive integer row."""
    clear_denominators(row)
    _divide_content(row)


def _combine(row: dict, b: int, lead: int, prow: dict) -> None:
    """Clear the entry ``b`` of the primitive integer row ``row`` in the
    pivot column of ``prow``, whose entry there is ``lead``: row becomes
    (lead/g)*row - (b/g)*prow with g = gcd(lead, b), made primitive."""
    g = gcd(lead, b)
    a, b = lead // g, b // g
    if a != 1:
        for k in row:
            row[k] *= a
    get = row.get
    for k, v in prow.items():
        x = get(k, 0) - b * v
        if x:
            row[k] = x
        else:
            del row[k]
    if row:
        _divide_content(row)


def echelon(rows, char: int) -> dict:
    """Row echelon form of the dict rows ``rows`` over F_char (Q when
    ``char`` is 0): {pivot column: pivot row}, in ascending column order.
    Each pivot row has no entry in an earlier column; over F_p it holds a 1
    in its pivot column, over Q it is a primitive integer row.  ``rows``
    are modified.

    Columns are taken in ascending order and only the rows that lead in the
    current column are touched; the sparsest of them becomes the pivot,
    which keeps the fill down.  The pivot columns are those of the reduced
    row echelon form, so a rank needs nothing more.
    """
    leading: dict = {}  # column -> the rows whose first entry is there
    for row in rows:
        if row:
            if not char:
                _make_primitive(row)
            leading.setdefault(min(row), []).append(row)
    queue = list(leading)
    heapq.heapify(queue)
    pivots = {}
    while queue:
        col = heapq.heappop(queue)
        group = leading.pop(col)
        pick = prow = min(group, key=len)
        lead = prow[col]
        if char and lead != 1:
            inv = pow(lead, -1, char)
            prow = {k: v * inv % char for k, v in prow.items()}
        pivots[col] = prow
        for row in group:
            if row is pick:
                continue
            if char:
                _subtract(row, row[col], prow, char)
            else:
                _combine(row, row[col], lead, prow)
            if row:
                first = min(row)
                if first not in leading:
                    leading[first] = []
                    heapq.heappush(queue, first)
                leading[first].append(row)
    return pivots


def reduced_rows(rows, char: int) -> dict:
    """``echelon``, then each pivot row cleared in the other pivot columns,
    last pivot first: the reduced row echelon form as {pivot column: row},
    with a 1 in each pivot column over F_p and, over Q, up to the scale of
    each (primitive integer) row.  ``rows`` are modified."""
    pivots = echelon(rows, char)
    for col in reversed(pivots):
        row = pivots[col]
        for c in [c for c in row if c != col and c in pivots]:
            if char:
                _subtract(row, row[c], pivots[c], char)
            else:
                _combine(row, row[c], pivots[c][c], pivots[c])
    return pivots


def gauss_jordan(rows, char: int) -> list:
    """Reduced row echelon form of the dict rows ``rows`` over F_char (Q
    when ``char`` is 0), as (pivot column, reduced row) pairs in ascending
    column order.  Each reduced row holds a 1 in its pivot column and no
    entry in any other pivot column; over Q its entries are Fractions.
    ``rows`` are modified.
    """
    pivots = reduced_rows(rows, char)
    if char:
        return list(pivots.items())
    return [
        (col, {k: Fraction(v, row[col]) for k, v in row.items()})
        for col, row in pivots.items()
    ]


def kernel_basis(rows, ncols: int, char: int) -> list:
    """Kernel basis of the dict rows ``rows`` with ``ncols`` columns, one
    sparse vector per free column fc in ascending order: 1 at fc, then
    -R[r][fc] at the pivot column of each row r of the RREF R, built once
    from the integer rows over Q.  ``rows`` are modified."""
    pivots = reduced_rows(rows, char)
    one = 1 if char else Fraction(1)
    basis = {fc: {fc: one} for fc in range(ncols) if fc not in pivots}
    for col, row in pivots.items():
        lead = row[col]
        for fc, v in row.items():
            if fc != col:
                basis[fc][col] = char - v if char else Fraction(-v, lead)
    return list(basis.values())


def rref_mod(a, p: int, pivots) -> int:
    """Reduce the int64 array ``a`` in place mod p to its reduced row
    echelon form, with entries in [0, p) and the rows past the rank zeroed.

    Writes the pivot columns into ``pivots`` (room for min(nrows, ncols)
    entries) and returns the rank.
    """
    a %= p
    rows = [{} for _ in range(a.shape[0])]
    nz_rows, nz_cols = a.nonzero()
    for i, j, v in zip(nz_rows.tolist(), nz_cols.tolist(), a[nz_rows, nz_cols].tolist()):
        rows[i][j] = v
    reduced = gauss_jordan(rows, p)
    a.fill(0)
    for i, (col, row) in enumerate(reduced):
        pivots[i] = col
        a[i, list(row)] = list(row.values())
    return len(reduced)
