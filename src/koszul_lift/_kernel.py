"""Sparse Gauss-Jordan elimination, the one row reduction behind every rank,
solve and nullspace over F_p and over Q.

Rows are dicts {column: nonzero entry}: ints in [0, p) over F_p, Fractions
over Q.  ``echelon`` is the forward pass and finds the pivot columns, which
is all a rank needs; ``gauss_jordan`` adds the back substitution.  The
reduced row echelon form of a matrix is unique for its column order, so the
order in which rows become pivots does not change the result.

``rref_mod`` wraps ``gauss_jordan`` for an int64 array.  Only full
reductions over F_p (``linalg.rref``) take that route; rank-only calls hand
their dict rows to ``echelon`` directly.
"""

import heapq

import numpy as np


def _subtract(row: dict, f, prow: dict, char: int) -> None:
    """row -= f * prow, dropping the entries that cancel."""
    get = row.get
    for k, v in prow.items():
        x = get(k, 0) - f * v
        if char:
            x %= char
        if x:
            row[k] = x
        else:
            del row[k]


def echelon(rows, char: int) -> dict:
    """Row echelon form of the dict rows ``rows`` over F_char (Q when
    ``char`` is 0): {pivot column: pivot row}, in ascending column order.
    Each pivot row holds a 1 in its pivot column and no entry in an earlier
    column.  ``rows`` are modified.

    Columns are taken in ascending order and only the rows that lead in the
    current column are touched; the sparsest of them becomes the pivot,
    which keeps the fill down.  The pivot columns are those of the reduced
    row echelon form, so a rank needs nothing more.
    """
    leading: dict = {}  # column -> the rows whose first entry is there
    for row in rows:
        if row:
            leading.setdefault(min(row), []).append(row)
    queue = list(leading)
    heapq.heapify(queue)
    pivots = {}
    while queue:
        col = heapq.heappop(queue)
        group = leading.pop(col)
        pick = prow = min(group, key=len)
        lead = prow[col]
        if lead != 1:
            if char:
                inv = pow(lead, -1, char)
                prow = {k: v * inv % char for k, v in prow.items()}
            else:
                prow = {k: v / lead for k, v in prow.items()}
        pivots[col] = prow
        for row in group:
            if row is pick:
                continue
            _subtract(row, row[col], prow, char)
            if row:
                first = min(row)
                if first not in leading:
                    leading[first] = []
                    heapq.heappush(queue, first)
                leading[first].append(row)
    return pivots


def gauss_jordan(rows, char: int) -> list:
    """Reduced row echelon form of the dict rows ``rows`` over F_char (Q
    when ``char`` is 0), as (pivot column, reduced row) pairs in ascending
    column order.  Each reduced row holds a 1 in its pivot column and no
    entry in any other pivot column.  ``rows`` are modified.

    ``echelon`` does the forward elimination; back substitution then clears
    each pivot row's later pivot columns, last pivot first.
    """
    pivots = echelon(rows, char)
    for col in reversed(pivots):
        row = pivots[col]
        for c in [c for c in row if c != col and c in pivots]:
            _subtract(row, row[c], pivots[c], char)
    return list(pivots.items())


def rref_mod(a: np.ndarray, p: int, pivots: np.ndarray) -> int:
    """Reduce the int64 array ``a`` in place mod p to its reduced row
    echelon form, with entries in [0, p) and the rows past the rank zeroed.

    Writes the pivot columns into ``pivots`` (room for min(nrows, ncols)
    entries) and returns the rank.
    """
    np.remainder(a, p, out=a)
    rows = [{} for _ in range(a.shape[0])]
    nz_rows, nz_cols = np.nonzero(a)
    for i, j, v in zip(nz_rows.tolist(), nz_cols.tolist(), a[nz_rows, nz_cols].tolist()):
        rows[i][j] = v
    reduced = gauss_jordan(rows, p)
    a.fill(0)
    for i, (col, row) in enumerate(reduced):
        pivots[i] = col
        a[i, list(row)] = list(row.values())
    return len(reduced)
