"""Exact dense linear algebra over the coefficient fields.

Prime-field reductions run through the compiled kernel when the extension
is available and through its pure Python mirror otherwise; both implement
the same elimination and agree bit for bit.  Rational reductions always use
Fraction arithmetic, which cannot overflow.

Matrices are lists of rows.  Column counts are passed explicitly wherever a
matrix may have zero rows.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

try:
    from . import _modp as _kernel

    HAVE_COMPILED = True
except ImportError:  # extension not built; mirror kernel
    from . import _modp_py as _kernel

    HAVE_COMPILED = False


def backend_name() -> str:
    return _kernel.BACKEND


def _to_array(rows, ncols: int, p: int) -> np.ndarray:
    arr = np.array(rows, dtype=np.int64).reshape(len(rows), ncols)
    return arr % p


def _rref_modp(rows, ncols: int, p: int):
    nrows = len(rows)
    if nrows == 0 or ncols == 0:
        return [list(r) for r in rows], []
    arr = _to_array(rows, ncols, p)
    pivots = np.zeros(min(nrows, ncols), dtype=np.int64)
    rank = _kernel.rref_mod(arr, p, pivots)
    return arr.tolist(), [int(c) for c in pivots[:rank]]


def _rref_qq(rows, ncols: int):
    a = [[Fraction(x) for x in row] for row in rows]
    nrows = len(a)
    rank = 0
    pivots: list[int] = []
    for col in range(ncols):
        if rank == nrows:
            break
        piv = next((r for r in range(rank, nrows) if a[r][col]), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
        lead = a[rank][col]
        if lead != 1:
            row_r = a[rank]
            for j in range(col, ncols):
                row_r[j] /= lead
        for r in range(nrows):
            if r == rank:
                continue
            f = a[r][col]
            if f:
                row, prow = a[r], a[rank]
                for j in range(col, ncols):
                    row[j] -= f * prow[j]
        pivots.append(col)
        rank += 1
    return a, pivots


def rref(field, rows, ncols: int):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    if field.char == 0:
        return _rref_qq(rows, ncols)
    return _rref_modp(rows, ncols, field.char)


def rank(field, rows, ncols=None) -> int:
    if not rows:
        return 0
    if ncols is None:
        ncols = len(rows[0])
    if ncols == 0:
        return 0
    if field.char == 0:
        return len(_rref_qq(rows, ncols)[1])
    arr = _to_array(rows, ncols, field.char)
    pivots = np.zeros(min(len(rows), ncols), dtype=np.int64)
    return int(_kernel.rref_mod(arr, field.char, pivots))


def solve_min(field, rows, b, ncols: int):
    """Minimal solution of A x = b: reduced echelon form with every free
    variable set to zero.  Returns None when the system is inconsistent."""
    if len(rows) != len(b):
        raise ValueError("row/rhs length mismatch")
    if not rows:
        return [field.zero] * ncols
    aug = [list(r) + [v] for r, v in zip(rows, b)]
    red, pivots = rref(field, aug, ncols + 1)
    if pivots and pivots[-1] == ncols:
        return None
    x = [field.zero] * ncols
    for r, c in enumerate(pivots):
        x[c] = field(red[r][ncols]) if field.char == 0 else red[r][ncols]
    return x


def nullspace(field, rows, ncols: int):
    """Basis of ker(A), one vector per free column in ascending column
    order, with the free coordinate normalized to 1."""
    if ncols == 0:
        return []
    if not rows:
        one = field.one
        return [
            [one if j == k else field.zero for j in range(ncols)]
            for k in range(ncols)
        ]
    red, pivots = rref(field, rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [field.zero] * ncols
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(
                field(red[r][fc]) if field.char == 0 else red[r][fc]
            )
        basis.append(v)
    return basis


def extend_pivots(field, base_cols, extra_cols, dim: int):
    """Indices into ``extra_cols`` of a deterministic subset extending
    span(base_cols) to span(base_cols + extra_cols).

    Works on column vectors of length ``dim``; echelon pivoting scans the
    base columns first, so the selected extras are exactly the greedy
    left-to-right choices."""
    nbase = len(base_cols)
    total = nbase + len(extra_cols)
    if total == 0 or dim == 0:
        return []
    rows = list(zip(*base_cols, *extra_cols))
    _, pivots = rref(field, rows, total)
    return [c - nbase for c in pivots if c >= nbase]
