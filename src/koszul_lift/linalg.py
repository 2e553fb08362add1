"""Exact linear algebra over the coefficient fields.

Both fields reduce through the one sparse elimination in ``_kernel``, on
dict rows built from the list rows callers pass.

``rank`` and ``extend_pivots`` need only the pivot columns.  They go through
``_pivots``, which runs the forward pass ``_kernel.echelon`` over either
field and nothing else: no back substitution and no dense copy.  The forward
pass finds the pivot columns of the reduced row echelon form, because those
depend only on the column order.

``rref``, ``solve_min`` and ``nullspace`` need the reduced rows.  Over Q
they go to ``_rref_qq`` with Fraction entries, which cannot overflow.  Over
F_p they pass through an int64 array and ``_kernel.rref_mod``.  That round
trip is not needed by the elimination: it stays because
``perfbench/tracing.py`` probes ``_kernel.rref_mod`` and ``_rref_qq`` and
reads the array's size and shape.

Matrices are lists of rows.  Column counts are passed explicitly wherever a
matrix may have zero rows.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress

import numpy as np

from . import _kernel

_ZERO = Fraction(0)


def backend_name() -> str:
    return "pure-python"


def _reduce_modp(rows, ncols: int, p: int):
    """The int64 array of ``rows`` reduced by ``_kernel.rref_mod``, and its
    pivot columns."""
    arr = np.array(rows, dtype=np.int64).reshape(len(rows), ncols)
    pivots = np.zeros(min(len(rows), ncols), dtype=np.int64)
    rank = _kernel.rref_mod(arr, p, pivots)
    return arr, pivots[:rank].tolist()


def _rref_qq(rows, ncols: int):
    reduced = _kernel.gauss_jordan(
        [{j: Fraction(x) for j, x in enumerate(row) if x} for row in rows], 0
    )
    out = [[_ZERO] * ncols for _ in rows]
    for out_row, (_, row) in zip(out, reduced):
        for j, v in row.items():
            out_row[j] = v
    return out, [col for col, _ in reduced]


def rref(field, rows, ncols: int):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    if field.char == 0:
        return _rref_qq(rows, ncols)
    if not rows or ncols == 0:
        return [list(r) for r in rows], []
    arr, pivots = _reduce_modp(rows, ncols, field.char)
    return arr.tolist(), pivots


def _pivots(field, rows, ncols: int):
    """Pivot columns of the reduced row echelon form, from the forward pass
    alone."""
    if not rows or ncols == 0:
        return []
    p = field.char
    dict_rows = []
    for row in rows:
        # compress skips the zero cells without a Python-level step each
        nonzero = compress(range(len(row)), row)
        if p:
            dict_rows.append({j: v for j in nonzero if (v := row[j] % p)})
        else:
            dict_rows.append({j: Fraction(row[j]) for j in nonzero})
    return list(_kernel.echelon(dict_rows, p))


def rank(field, rows, ncols=None) -> int:
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    return len(_pivots(field, rows, ncols))


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
        x[c] = red[r][ncols]
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
            v[pc] = field.neg(red[r][fc])
        basis.append(v)
    return basis


def extend_pivots(field, base_cols, extra_cols, dim: int):
    """Indices into ``extra_cols`` of a deterministic subset extending
    span(base_cols) to span(base_cols + extra_cols).

    Works on column vectors of length ``dim``; echelon pivoting scans the
    base columns first, so the selected extras are exactly the greedy
    left-to-right choices."""
    nbase = len(base_cols)
    rows = list(zip(*base_cols, *extra_cols))
    return [
        c - nbase for c in _pivots(field, rows, nbase + len(extra_cols)) if c >= nbase
    ]
