"""Exact linear algebra over the coefficient fields.

Both fields reduce through the one sparse elimination in ``_kernel``, on
dict rows {column: nonzero}.  ``extend_pivots`` transposes sparse columns
{row: nonzero} into them in one loop; ``rank``, ``nullspace`` and ``rref``
scan the list rows they are given (``_dict_rows``), because
``perfbench/tracing.py`` counts those rows' cells.

``rank`` and ``extend_pivots`` need only the pivot columns, so they run the
forward pass ``_kernel.echelon`` and nothing else: the pivot columns of the
reduced row echelon form depend only on the column order.  ``nullspace``
runs ``_kernel.gauss_jordan`` and reads its basis off the reduced rows.
Kernel vectors are sparse dicts {index: nonzero}.

``rref`` and ``solve_min`` return dense reduced rows.  Over Q they go to
``_rref_qq`` with Fraction entries, which cannot overflow.  Over F_p they
pass through an int64 array and ``_kernel.rref_mod``.  That round trip is
not needed by the elimination: it stays because ``perfbench/tracing.py``
probes ``_kernel.rref_mod`` and ``_rref_qq`` and reads the array's size and
shape.  It is the only place the library builds an ndarray, so numpy is
imported there, at the first F_p ``rref`` (in the pipeline, the homotopy
solve), and never on import or over Q.

Column counts are passed explicitly wherever a matrix may have zero rows.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress

from . import _kernel

_ZERO = Fraction(0)


def backend_name() -> str:
    return "pure-python"


def _dict_rows(rows, char: int) -> list:
    """The list rows ``rows`` as dict rows of nonzero field elements: ints
    in [0, char), or Fractions when ``char`` is 0."""
    out = []
    for row in rows:
        # compress skips the zero cells without a Python-level step each
        nonzero = compress(range(len(row)), row)
        if char:
            out.append({j: v for j in nonzero if (v := row[j] % char)})
        else:
            out.append({j: Fraction(row[j]) for j in nonzero})
    return out


def _reduce_modp(rows, ncols: int, p: int):
    """The int64 array of ``rows`` reduced by ``_kernel.rref_mod``, and its
    pivot columns."""
    import numpy as np  # deferred: the one ndarray the library builds

    arr = np.array(rows, dtype=np.int64).reshape(len(rows), ncols)
    pivots = np.zeros(min(len(rows), ncols), dtype=np.int64)
    rank = _kernel.rref_mod(arr, p, pivots)
    return arr, pivots[:rank].tolist()


def _rref_qq(rows, ncols: int):
    reduced = _kernel.gauss_jordan(_dict_rows(rows, 0), 0)
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


def rank(field, rows) -> int:
    return len(_kernel.echelon(_dict_rows(rows, field.char), field.char))


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
    """Basis of ker(A) as sparse vectors {index: nonzero}, one per free
    column fc in ascending order: 1 at fc and -R[r][fc] at the pivot column
    of each row r of the reduced row echelon form R."""
    reduced = _kernel.gauss_jordan(_dict_rows(rows, field.char), field.char)
    pivots = {col for col, _ in reduced}
    basis = {fc: {fc: field.one} for fc in range(ncols) if fc not in pivots}
    neg = field.neg
    for col, row in reduced:
        for fc, v in row.items():
            if fc != col:
                basis[fc][col] = neg(v)
    return list(basis.values())


def extend_pivots(field, base, extra, dim: int):
    """Indices into ``extra`` of a deterministic subset extending the span
    of the columns ``base`` to span(base + extra).

    ``base`` and ``extra`` are sparse columns {row index: nonzero field
    element} of length ``dim``.  Echelon pivoting scans the base columns
    first, so the selected extras are exactly the greedy left-to-right
    choices."""
    rows = [{} for _ in range(dim)]
    for k, col in enumerate(base + extra):
        for i, v in col.items():
            rows[i][k] = v
    nbase = len(base)
    return [c - nbase for c in _kernel.echelon(rows, field.char) if c >= nbase]
