"""Exact linear algebra over the coefficient fields.

Both fields reduce through the one sparse elimination in ``_kernel``, on
dict rows {column: nonzero}.  Over Q the kernel turns the rows it is handed
into primitive integer rows and works on those; Fractions appear only at
its boundary, in the reduced rows of ``_kernel.gauss_jordan`` and the
kernel vectors of ``_kernel.kernel_basis``, so every function here still
returns Fraction entries over Q.  Sparse columns {row: nonzero} become
dict rows in one transpose, ``_transpose``.  ``extend_pivots`` and
``nullspace_columns`` take sparse columns; they are all that ``resolve``
calls, so its path builds no list row.

``rank``, ``rref`` and ``nullspace`` take dense list rows and scan them
into dict rows (``_dict_rows``), which keeps each nonzero cell as it is
over Q.  ``perfbench/tracing.py`` probes all three by name and counts their
list-row cells or reads the array of ``_kernel.rref_mod``, and the
benchmark's own tests require a traced instance to record ``linalg.rank``
cells under ``homology_dims`` and ``rref_mod`` calls.  So
``complexes.homology_dims`` keeps calling ``rank`` and
``algebra.solve_graded_linear`` keeps calling ``rref`` on list rows until
those probes count dict rows.  ``nullspace`` has no library caller left; it
is the list-row adapter of ``nullspace_columns``, kept for the tracer.

``rank`` and ``extend_pivots`` need only the pivot columns, so they run the
forward pass ``_kernel.echelon`` and nothing else: the pivot columns of the
reduced row echelon form depend only on the column order.
``nullspace_columns`` and ``nullspace`` run ``_kernel.kernel_basis``.
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
    """The list rows ``rows`` as dict rows of their nonzero cells: ints in
    [0, char), or the cells as they are (Fractions or ints) when ``char``
    is 0; ``_kernel`` makes those integer rows itself."""
    out = []
    for row in rows:
        # compress skips the zero cells without a Python-level step each
        # (the int 0 that fills the coordinate builders' rows needs none)
        nonzero = compress(range(len(row)), row)
        if char:
            out.append({j: v for j in nonzero if (v := row[j] % char)})
        else:
            out.append({j: row[j] for j in nonzero})
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


def _transpose(columns, nrows: int) -> list:
    """The sparse columns ``columns`` {row: nonzero} of a matrix with
    ``nrows`` rows as dict rows {column: nonzero}, keys in ascending column
    order."""
    rows = [{} for _ in range(nrows)]
    for k, col in enumerate(columns):
        for i, v in col.items():
            rows[i][k] = v
    return rows


def nullspace_columns(field, columns, nrows: int):
    """Basis of ker(A) for the matrix A with the sparse columns ``columns``
    {row: nonzero field element} and ``nrows`` rows, as ``nullspace``
    gives it: one sparse vector per free column, in ascending order."""
    return _kernel.kernel_basis(_transpose(columns, nrows), len(columns), field.char)


def nullspace(field, rows, ncols: int):
    """``nullspace_columns`` for a matrix given as list rows.  No library
    code calls this; perfbench/tracing.py probes it by name and counts the
    cells of its list rows."""
    return _kernel.kernel_basis(_dict_rows(rows, field.char), ncols, field.char)


def extend_pivots(field, base, extra, dim: int):
    """Indices into ``extra`` of a deterministic subset extending the span
    of the columns ``base`` to span(base + extra).

    ``base`` and ``extra`` are sparse columns {row index: nonzero field
    element} of length ``dim``.  Echelon pivoting scans the base columns
    first, so the selected extras are exactly the greedy left-to-right
    choices: extra k is picked when it is not in span(base + extra[:k]).
    That depends only on spans, so scaling a column by a nonzero constant
    changes nothing, and neither does a linear map of the columns whose
    kernel lies in span(base): ``resolve`` hands in the images modulo W_d
    of its Q-coordinate columns and gets the picks of the columns
    themselves."""
    nbase = len(base)
    pivots = _kernel.echelon(_transpose(base + extra, dim), field.char)
    return [c - nbase for c in pivots if c >= nbase]
