"""Exact row reduction against naive textbook references."""

from fractions import Fraction
from random import Random

import numpy as np
import pytest

from koszul_lift import _kernel
from koszul_lift.fields import GF, QQ
from koszul_lift.linalg import (
    backend_name,
    extend_pivots,
    nullspace,
    nullspace_columns,
    rank,
    rref,
    solve_min,
)

from oracles import (
    naive_nullspace_dim,
    naive_rank,
    naive_rref,
    naive_rref_mod,
    naive_solve,
)

P = 32003
F = GF(P)


def _random_rows(rng, nrows, ncols, modulus=None, sparse=0.0):
    rows = []
    for _ in range(nrows):
        row = []
        for _ in range(ncols):
            if rng.random() < sparse:
                row.append(0)
            elif modulus:
                row.append(rng.randrange(modulus))
            else:
                row.append(rng.randint(-9, 9))
        rows.append(row)
    return rows


def test_qq_rref_matches_naive():
    rng = Random(201)
    for _ in range(120):
        nrows = rng.randint(0, 6)
        ncols = rng.randint(1, 6)
        rows = _random_rows(rng, nrows, ncols, sparse=0.4)
        if not rows:
            continue
        got_red, got_piv = rref(QQ, rows, ncols)
        want_red, want_piv = naive_rref(rows)
        assert got_piv == want_piv
        assert [[Fraction(v) for v in r] for r in got_red][: len(want_piv)] == [
            r for r in want_red[: len(want_piv)]
        ]

    # the second row is 3 times the first and cancels completely; the third
    # loses its first two entries; the fourth is the sum of the first and
    # third and cancels after both are pivots
    third = Fraction(1, 3)
    rows = [
        [third, 2 * third, 0, 1],
        [1, 2, 0, 3],
        [Fraction(1, 2), 1, Fraction(5, 2), 7],
        [Fraction(5, 6), Fraction(5, 3), Fraction(5, 2), 8],
    ]
    got_red, got_piv = rref(QQ, rows, 4)
    want_red, want_piv = naive_rref(rows)
    assert want_piv == [0, 2]
    assert got_piv == want_piv
    assert got_red == want_red


def _random_modp_array(rng, p, nrows, ncols, fill):
    """Entries in [0, 3p), each nonzero with probability ``fill``; some rows
    are zero and some repeat an earlier row."""
    rows = []
    for _ in range(nrows):
        roll = rng.random()
        if rows and roll < 0.1:
            rows.append(list(rng.choice(rows)))
        elif roll < 0.2:
            rows.append([0] * ncols)
        else:
            rows.append(
                [rng.randrange(1, 3 * p) if rng.random() < fill else 0 for _ in range(ncols)]
            )
    return rows


def _sparse_columns(field, rows, cols):
    """Columns ``cols`` of the list rows ``rows`` as sparse vectors
    {row index: nonzero field element}."""
    return [
        {i: field(row[j]) for i, row in enumerate(rows) if field(row[j])}
        for j in cols
    ]


def test_rref_mod_matches_textbook_gauss_jordan():
    rng, sign_rng = Random(207), Random(208)
    shapes = [(0, 0), (0, 5), (5, 0)] + [
        (rng.randint(1, 12), rng.randint(1, 12)) for _ in range(60)
    ] + [(80, 120), (120, 80)]
    for p in (2, 3, P):
        cases = []
        for nrows, ncols in shapes:
            for fill in (0.01, 0.5):
                rows = _random_modp_array(rng, p, nrows, ncols, fill)
                cases.append((rows, ncols))
                # negative entries too: the input is reduced into [0, p)
                # in place before the elimination reads it
                signed = [[-v if sign_rng.random() < 0.5 else v for v in row] for row in rows]
                cases.append((signed, ncols))
        # multiples of p, of either sign, reduce to zero rows and columns
        cases.append(([[p, -2 * p, 0], [-1, 3 * p - 1, -p]], 3))
        cases.append(([[-p, 2 * p], [3 * p, -3 * p]], 2))
        for rows, ncols in cases:
            nrows = len(rows)
            a = np.array(rows, dtype=np.int64).reshape(nrows, ncols)
            pivots = np.zeros(min(nrows, ncols), dtype=np.int64)
            got_rank = _kernel.rref_mod(a, p, pivots)
            want_red, want_piv = naive_rref_mod(rows, p)
            assert got_rank == len(want_piv)
            assert pivots[:got_rank].tolist() == want_piv
            assert a.tolist() == want_red


def test_rank_matches_naive_both_fields():
    rng = Random(202)
    for _ in range(120):
        nrows = rng.randint(1, 7)
        ncols = rng.randint(1, 7)
        rows = _random_rows(rng, nrows, ncols, sparse=0.5)
        assert rank(QQ, rows) == naive_rank(rows)
        # small entries so the mod-p rank agrees with the rational rank
        assert rank(F, rows) == naive_rank(rows)


def _textbook_cases(p, seed):
    """Random matrices over F_p (Q when ``p`` is 0) on every shape, zero
    rows and repeated rows included, each with its textbook reduced row
    echelon form: (rows, nrows, ncols, reduced rows, pivot columns)."""
    rng = Random(seed)
    shapes = [(0, 0), (0, 4), (4, 0)] + [
        (rng.randint(1, 9), rng.randint(1, 9)) for _ in range(60)
    ]
    for nrows, ncols in shapes:
        for fill in (0.15, 0.6):
            rows = _random_modp_array(rng, p or 5, nrows, ncols, fill)
            if not p:
                rows = [[Fraction(x, 1 + x % 3) for x in row] for row in rows]
            red, pivots = naive_rref_mod(rows, p) if p else naive_rref(rows)
            yield rows, nrows, ncols, red, pivots


@pytest.mark.parametrize("p", [0, 3, P], ids=["QQ", "F3", "F32003"])
def test_forward_pass_pivots_match_textbook_rref(p):
    # rank and extend_pivots run the forward pass alone; its pivot columns
    # must be those of the full reduction, on every shape
    field = GF(p) if p else QQ
    for rows, nrows, ncols, _, want in _textbook_cases(p, 209):
        assert rank(field, rows) == len(want)
        for nbase in {0, ncols // 2, ncols}:  # 0: an empty base
            base = _sparse_columns(field, rows, range(nbase))
            extra = _sparse_columns(field, rows, range(nbase, ncols))
            picked = extend_pivots(field, base, extra, nrows)
            assert picked == [c - nbase for c in want if c >= nbase]


def test_rank_structured():
    assert rank(QQ, [[0, 0], [0, 0]]) == 0
    assert rank(QQ, [[1, 2], [2, 4]]) == 1
    assert rank(QQ, [[1, 0], [0, 1]]) == 2
    assert rank(QQ, []) == 0
    assert rank(F, [[P, 2 * P]]) == 0  # entries reduce to zero mod p


def test_solve_min_matches_naive_solvability():
    rng = Random(203)
    for _ in range(150):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 5)
        rows = _random_rows(rng, nrows, ncols, sparse=0.4)
        b = [rng.randint(-6, 6) for _ in range(nrows)]
        got = solve_min(QQ, rows, b, ncols)
        want = naive_solve(rows, b)
        assert (got is None) == (want is None)
        if got is not None:
            for row, rhs in zip(rows, b):
                acc = sum(Fraction(c) * Fraction(x) for c, x in zip(row, got))
                assert acc == Fraction(rhs)


def test_solve_min_free_variables_are_zero():
    # one pivot, one free column: the free coordinate must come back 0
    sol = solve_min(QQ, [[1, 1]], [5], 2)
    assert sol == [Fraction(5), Fraction(0)]


def test_nullspace_dimension_and_membership():
    rng = Random(204)
    for field in (QQ, F):
        for _ in range(80):
            nrows = rng.randint(0, 5)
            ncols = rng.randint(1, 5)
            rows = _random_rows(rng, nrows, ncols, sparse=0.4)
            basis = nullspace(field, rows, ncols)
            assert len(basis) == naive_nullspace_dim(rows, ncols)
            for v in basis:
                assert all(0 <= j < ncols and x for j, x in v.items())
                for row in rows:
                    if field.char == 0:
                        acc = sum(Fraction(row[j]) * x for j, x in v.items())
                        assert acc == 0
                    else:
                        acc = sum(row[j] * x for j, x in v.items()) % field.char
                        assert acc == 0
            # vectors are independent: stack as rows and check full rank
            if basis:
                dense = [[v.get(j, 0) for j in range(ncols)] for v in basis]
                assert rank(field, dense) == len(basis)


@pytest.mark.parametrize("p", [0, 3, 7, P], ids=["QQ", "F3", "F7", "F32003"])
def test_nullspace_is_the_textbook_basis(p):
    # resolve reads its syzygy candidates off these exact vectors: one per
    # free column fc in ascending order, 1 at fc, -R[r][fc] at the pivot
    # column of row r of the reduced row echelon form R, nothing else
    field = GF(p) if p else QQ
    for rows, nrows, ncols, red, pivots in _textbook_cases(p, 212):
        want = []
        for fc in range(ncols):
            if fc in pivots:
                continue
            vec = {fc: field.one}
            for r, pc in enumerate(pivots):
                if red[r][fc]:
                    vec[pc] = field(-red[r][fc])
            want.append(vec)
        assert nullspace(field, rows, ncols) == want
        columns = _sparse_columns(field, rows, range(ncols))
        assert nullspace_columns(field, columns, nrows) == want


@pytest.mark.parametrize("field", [QQ, GF(7), F], ids=["QQ", "F7", "F32003"])
def test_nullspace_columns_is_the_list_row_nullspace(field):
    # resolve's syzygy step hands its sparse columns to nullspace_columns;
    # the vectors, their order and the order of their keys must be exactly
    # those of the list-row nullspace on the same matrix
    rng = Random(213)
    shapes = [(0, 0), (0, 6), (6, 0)] + [
        (rng.randint(1, 30), rng.randint(1, 40)) for _ in range(40)
    ]
    for nrows, ncols in shapes:
        for fill in (0.05, 0.3):
            rows = [
                [
                    field(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                    if rng.random() < fill else field.zero
                    for _ in range(ncols)
                ]
                for _ in range(nrows)
            ]
            for j in rng.sample(range(ncols), ncols // 4):  # all-zero columns
                for row in rows:
                    row[j] = field.zero
            got = nullspace_columns(field, _sparse_columns(field, rows, range(ncols)), nrows)
            want = nullspace(field, rows, ncols)
            assert got == want
            assert [list(v.items()) for v in got] == [list(v.items()) for v in want]


def test_extend_pivots_greedy():
    # base spans the x-axis; first extra is dependent, second is not
    base = [{0: QQ(1)}]
    extras = [{0: QQ(2)}, {0: QQ(1), 1: QQ(1)}, {1: QQ(3)}]
    assert extend_pivots(QQ, base, extras, 2) == [1]
    assert extend_pivots(QQ, [], extras, 2) == [0, 1]
    assert extend_pivots(QQ, base, [], 2) == []
    assert extend_pivots(QQ, [], [{}, {}], 0) == []  # dim 0: nothing to span


@pytest.mark.parametrize("field", [QQ, GF(7), F], ids=["QQ", "F7", "F32003"])
def test_extend_pivots_spans(field):
    # the picks are the greedy left-to-right choice: extra j is taken
    # exactly when it raises the rank of the base plus the extras before it
    def rank_of(vecs):
        if not vecs:
            return 0
        rows = [list(v) for v in vecs]
        return len((naive_rref_mod(rows, field.char) if field.char else naive_rref(rows))[1])

    rng = Random(205)
    for _ in range(60):
        dim = rng.randint(1, 5)
        vecs = []
        for _ in range(rng.randint(0, 8)):
            if vecs and rng.random() < 0.3:  # a combination of earlier vectors
                a, b = rng.choice(vecs), rng.choice(vecs)
                c = rng.randint(-3, 3)
                vecs.append(tuple(field(x + c * y) for x, y in zip(a, b)))
            else:
                vecs.append(tuple(field(rng.randint(-3, 3)) for _ in range(dim)))
        nbase = rng.randint(0, min(3, len(vecs)))
        base, extras = vecs[:nbase], vecs[nbase:]
        greedy = [
            j for j in range(len(extras))
            if rank_of(base + extras[: j + 1]) > rank_of(base + extras[:j])
        ]
        base_cols = [{i: x for i, x in enumerate(v) if x} for v in base]
        sparse = [{i: x for i, x in enumerate(v) if x} for v in extras]
        assert extend_pivots(field, base_cols, sparse, dim) == greedy


def test_backend_name_is_consistent():
    assert backend_name() == "pure-python"
