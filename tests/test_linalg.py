"""Exact row reduction against naive textbook references."""

from fractions import Fraction
from math import comb
from random import Random

import numpy as np
import pytest

from koszul_lift import _kernel
from koszul_lift.algebra import GradedRing, graded_columns, span_map
from koszul_lift.fields import GF, QQ
from koszul_lift.linalg import (
    backend_name,
    extend_pivots,
    nullspace,
    nullspace_columns,
    pivot_columns,
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
    # column of row r of the reduced row echelon form R, nothing else; each
    # vector's keys in that order (fc, then the pivot columns ascending)
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
        columns = _sparse_columns(field, rows, range(ncols))
        for got in (nullspace(field, rows, ncols), nullspace_columns(field, columns, nrows)):
            assert got == want
            assert [list(v) for v in got] == [list(v) for v in want]
            assert all(type(c) is type(field.one) for v in got for c in v.values())


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


def _big_qq_cases(seed):
    """Random sparse matrices over Q with non-integral entries whose
    numerators and denominators reach 10**40, on every shape: zero rows,
    repeated rows and rational combinations of earlier rows included, with
    leads of either sign.  Zero cells are the int 0 or Fraction(0).  Yields
    (rows, nrows, ncols, textbook reduced rows, textbook pivot columns)."""
    rng = Random(seed)
    big = 10**40
    shapes = [(0, 0), (0, 5), (5, 0)] + [
        (rng.randint(1, 9), rng.randint(1, 9)) for _ in range(50)
    ]
    for nrows, ncols in shapes:
        rows = []
        for _ in range(nrows):
            roll = rng.random()
            if rows and roll < 0.1:
                rows.append(list(rng.choice(rows)))
            elif rows and roll < 0.25:
                a, b = rng.choice(rows), rng.choice(rows)
                c = Fraction(rng.randint(-big, big), rng.randint(1, big))
                rows.append([x + c * y for x, y in zip(a, b)])
            elif roll < 0.35:
                rows.append([rng.choice((0, Fraction(0))) for _ in range(ncols)])
            else:
                rows.append([
                    Fraction(rng.randint(-big, big), rng.randint(2, big))
                    if rng.random() < 0.45 else rng.choice((0, Fraction(0)))
                    for _ in range(ncols)
                ])
        red, pivots = naive_rref(rows)
        yield rows, nrows, ncols, red, pivots


def _assert_reduced_fractions(reduced):
    # the kernel works on integer rows over Q; what it returns is Fractions,
    # with a Fraction 1 at each pivot
    for col, row in reduced:
        assert type(row[col]) is Fraction and row[col] == 1
        assert all(type(v) is Fraction and v for v in row.values())


def test_qq_kernel_matches_textbook_rref_on_big_entries():
    field = QQ
    for rows, nrows, ncols, red, pivots in _big_qq_cases(214):
        want = [
            (col, {j: v for j, v in enumerate(red[r]) if v}) for r, col in enumerate(pivots)
        ]
        dict_rows = [{j: v for j, v in enumerate(row) if v} for row in rows]
        got = _kernel.gauss_jordan([dict(r) for r in dict_rows], 0)
        assert got == want
        _assert_reduced_fractions(got)
        assert list(_kernel.echelon([dict(r) for r in dict_rows], 0)) == pivots
        assert rank(field, rows) == len(pivots)

        got_red, got_piv = rref(field, rows, ncols)
        assert got_piv == pivots
        assert got_red == red
        assert all(type(v) is Fraction for row in got_red for v in row)

        columns = _sparse_columns(field, rows, range(ncols))
        basis = nullspace_columns(field, columns, nrows)
        textbook = []
        for fc in range(ncols):
            if fc not in pivots:
                vec = {fc: Fraction(1)}
                vec.update((pc, -red[r][fc]) for r, pc in enumerate(pivots) if red[r][fc])
                textbook.append(vec)
        assert basis == textbook
        assert all(type(v) is Fraction for vec in basis for v in vec.values())

        for nbase in {0, ncols // 2, ncols}:
            base = _sparse_columns(field, rows, range(nbase))
            extra = _sparse_columns(field, rows, range(nbase, ncols))
            picked = extend_pivots(field, base, extra, nrows)
            assert picked == [c - nbase for c in pivots if c >= nbase]


def test_qq_quotient_basis_forms_are_the_textbook_normal_forms():
    # R_d is read off the reduced generators of (f)_d; over Q the forms
    # hold Fractions, those of the textbook reduction of the generators
    ring = GradedRing(
        QQ, ["x", "y", "z"], sequence=["3/2*x^2 - 5/7*y*z", "-4/9*x*y + 11*z^2"]
    )
    for d in range(6):
        monos = ring.monomial_basis(d)
        gens = graded_columns(ring, *span_map(ring, (0,)), (0,), d)
        red, pivots = naive_rref([[g.get(i, 0) for i in range(len(monos))] for g in gens])
        basis, forms = ring.quotient_basis(d)
        assert basis == tuple(m for i, m in enumerate(monos) if i not in pivots)
        index = {m: k for k, m in enumerate(basis)}
        for r, pc in enumerate(pivots):
            want = {index[monos[k]]: -v for k, v in enumerate(red[r]) if v and k != pc}
            assert forms[monos[pc]] == want
        for m in basis:
            assert forms[m] == {index[m]: 1}
        assert all(type(v) is Fraction for form in forms.values() for v in form.values())


def _hilbert(n):
    return [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]


def test_hilbert_matrix_inverse_rank_and_nullspace():
    # the 12 x 12 Hilbert matrix is the classic case of coefficient growth
    # in exact elimination; its inverse has integer entries in closed form
    n = 12
    h = _hilbert(n)
    aug = [{j: v for j, v in enumerate(row) if v} for row in h]
    for i, row in enumerate(aug):
        row[n + i] = Fraction(1)
    reduced = _kernel.gauss_jordan(aug, 0)
    _assert_reduced_fractions(reduced)
    assert [col for col, _ in reduced] == list(range(n))
    for i, (col, row) in enumerate(reduced):
        assert {j: v for j, v in row.items() if j < n} == {i: 1}
        inverse_row = [row.get(n + j, 0) for j in range(n)]
        assert inverse_row == [
            (-1) ** (i + j) * (i + j + 1) * comb(n + i, n - j - 1) * comb(n + j, n - i - 1)
            * comb(i + j, i) ** 2
            for j in range(n)
        ]
    assert rank(QQ, h) == n

    # one row the sum of two others: rank 11, and the kernel is the
    # textbook vector on the one free column
    singular = h[:-1] + [[a + b for a, b in zip(h[2], h[5])]]
    assert rank(QQ, singular) == n - 1
    red, pivots = naive_rref(singular)
    assert pivots == list(range(n - 1))
    want = {n - 1: Fraction(1)}
    want.update((r, -red[r][n - 1]) for r in range(n - 1))
    columns = _sparse_columns(QQ, singular, range(n))
    assert nullspace_columns(QQ, columns, n) == [want]
    assert nullspace(QQ, singular, n) == [want]
    assert all(sum(row[j] * v for j, v in want.items()) == 0 for row in singular)


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


@pytest.mark.parametrize("field", [QQ, GF(7), F], ids=["QQ", "F7", "F32003"])
def test_units_on_the_free_columns_pick_as_the_kernel_vectors(field):
    # what resolve's counting rests on: the columns that are not pivots are
    # the free columns of the kernel basis, one vector each, and a vector
    # of the kernel is fixed by its coordinates there.  So for multiples
    # inside the kernel, eliminating them read on the free columns and then
    # the unit vectors of those columns picks the kernel vectors that
    # extend_pivots picks, also after each coordinate is scaled
    rng = Random(211)
    for _ in range(80):
        nrows, ncols = rng.randint(0, 4), rng.randint(1, 7)
        columns = _sparse_columns(field, _random_rows(rng, nrows, ncols, sparse=0.5), range(ncols))
        null = nullspace_columns(field, columns, nrows)
        pivots = pivot_columns(field, columns, nrows)
        free = [c for c in range(ncols) if c not in pivots]
        assert [max(vec) for vec in null] == free
        scale = [field(rng.choice([1, 2, -3, 5])) for _ in range(ncols)]
        null = [{i: v * scale[i] for i, v in vec.items()} for vec in null]
        mults = []
        for _ in range(rng.randint(0, 4)):
            mult = {}
            for vec in rng.sample(null, min(len(null), 2)):
                c = field(rng.randint(-2, 2))
                for i, v in vec.items():
                    mult[i] = mult.get(i, field.zero) + c * v
            mults.append({i: v for i, v in mult.items() if v})
        at = {f: k for k, f in enumerate(free)}
        on_free = [{at[i]: v for i, v in m.items() if i in at} for m in mults]
        units = [{k: field.one} for k in range(len(free))]
        picked = [c - len(mults) for c in pivot_columns(field, on_free + units, len(free))
                  if c >= len(mults)]
        assert picked == extend_pivots(field, mults, null, ncols)


def test_backend_name_is_consistent():
    assert backend_name() == "pure-python"
