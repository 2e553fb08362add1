"""Index combinatorics and signs, exhaustive through c = 4, plus the
Koszul complex itself and the regularity probe."""

import pytest

from koszul_lift.algebra import GradedRing, Poly
from koszul_lift.complexes import check_complex
from koszul_lift.errors import InvalidInputError
from koszul_lift.fields import QQ
from koszul_lift.koszul import (
    all_subsets,
    check_regular_up_to,
    index_from_json,
    index_to_json,
    insert_index,
    insertion_count,
    inversions,
    koszul_complex,
    koszul_differential,
    subsets_of_size,
    validate_index,
    wedge,
)

from oracles import brute_wedge, perm_sign

C_MAX = 4
RING4 = GradedRing(QQ, ["x1", "x2", "x3", "x4"], sequence=["x1", "x2", "x3", "x4"])


def _disjoint_pairs(c):
    for a in all_subsets(c):
        for b in all_subsets(c):
            if not set(a) & set(b):
                yield a, b


def test_wedge_matches_permutation_sign_exhaustive():
    for c in range(C_MAX + 1):
        for a in all_subsets(c):
            for b in all_subsets(c):
                got = wedge(a, b)
                want_idx, want_sign = brute_wedge(a, b)
                assert (got.index, got.sign) == (want_idx, want_sign)


def test_wedge_absorbs_zero():
    assert wedge(None, (1,)) == (None, 0)
    assert wedge((1,), None) == (None, 0)
    assert wedge((1,), (1, 2)) == (None, 0)
    assert wedge((), (1, 2)) == ((1, 2), 1)


def test_wedge_anticommutativity_exhaustive():
    for c in range(C_MAX + 1):
        for a, b in _disjoint_pairs(c):
            ab = wedge(a, b)
            ba = wedge(b, a)
            assert ab.index == ba.index
            assert ab.sign == (-1) ** (len(a) * len(b)) * ba.sign


def test_wedge_associativity_exhaustive():
    for c in range(C_MAX + 1):
        for a in all_subsets(c):
            for b in all_subsets(c):
                for d in all_subsets(c):
                    ab = wedge(a, b)
                    left = wedge(ab.index, d)
                    bd = wedge(b, d)
                    right = wedge(a, bd.index)
                    assert left.index == right.index
                    assert ab.sign * left.sign == bd.sign * right.sign


def test_inversions_vs_brute():
    for c in range(C_MAX + 1):
        for a, b in _disjoint_pairs(c):
            assert (-1) ** inversions(a, b) == perm_sign(list(a) + list(b))


def test_insertion_count_matches_wedge():
    for c in range(1, C_MAX + 1):
        for i in range(1, c + 1):
            for g in all_subsets(c):
                if i in g:
                    continue
                w = wedge((i,), g)
                assert w.sign == (-1) ** insertion_count(i, g)
                assert w.index == insert_index(i, g)


def test_proof_sign_identity_swap():
    # with a = [e_i b'] and a' = [e_i b]:
    # (b a) + (e_i b) == (b' a') + (e_i b') + |b'| + |a||b|  (mod 2)
    for c in range(1, C_MAX + 1):
        for i in range(1, c + 1):
            for a, b in _disjoint_pairs(c):
                if i not in a:
                    continue
                b2 = tuple(j for j in a if j != i)
                a2 = insert_index(i, b)
                lhs = inversions(b, a) + insertion_count(i, b)
                rhs = (
                    inversions(b2, a2)
                    + insertion_count(i, b2)
                    + len(b2)
                    + len(a) * len(b)
                )
                assert (-1) ** lhs == (-1) ** rhs


def test_proof_sign_identity_rotation():
    # with a = e', e = d', d = a':
    # (b' a') + (d' e') == |a||d| + |d||e| + (b a) + (d e)  (mod 2)
    for c in range(C_MAX + 1):
        for a in all_subsets(c):
            for d in all_subsets(c):
                if set(a) & set(d):
                    continue
                for e in all_subsets(c):
                    if set(e) & (set(a) | set(d)):
                        continue
                    b = wedge(d, e).index
                    b2 = wedge(e, a).index
                    lhs = inversions(b2, d) + inversions(e, a)
                    rhs = (
                        len(a) * len(d)
                        + len(d) * len(e)
                        + inversions(b, a)
                        + inversions(d, e)
                    )
                    assert (-1) ** lhs == (-1) ** rhs


def test_koszul_differential_leibniz_exhaustive():
    ring = RING4
    for a, b in _disjoint_pairs(C_MAX):
        m, s = wedge(a, b)
        lhs = {}
        for sub, cf in koszul_differential(ring, m):
            lhs[sub] = lhs.get(sub, ring.zero) + cf * s
        rhs = {}
        for sub, cf in koszul_differential(ring, a):
            w = wedge(sub, b)
            if w.sign:
                rhs[w.index] = rhs.get(w.index, ring.zero) + cf * w.sign
        for sub, cf in koszul_differential(ring, b):
            w = wedge(a, sub)
            if w.sign:
                sign = w.sign * (-1) ** len(a)
                rhs[w.index] = rhs.get(w.index, ring.zero) + cf * sign
        keys = set(lhs) | set(rhs)
        for k in keys:
            assert lhs.get(k, ring.zero) == rhs.get(k, ring.zero)


def test_koszul_differential_squares_to_zero_symbolically():
    ring = RING4
    for g in all_subsets(C_MAX):
        acc = {}
        for sub, cf in koszul_differential(ring, g):
            for sub2, cf2 in koszul_differential(ring, sub):
                acc[sub2] = acc.get(sub2, ring.zero) + ring.mul(cf, cf2)
        for v in acc.values():
            assert v.is_zero()


def test_koszul_complex_structure():
    ring = GradedRing(QQ, ["x", "y"], sequence=["x^2", "y"])
    K = koszul_complex(ring)
    assert K.window == (0, 2)
    assert K.support == "finite"
    assert K.twists[0] == (0,)
    assert K.twists[1] == (2, 1)  # subsets {1}, {2} in sorted order
    assert K.twists[2] == (3,)
    rep = check_complex(K)
    assert rep.ok
    # d_1 row: [x^2, y]; d_2 column: [-y, x^2] (delete positions with signs)
    assert [str(p) for p in K.diffs[1].rows[0]] == ["x^2", "y"]
    assert [str(K.diffs[2].rows[i][0]) for i in range(2)] == ["-y", "x^2"]


def test_koszul_complex_squares_to_zero_through_c4():
    for c in range(1, C_MAX + 1):
        names = ["x1", "x2", "x3", "x4"][:c]
        ring = GradedRing(QQ, names, sequence=[f"{n}^2" for n in names])
        K = koszul_complex(ring)
        assert check_complex(K).ok
        for n in range(1, c + 1):
            assert K.diffs[n].nrows == len(K.twists[n - 1])


def test_validate_index():
    assert validate_index((1, 2), 3) == (1, 2)
    assert validate_index([1, 3], 3) == (1, 3)
    assert validate_index((), 3) == ()
    with pytest.raises(InvalidInputError):
        validate_index((2, 1), 3)  # not strictly increasing
    with pytest.raises(InvalidInputError):
        validate_index((0,), 3)
    with pytest.raises(InvalidInputError):
        validate_index((4,), 3)
    with pytest.raises(InvalidInputError):
        validate_index((1, 1), 3)


@pytest.mark.parametrize("alpha", [(1.9,), ("1",), (True,), (1, 2.0), (None,)])
def test_validate_index_rejects_entries_that_are_not_ints(alpha):
    # int() would read (1.9,) and ('1',) as (1,)
    with pytest.raises(InvalidInputError, match="index entry must be an integer"):
        validate_index(alpha, 3)


def test_index_json_roundtrip():
    for c in range(C_MAX + 1):
        for a in all_subsets(c):
            assert index_from_json(index_to_json(a), c) == a
    assert index_to_json(None) is None
    assert index_from_json(None, 3) is None


def test_subsets_orderings():
    assert list(subsets_of_size(3, 2)) == [(1, 2), (1, 3), (2, 3)]
    subs = list(all_subsets(3))
    assert subs[0] == ()
    assert len(subs) == 8
    sizes = [len(s) for s in subs]
    assert sizes == sorted(sizes)  # grouped by size, ascending


def test_regularity_golden():
    ring = GradedRing(QQ, ["x", "y"], relations=["x^2"], sequence=["y^2"])
    rep = check_regular_up_to(ring, 6)
    assert rep.ok and rep.first_failure is None

    ring2 = GradedRing(QQ, ["x", "y"], sequence=["x^2", "y^2"])
    assert check_regular_up_to(ring2, 6).ok


def test_regularity_detects_failure():
    # (x, x) is not regular: the second x kills Q/(x)
    ring = GradedRing(QQ, ["x", "y"], sequence=["x", "x"])
    rep = check_regular_up_to(ring, 4)
    assert not rep.ok
    assert rep.first_failure == (1, 1)

    # x is a zerodivisor modulo (x*y)
    ring2 = GradedRing(QQ, ["x", "y"], sequence=["x*y", "x"])
    assert not check_regular_up_to(ring2, 6).ok


@pytest.mark.parametrize("bound", [3.5, "3", True], ids=repr)
def test_regularity_rejects_a_degree_bound_that_is_not_an_int(bound):
    # True once returned ok for bound 1
    ring = GradedRing(QQ, ["x", "y"], sequence=["x", "x"])
    with pytest.raises(InvalidInputError, match="degree bound must be an integer"):
        check_regular_up_to(ring, bound)
