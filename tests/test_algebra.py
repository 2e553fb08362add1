"""Polynomial arithmetic, graded pieces, parsing, and the graded solver."""

import json
import math
import re
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from koszul_lift import algebra, linalg
from koszul_lift.algebra import (
    GradedRing,
    Poly,
    PolyMatrix,
    coords_to_columns,
    graded_columns,
    graded_matrix_rows,
    matrix_from_json,
    matrix_to_json,
    module_dim,
    parse_poly,
    product_sum,
    quotient_columns,
    quotient_module_dim,
    solve_graded_linear,
    span_map,
)
from koszul_lift.errors import InvalidInputError, ParseError
from koszul_lift.fields import GF, QQ
from koszul_lift.samples import random_homogeneous

from oracles import (
    coords,
    entries,
    monomial,
    naive_rank_over,
    padd,
    pdict,
    pmul,
    preduce,
    pscale,
    quotient_dim,
    reference_columns,
    reference_quotient_rows,
)

RING = GradedRing(QQ, ["x", "y"], relations=["x^2"], sequence=["y^2"])
PLAIN = GradedRing(QQ, ["x", "y", "z"])


def _random_poly(rng, ring, maxdeg=3, nterms=4):
    terms = {}
    for _ in range(rng.randint(0, nterms)):
        mono = tuple(rng.randint(0, maxdeg) for _ in ring.variables)
        terms[mono] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return ring.normal_form(Poly(ring, terms))


def _to_dict(p):
    return {m: Fraction(c) for m, c in p.terms.items()}


def test_parse_format_roundtrip_hand_cases():
    cases = [
        ("x^2*y - 3*y^3", "x^2*y - 3*y^3"),
        ("y*x", "x*y"),
        ("2*x + x", "3*x"),
        ("x - x", "0"),
        ("1/2*x^2 + 1/2*x^2", "x^2"),
        ("-x + y", "-x + y"),
        ("5", "5"),
        ("x^0*y^2", "y^2"),
    ]
    for text, expected in cases:
        assert str(parse_poly(PLAIN, text)) == expected


# Pinned outcomes of the text grammar over Q and F_7, in the ring
# k[x, y]/(x^3): each case is (text, result over Q, result over F_7), a
# result being the printed polynomial or the exact ParseError message.
PARSE_TABLE = [
    ("", ParseError("empty polynomial text"), ParseError("empty polynomial text")),
    (" \t", ParseError("empty polynomial text"), ParseError("empty polynomial text")),
    ("+", ParseError("dangling operator in '+'"), ParseError("dangling operator in '+'")),
    ("-", ParseError("dangling operator in '-'"), ParseError("dangling operator in '-'")),
    ("x+", ParseError("dangling operator in 'x+'"), ParseError("dangling operator in 'x+'")),
    ("++x", ParseError("dangling operator in '++x'"), ParseError("dangling operator in '++x'")),
    ("x--y", ParseError("dangling operator in 'x--y'"), ParseError("dangling operator in 'x--y'")),
    ("x+-y", ParseError("dangling operator in 'x+-y'"), ParseError("dangling operator in 'x+-y'")),
    ("x^-2", ParseError("bad factor 'x^' in 'x^-2'"), ParseError("bad factor 'x^' in 'x^-2'")),
    ("x^+2", ParseError("bad factor 'x^' in 'x^+2'"), ParseError("bad factor 'x^' in 'x^+2'")),
    ("x^", ParseError("bad factor 'x^' in 'x^'"), ParseError("bad factor 'x^' in 'x^'")),
    ("x*", ParseError("empty factor in 'x*'"), ParseError("empty factor in 'x*'")),
    ("*x", ParseError("empty factor in '*x'"), ParseError("empty factor in '*x'")),
    ("x**y", ParseError("empty factor in 'x**y'"), ParseError("empty factor in 'x**y'")),
    ("x^2y", ParseError("bad factor 'x^2y' in 'x^2y'"), ParseError("bad factor 'x^2y' in 'x^2y'")),
    ("2x", ParseError("bad factor '2x' in '2x'"), ParseError("bad factor '2x' in '2x'")),
    ("q", ParseError("unknown variable 'q'; ring has ('x', 'y')"),
     ParseError("unknown variable 'q'; ring has ('x', 'y')")),
    ("-0", "0", "0"),
    ("1/0", ParseError("bad rational literal '1/0'"), ParseError("bad coefficient literal '1/0'")),
    (" - x", "-x", "6*x"),
    ("0", "0", "0"),
    ("-x", "-x", "6*x"),
    ("+x", "x", "x"),
    ("x - x", "0", "0"),
    ("3/6*x*y^2", "1/2*x*y^2", "4*x*y^2"),
    ("2*3*x", "6*x", "6*x"),
    ("x^0", "1", "1"),
    ("7*x", "7*x", "0"),
    ("-1/2*y + x", "x - 1/2*y", "x + 3*y"),
    ("x^2*x", "0", "0"),
    ("1/7", "1/7", ParseError("bad coefficient literal '1/7'")),
    ("y*x - x*y + 1", "1", "1"),
    ("x^10 - 2", "-2", "5"),
    ("\tx +\ty", "x + y", "x + y"),
    (7, ParseError("polynomial must be text, got 7"), ParseError("polynomial must be text, got 7")),
]


@pytest.mark.parametrize("text, over_q, over_f7", PARSE_TABLE)
def test_parse_table(text, over_q, over_f7):
    for field, want in ((QQ, over_q), (GF(7), over_f7)):
        ring = GradedRing(field, ["x", "y"], relations=["x^3"])
        if isinstance(want, ParseError):
            with pytest.raises(ParseError) as exc:
                parse_poly(ring, text)
            assert str(exc.value) == str(want)
        else:
            assert str(parse_poly(ring, text)) == want


def test_parse_respects_monomial_relations():
    # x^2 dies in Q = k[x,y]/(x^2)
    assert parse_poly(RING, "x^2 + y").terms == parse_poly(RING, "y").terms
    assert parse_poly(RING, "x^2*y^5").is_zero()


def test_parse_rejects_garbage():
    bad = ["", "x +", "2x", "x^", "x^-1", "w", "x**2", "x^2^3", "3/0*x"]
    for text in bad:
        with pytest.raises(ParseError):
            parse_poly(PLAIN, text)
    # a relation generator is a bare monomial in the ring's variables
    for rel in ("2*x", "x*w"):
        with pytest.raises(ParseError, match=re.escape(f"bad monomial {rel!r}")):
            GradedRing(QQ, ["x", "y"], relations=[rel])


def test_format_then_parse_random():
    rng = Random(101)
    for _ in range(200):
        p = _random_poly(rng, RING)
        assert parse_poly(RING, str(p)) == p


def test_arithmetic_matches_dict_oracle():
    rng = Random(102)
    gens = [(2, 0)]  # x^2
    for _ in range(150):
        p = _random_poly(rng, RING)
        q = _random_poly(rng, RING)
        ps, qs = _to_dict(p), _to_dict(q)
        assert _to_dict(p + q) == preduce(padd(ps, qs), gens)
        assert _to_dict(p - q) == preduce(padd(ps, pscale(qs, -1)), gens)
        assert _to_dict(RING.mul(p, q)) == preduce(pmul(ps, qs), gens)


def test_prime_field_ring_axioms():
    ring = GradedRing(GF(7), ["x", "y"], relations=["x^3"])
    rng = Random(103)
    for _ in range(100):
        a = _random_poly(rng, ring)
        b = _random_poly(rng, ring)
        c = _random_poly(rng, ring)
        assert ring.mul(a, b) == ring.mul(b, a)
        assert ring.mul(a, b + c) == ring.mul(a, b) + ring.mul(a, c)
        assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))


def test_graded_dimension_against_enumeration():
    rng = Random(104)
    for _ in range(30):
        nvars = rng.randint(1, 3)
        gens = sorted(
            {
                tuple(rng.randint(0, 3) for _ in range(nvars))
                for _ in range(rng.randint(0, 2))
            }
        )
        gens = [g for g in gens if any(g)]
        names = ["x", "y", "z"][:nvars]
        strs = [
            "*".join(f"{v}^{e}" for v, e in zip(names, g) if e) for g in gens
        ]
        ring = GradedRing(QQ, names, relations=strs)
        for d in range(7):
            assert ring.dim(d) == quotient_dim(nvars, gens, d)


def test_monomial_basis_descending_and_coords_roundtrip():
    basis = RING.monomial_basis(3)
    keys = [(sum(m), m) for m in basis]
    assert keys == sorted(keys, reverse=True)
    assert len(basis) == RING.dim(3)

    rng = Random(105)
    for _ in range(50):
        terms = {m: Fraction(rng.randint(-4, 4)) for m in basis}
        p = Poly(RING, terms)
        vec = coords(RING, p, 3)
        rebuilt = RING.zero
        for c, m in zip(vec, basis):
            rebuilt = rebuilt + monomial(RING, m) * c
        assert rebuilt == p


def test_homogeneous_degree():
    assert parse_poly(PLAIN, "x*y + z^2").degree() == 2
    assert parse_poly(PLAIN, "7").degree() == 0
    assert PLAIN.zero.degree() is None
    assert parse_poly(PLAIN, "x + x*y").degree() is None


def test_relation_canonicalization_prunes_multiples():
    ring = GradedRing(QQ, ["x", "y"], relations=["x^2", "x^3", "x^2*y"])
    assert ring.relations == ((2, 0),)


@pytest.mark.parametrize("relation", [(1.9, 0), (True, 0), (2, 1.0), ("1", 0)], ids=repr)
def test_ring_rejects_relation_exponents_that_are_not_ints(relation):
    # int() read (1.9, 0) and (True, 0) as x
    with pytest.raises(InvalidInputError, match="relation exponent must be an integer"):
        GradedRing(QQ, ["x", "y"], relations=[relation])
    assert GradedRing(QQ, ["x", "y"], relations=[(1, 2)]).relations == ((1, 2),)


@pytest.mark.parametrize("relation", [5, None, {0: 1}], ids=repr)
def test_ring_rejects_a_relation_that_is_neither_text_nor_exponents(relation):
    # 5 and None were a bare TypeError, and a dict was read by its keys
    with pytest.raises(
        InvalidInputError,
        match=f"^relation must be a monomial string or a sequence of exponents, got {re.escape(repr(relation))}$",
    ):
        GradedRing(QQ, ["x", "y"], relations=[relation])
    assert GradedRing(QQ, ["x", "y"], relations=[[0, 1]]).relations == ((0, 1),)


def test_sequence_validation():
    with pytest.raises(InvalidInputError):
        GradedRing(QQ, ["x", "y"], sequence=["x + x^2"])  # not homogeneous
    with pytest.raises(InvalidInputError):
        GradedRing(QQ, ["x"], sequence=["2"])  # degree 0
    with pytest.raises(InvalidInputError):
        GradedRing(QQ, ["x", "y"], relations=["x^2"], sequence=["x^2"])
    with pytest.raises(InvalidInputError):
        GradedRing(QQ, ["x"], sequence=["x"] * 17)


def test_in_sequence_ideal_membership():
    ring = GradedRing(QQ, ["x", "y"], sequence=["x^2", "y^2"])
    assert ring.in_sequence_ideal(ring.parse("x^2*y + y^3"))
    assert ring.in_sequence_ideal(ring.zero)
    assert not ring.in_sequence_ideal(ring.parse("x*y"))
    assert not ring.in_sequence_ideal(ring.parse("x"))


def test_in_sequence_ideal_against_rank_oracle():
    # p is in (f) iff every homogeneous part p_d is in (f)_d, and p_d is in
    # (f)_d iff appending its coordinate vector to the f-span does not grow
    # the rank
    rng = Random(106)
    outcomes = set()
    for field in (QQ, GF(32003)):
        for relations, sequence in [
            (["x^3"], ["x*y", "y^2"]),
            ([], ["x^2 + y*z", "y^2 + x*z"]),
            (["z^3"], ["x^2 + y*z", "y^3"]),
        ]:
            ring = GradedRing(field, ["x", "y", "z"], relations=relations, sequence=sequence)

            def in_span(part, d):
                span = [list(col) for col in ring.sequence_span_columns(d)]
                vec = coords(ring, part, d)
                p = field.char
                return naive_rank_over(p, span + [vec]) == naive_rank_over(p, span)

            for _ in range(25):
                parts = {}
                for d in rng.sample(range(6), rng.randint(1, 3)):
                    part = ring.zero
                    for f, e in zip(ring.sequence, ring.seq_degrees):
                        part = part + ring.mul(f, random_homogeneous(rng, ring, d - e))
                    if rng.random() < 0.5:
                        part = part + random_homogeneous(rng, ring, d, density=0.2)
                    parts[d] = part
                p = sum(parts.values(), ring.zero)
                want = all(in_span(part, d) for d, part in parts.items())
                assert ring.in_sequence_ideal(p) == want
                outcomes.add(want)
    assert outcomes == {True, False}


# The rings of the benchmark workloads, with the Hilbert functions of R.
WORKLOAD_RINGS = {
    "residue-fp": (
        GF(32003), "xyzw", ["w^2"], ["x^2", "y^2", "z^3"], [1, 4, 7, 7, 4, 1, 0, 0]
    ),
    "lift-fp": (
        GF(32003), "xyzw", [], ["x^2", "y^2", "z^2", "w^2"], [1, 4, 6, 4, 1, 0, 0]
    ),
    "generic-qq": (
        QQ, "xyz", [], ["x^2 + y*z", "y^2 + x*z", "z^2 + x*y"], [1, 3, 3, 1, 0, 0]
    ),
}


@pytest.mark.parametrize("name", sorted(WORKLOAD_RINGS))
def test_quotient_basis_sizes_are_the_hilbert_function(name):
    field, names, relations, sequence, hilbert = WORKLOAD_RINGS[name]
    ring = GradedRing(field, list(names), relations=relations, sequence=sequence)
    assert [len(ring.quotient_basis(d)[0]) for d in range(len(hilbert))] == hilbert


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "F32003"])
def test_quotient_normal_forms_differ_from_monomials_by_the_span(field):
    # basis monomials are their own normal forms; every monomial minus its
    # normal form lies in (f)_d; and the basis has dim Q_d - dim (f)_d
    # elements, taken in monomial_basis order
    ring = GradedRing(field, ["x", "y", "z"], relations=["z^3"], sequence=["x^2 + y*z", "y^3"])
    p = field.char
    for d in range(-1, 8):
        basis, forms = ring.quotient_basis(d)
        monos = ring.monomial_basis(d)
        span = [list(col) for col in ring.sequence_span_columns(d)]
        base = naive_rank_over(p, span)
        assert len(basis) == len(monos) - base
        assert list(basis) == [m for m in monos if m in basis]
        assert set(forms) == set(monos)
        for k, m in enumerate(basis):
            assert forms[m] == {k: field.one}
        index = ring.basis_index(d)
        for m in monos:
            vec = coords(ring, monomial(ring, m), d)
            for k, c in forms[m].items():
                assert c
                vec[index[basis[k]]] -= c
            assert naive_rank_over(p, span + [vec]) == base


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "F7"])
def test_graded_columns_match_per_column_coords(field):
    # random degree-0 maps between free modules with negative and repeated
    # twists, over a ring whose J kills some products, at degrees where
    # some pieces are zero; then the f-span, including a c = 0 ring's
    rng = Random(215)
    ring = GradedRing(field, ["x", "y", "z"], relations=["x^2", "y*z^2"], sequence=["x*y", "z^2"])
    c0 = GradedRing(field, ["x", "y"], relations=["y^3"])
    for _ in range(25):
        src = tuple(rng.randint(-2, 2) for _ in range(rng.randint(0, 4)))
        tgt = tuple(rng.randint(-2, 2) for _ in range(rng.randint(0, 3)))
        columns = []
        for a in src:
            col = [(i, _homogeneous(rng, ring, a - b, 0.5)) for i, b in enumerate(tgt)]
            columns.append([(i, p) for i, p in col if p.terms])
        for d in range(-3, 5):
            got = graded_columns(ring, columns, src, tgt, d)
            assert len(got) == module_dim(ring, src, d)
            assert got == reference_columns(ring, columns, src, tgt, d)
    # x * x lies in J: the column of the basis monomial x is empty
    x = ring.parse("x")
    assert graded_columns(ring, [[(0, x)]], (1,), (0,), 2) == [{}, {0: 1}, {1: 1}]
    assert graded_columns(ring, [[(0, x)]], (1,), (0,), 0) == []  # zero piece
    for r in (ring, c0):
        for twists in [(0,), (1, -1, 1), ()]:
            span, span_twists = span_map(r, twists)
            for d in range(-1, 6):
                got = graded_columns(r, span, span_twists, twists, d)
                assert got == reference_columns(r, span, span_twists, twists, d)
    assert span_map(c0, (0, 1)) == ([], ())


def _columns_of_rows(rows, ncols):
    return [{r: row[k] for r, row in enumerate(rows) if row[k]} for k in range(ncols)]


def _same_line(got, want):
    """Whether the sparse column ``got`` is a nonzero multiple of ``want``."""
    if got.keys() != want.keys():
        return False
    if not got:
        return True
    r = next(iter(want))
    return all(v * want[r] == want[k] * got[r] for k, v in got.items())


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "F7"])
def test_quotient_columns_match_per_cell_normal_forms(field):
    # random degree-0 maps read over R = Q/(f), with negative and repeated
    # twists and pieces that are zero; one ring's f are monomials (so some
    # normal forms are empty), the next one's are not (so they spread), J
    # kills some products in both, and the last one's normal forms carry
    # denominators over Q.  Over F_7 every
    # column equals the per-cell reference.  Over Q the builder returns
    # integer columns, each the reference times a nonzero integer (the lcm
    # of the column's and the forms' denominators), so they are compared
    # as lines; the spans, and so resolve's picks, are the same
    rng = Random(331)
    rings = [
        GradedRing(field, ["x", "y", "z"], relations=["x^2", "y*z^2"], sequence=["x*y", "z^2"]),
        GradedRing(field, ["x", "y", "z"], relations=["z^3"], sequence=["x^2 + y*z", "y^3 - x*z^2"]),
        GradedRing(field, ["x", "y", "z"], sequence=["2*x^2 + 3*y*z", "3*y^2 - 5*x*z"]),
    ]
    scaled = False
    for ring in rings:
        for _ in range(20):
            src = tuple(rng.randint(-2, 2) for _ in range(rng.randint(0, 4)))
            tgt = tuple(rng.randint(-2, 2) for _ in range(rng.randint(0, 3)))
            columns = []
            for a in src:
                col = [(i, _homogeneous(rng, ring, a - b, 0.5)) for i, b in enumerate(tgt)]
                columns.append([(i, p) for i, p in col if p.terms])
            for d in range(-3, 6):
                got = quotient_columns(ring, columns, src, tgt, d)
                want = _columns_of_rows(
                    reference_quotient_rows(ring, columns, src, tgt, d),
                    quotient_module_dim(ring, src, d),
                )
                assert len(got) == len(want)
                assert all(r < quotient_module_dim(ring, tgt, d) for col in got for r in col)
                if field.char:
                    assert got == want
                else:
                    assert all(type(v) is int for col in got for v in col.values())
                    assert all(_same_line(g, w) for g, w in zip(got, want))
                    scaled |= got != want
    assert scaled == (not field.char)
    # x * x lies in J and x * y in (f): over R, x kills x and y in degree
    # 1 and sends z to x*z, the first of x*z, y^2, y*z
    ring = rings[0]
    x = ring.parse("x")
    assert quotient_columns(ring, [[(0, x)]], (1,), (0,), 2) == [{}, {}, {0: 1}]
    assert quotient_columns(ring, [[(0, x)]], (1,), (0,), 1) == [{0: 1}]
    assert quotient_columns(ring, [[(0, x)]], (1,), (0,), 0) == []  # zero source piece
    assert quotient_columns(ring, [[(0, x)]], (1,), (0,), -1) == []  # both zero


def test_quotient_kernel_times_column_denominators_is_the_rational_kernel():
    # over Q, quotient_sums scales the columns of source generator j by
    # column_denominator(columns[j]) and one factor common to all columns.
    # So a kernel vector of quotient_columns, with each coordinate of
    # generator j multiplied by that, is a kernel vector of the rational
    # map (the per-cell reference), and the kernels have one dimension;
    # without the scaling some vector is not in the rational kernel
    rng = Random(337)
    ring = GradedRing(QQ, ["x", "y", "z"], sequence=["2*x^2 + 3*y*z", "3*y^2 - 5*x*z"])
    src, tgt = (1, 1, 2, 2), (0, 0)
    unscaled_fails = False
    for _ in range(10):
        columns = []
        for a in src:
            col = []
            for i, b in enumerate(tgt):
                terms = {
                    m: Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                    for m in ring.monomial_basis(a - b)
                    if rng.random() < 0.5
                }
                col.append((i, Poly(ring, terms)))
            columns.append([(i, p) for i, p in col if p.terms])
        dens = [algebra.column_denominator(col) for col in columns]
        for d in range(1, 5):
            nrows = quotient_module_dim(ring, tgt, d)
            null = linalg.nullspace_columns(
                QQ, quotient_columns(ring, columns, src, tgt, d), nrows
            )
            rows = reference_quotient_rows(ring, columns, src, tgt, d)
            ncols = quotient_module_dim(ring, src, d)
            assert len(null) == ncols - naive_rank_over(0, rows)
            scale = [den for den, a in zip(dens, src) for _ in ring.quotient_basis(d - a)[0]]
            for vec in null:
                scaled = {i: v * scale[i] for i, v in vec.items()}
                assert all(sum(row[i] * v for i, v in scaled.items()) == 0 for row in rows)
                unscaled_fails |= any(sum(row[i] * v for i, v in vec.items()) for row in rows)
    assert unscaled_fails


@pytest.mark.parametrize("build", [graded_columns, quotient_columns])
def test_coordinate_builders_reject_a_term_of_the_wrong_degree(build):
    # a map from twist 2 to twist (0, 1) needs entries of degrees 2 and 1;
    # the term x of row 0 (column 1) is named at every degree, also where
    # the source piece is zero or where J kills its products
    ring = GradedRing(QQ, ["x", "y"], relations=["x^2"], sequence=["y^2"])
    good = [(0, ring.parse("y^2")), (1, ring.parse("y"))]
    bad = [(0, ring.parse("y^2 + x")), (1, ring.parse("x"))]
    for d in range(0, 5):
        build(ring, [good], (2,), (0, 1), d)
        with pytest.raises(
            InvalidInputError, match=r"^entry \(0, 1\) = y\^2 \+ x is not homogeneous of degree 2$"
        ):
            build(ring, [good, bad], (2, 2), (0, 1), d)


def test_sequence_span_columns_are_coordinates_of_multiples():
    ring = GradedRing(QQ, ["x", "y"], sequence=["x^2"])
    d = 3
    cols = ring.sequence_span_columns(d)
    f = ring.sequence[0]
    expected = []
    for m in ring.monomial_basis(d - 2):
        expected.append(tuple(coords(ring, ring.mul(f, monomial(ring, m)), d)))
    assert cols == expected


def _column(ring, *polys):
    return PolyMatrix(len(polys), 1, [[ring.parse(p)] for p in polys])


def test_solve_graded_linear_hand_case():
    ring = GradedRing(QQ, ["x", "y"], sequence=["x^2", "y^2"])
    mat = PolyMatrix(1, 2, [ring.sequence])
    rhs = _column(ring, "x^2*y + x*y^2")
    (sol,) = solve_graded_linear(ring, mat, (2, 2), (0,), 3, rhs)
    assert sol == [(0, ring.parse("y")), (1, ring.parse("x"))]


def test_solve_graded_linear_inconsistent():
    ring = GradedRing(QQ, ["x", "y"], sequence=["x^2"])
    mat = PolyMatrix(1, 1, [ring.sequence])
    # x*y has no multiple of x^2 in it; the zero column is still solvable
    rhs = PolyMatrix(1, 2, [[ring.parse("x*y"), ring.zero]])
    assert solve_graded_linear(ring, mat, (2,), (0,), 2, rhs) == [None, []]


def test_solve_graded_linear_random_substitution():
    # build each rhs column from known witnesses, then check the returned
    # solution by substituting back (it need not equal the witnesses)
    rng = Random(107)
    ring = GradedRing(QQ, ["x", "y"], relations=["x^4"], sequence=["x^2", "x*y"])
    f1, f2 = ring.sequence
    mat = PolyMatrix(1, 2, [ring.sequence])
    for _ in range(15):
        d = rng.randint(0, 3)
        rhs = [
            ring.mul(f1, _homogeneous(rng, ring, d))
            + ring.mul(f2, _homogeneous(rng, ring, d))
            for _ in range(3)
        ]
        sols = solve_graded_linear(
            ring, mat, (2, 2), (0,), d + 2, PolyMatrix(1, 3, [rhs])
        )
        for b, sol in zip(rhs, sols):
            assert sol is not None
            x = dict(sol)
            x1, x2 = x.get(0, ring.zero), x.get(1, ring.zero)
            assert ring.mul(f1, x1) + ring.mul(f2, x2) == b


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "F7"])
def test_solve_graded_linear_matches_per_column_solve_min(field):
    # each batched column must be exactly the minimal solution that one
    # elimination of [A | b] gives, consistent or not
    rng = Random(211)
    ring = GradedRing(field, ["x", "y", "z"], relations=["z^3"], sequence=[])
    seen = set()
    for _ in range(12):
        src = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 3)))
        tgt = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 3)))
        top = max(src) + 1
        mat = PolyMatrix(
            len(tgt),
            len(src),
            [
                [
                    _homogeneous(rng, ring, a - b, 0.3) if a >= b else ring.zero
                    for a in src
                ]
                for b in tgt
            ],
        )
        cols = []
        for _ in range(4):
            if rng.random() < 0.5:
                x = PolyMatrix(
                    len(src), 1, [[_homogeneous(rng, ring, top - a)] for a in src]
                )
                cols.append([row[0] for row in mat.mul(x, ring).rows])
            else:
                cols.append([_homogeneous(rng, ring, top - b) for b in tgt])
        rhs = PolyMatrix(len(tgt), len(cols), list(zip(*cols)))
        sols = solve_graded_linear(ring, mat, src, tgt, top, rhs)
        a_rows = graded_matrix_rows(ring, mat.column_nonzeros(), src, tgt, top)
        width = module_dim(ring, src, top)
        for k, sol in enumerate(sols):
            b_col = [(i, p) for i, p in enumerate(cols[k]) if p.terms]
            b = [row[0] for row in graded_matrix_rows(ring, [b_col], (top,), tgt, top)]
            expected = linalg.solve_min(field, a_rows, b, width)
            seen.add(expected is None)
            if expected is None:
                assert sol is None
            else:
                vec = {i: v for i, v in enumerate(expected) if v}
                bases = [ring.monomial_basis(top - a) for a in src]
                assert sol == coords_to_columns(ring, bases, [vec])[0]
    assert seen == {True, False}


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "F7"])
def test_coords_to_columns_inverts_graded_columns(field):
    # random sparse vectors on degree-d pieces of free modules whose twists
    # leave some pieces empty, on the monomial bases of Q and on the
    # quotient bases of R: graded_columns, or quotient_columns, of the
    # returned columns gives the vectors back
    rng = Random(313)
    ring = GradedRing(
        field, ["x", "y", "z"], relations=["x^2", "y*z^2"], sequence=["x*y + z^2"]
    )
    pieces = [
        (graded_columns, module_dim, lambda e: ring.monomial_basis(e)),
        (quotient_columns, quotient_module_dim, lambda e: ring.quotient_basis(e)[0]),
    ]
    for build, dim_of, basis in pieces:
        for twists in [(0,), (0, 5, -1), (3, 1, 1), (7,), ()]:
            for d in range(-1, 5):
                dim = dim_of(ring, twists, d)
                vecs = []
                for _ in range(4):
                    # keys in random order: the output order must not follow them
                    items = [(i, field(rng.randint(1, 6))) for i in range(dim) if rng.random() < 0.3]
                    rng.shuffle(items)
                    vecs.append(dict(items))
                cols = coords_to_columns(ring, [basis(d - a) for a in twists], vecs)
                assert len(cols) == len(vecs)
                for col in cols:
                    gens = [j for j, _ in col]
                    assert gens == sorted(set(gens))
                    assert all(p.terms for _, p in col)
                    assert all(p.degree() == d - twists[j] for j, p in col)
                assert build(ring, cols, (d,) * len(cols), twists, d) == vecs


def _homogeneous(rng, ring, d, density=0.6):
    terms = {}
    for m in ring.monomial_basis(d):
        if rng.random() < density:
            terms[m] = Fraction(rng.randint(-3, 3))
    return Poly(ring, terms)


def test_poly_matrix_ops():
    a = PolyMatrix.from_rows(
        [[RING.parse("x"), RING.parse("y")], [RING.zero, RING.parse("x*y")]]
    )
    b = PolyMatrix.from_rows([[RING.one, RING.zero], [RING.zero, RING.one]])
    assert a.mul(b, RING) == a
    assert b.mul(a, RING) == a
    assert product_sum(RING, [(1, a, b), (-1, b, a)]).is_zero()
    assert product_sum(RING, [(1, a, b), (1, b, a)]) == a.map_entries(lambda p: p * 2)
    assert product_sum(RING, [(-1, a, b)]) == a.map_entries(Poly.__neg__)

    c = PolyMatrix.from_rows([[RING.parse("y")], [RING.parse("x")]], ncols=1)
    prod = a.mul(c, RING)
    assert prod.entry(0, 0) == RING.parse("2*x*y")
    assert prod.entry(1, 0) == RING.normal_form(RING.parse("x^2*y"))


def _random_matrix(rng, nrows, ncols, density):
    """Random matrix over RING; below full density one row and one column
    are forced to zero."""
    rows = [
        [
            _random_poly(rng, RING, maxdeg=2, nterms=2)
            if rng.random() < density
            else RING.zero
            for _ in range(ncols)
        ]
        for _ in range(nrows)
    ]
    if density < 1 and nrows and ncols:
        rows[rng.randrange(nrows)] = [RING.zero] * ncols
        col = rng.randrange(ncols)
        for row in rows:
            row[col] = RING.zero
    return PolyMatrix.from_rows(rows, ncols=ncols)


def _reference_product(a, b, ring=RING):
    """The plain triple sum of reduced products, entry by entry."""
    return [
        [
            sum(
                (ring.mul(a.entry(i, k), b.entry(k, j)) for k in range(a.ncols)),
                ring.zero,
            )
            for j in range(b.ncols)
        ]
        for i in range(a.nrows)
    ]


def _assert_matches_reference(a, b):
    prod = a.mul(b, RING)
    assert (prod.nrows, prod.ncols) == (a.nrows, b.ncols)
    assert [list(row) for row in prod.rows] == _reference_product(a, b)
    return prod


def test_poly_matrix_mul_associative_random():
    rng = Random(108)
    for trial in range(120):
        # dense, then sparse (about 15% nonzero) with zero dimensions allowed
        if trial < 40:
            dims, density = [rng.randint(1, 3) for _ in range(4)], 1.0
        else:
            dims, density = [rng.randint(0, 6) for _ in range(4)], 0.15
        mats = [_random_matrix(rng, dims[k], dims[k + 1], density) for k in range(3)]
        ab = _assert_matches_reference(mats[0], mats[1])
        bc = _assert_matches_reference(mats[1], mats[2])
        left = _assert_matches_reference(ab, mats[2])
        right = _assert_matches_reference(mats[0], bc)
        assert left == right

    # rank-zero blocks survive composition: 0xn, nx0 and an inner 0
    x, y = RING.parse("x"), RING.parse("y")
    m = PolyMatrix.from_rows([[x, y], [y, RING.zero]])
    empty_rows = PolyMatrix.from_rows([], ncols=2)
    empty_cols = PolyMatrix.from_rows([[], []])
    for a, b in [
        (empty_rows, m),
        (m, empty_cols),
        (empty_cols, empty_rows),
        (empty_rows, empty_cols),
    ]:
        _assert_matches_reference(a, b)

    # products that vanish in Q = k[x, y]/(x^2), alone or by cancellation
    assert _assert_matches_reference(
        PolyMatrix.from_rows([[x, y]]), PolyMatrix.from_rows([[x], [RING.zero]])
    ).is_zero()
    assert _assert_matches_reference(
        PolyMatrix.from_rows([[x, y]]), PolyMatrix.from_rows([[y], [-x]])
    ).is_zero()
    assert _assert_matches_reference(m, m).rows == (
        (y * y, x * y),
        (x * y, y * y),
    )

    with pytest.raises(ValueError, match="cannot multiply 2x2 by 0x2"):
        m.mul(empty_rows, RING)
    with pytest.raises(ValueError, match="cannot multiply 2x0 by 2x2"):
        empty_cols.mul(m, RING)


def _random_grid(rng, nrows, ncols, against=None):
    """A dense grid of polynomials over RING, about half of them zero.  With
    ``against`` (a grid of the same shape) some cells are its negatives, so
    that sums cancel there."""
    x = RING.parse("x")
    grid = []
    for i in range(nrows):
        row = []
        for j in range(ncols):
            pick = rng.random()
            if against is not None and pick < 0.25:
                row.append(-against[i][j])
            elif pick < 0.55:
                row.append(RING.zero)
            elif pick < 0.7:
                row.append(RING.mul(x, _random_poly(rng, RING, maxdeg=1, nterms=2)))
            else:
                row.append(_random_poly(rng, RING, maxdeg=2, nterms=2))
        grid.append(row)
    return grid


def _assert_matches_grid(m, grid):
    """Every public view of ``m`` agrees with the dense reference ``grid``."""
    nrows = len(grid)
    ncols = len(grid[0]) if grid else m.ncols  # a 0-row grid has no width
    assert (m.nrows, m.ncols) == (nrows, ncols)
    cells = [(i, j, p) for i, row in enumerate(grid) for j, p in enumerate(row)]
    assert entries(m) == cells
    assert all(m.entry(i, j) == p for i, j, p in cells)
    assert [list(row) for row in m.rows] == grid
    # nonzeros() yields every stored entry: equality with the reference
    # nonzeros means no stored entry is zero
    assert list(m.nonzeros()) == [(i, j, p) for i, j, p in cells if not p.is_zero()]
    assert m.is_zero() == all(p.is_zero() for _, _, p in cells)
    dense = PolyMatrix(nrows, ncols, grid)
    assert m == dense and hash(m) == hash(dense)
    with pytest.raises(IndexError):
        m.entry(nrows, 0)
    with pytest.raises(IndexError):
        m.entry(0, ncols)


def _cellwise(fn, *grids):
    """The grid of ``fn`` applied to corresponding cells of ``grids``."""
    return [[fn(*ps) for ps in zip(*rows)] for rows in zip(*grids)]


def _product_sum_reference(ring, products):
    """The dense grid of sum sign * a * b, cell by cell through ``ring.mul``."""
    _, a, b = products[0]
    grid = [[ring.zero] * b.ncols for _ in range(a.nrows)]
    for sign, a, b in products:
        for i, row in enumerate(_reference_product(a, b, ring)):
            for j, p in enumerate(row):
                grid[i][j] += p if sign > 0 else -p
    return grid


def test_sparse_ops_match_dense_reference():
    rng = Random(1111)
    x = RING.parse("x")
    for trial in range(150):
        # 0xn, nx0 and inner-zero shapes come up among the small dimensions
        r, k, c = (rng.randint(0, 4) for _ in range(3))
        ga = _random_grid(rng, r, c)
        gb = _random_grid(rng, r, c, against=ga)
        a = PolyMatrix(r, c, ga)
        b = PolyMatrix(r, c, gb)
        _assert_matches_grid(a, ga)
        _assert_matches_grid(b, gb)
        times_x = lambda p: RING.mul(p, x)  # sends the x-multiples to 0 mod x^2
        _assert_matches_grid(a.map_entries(times_x), _cellwise(times_x, ga))

        gc = _random_grid(rng, c, k)
        prod = a.mul(PolyMatrix(c, k, gc), RING)
        _assert_matches_grid(
            prod,
            [
                [sum((RING.mul(ga[i][t], gc[t][j]) for t in range(c)), RING.zero)
                 for j in range(k)]
                for i in range(r)
            ],
        )

    zero = PolyMatrix.zeros(RING, 2, 3)
    _assert_matches_grid(zero, [[RING.zero] * 3 for _ in range(2)])
    eye = [[RING.one, RING.zero], [RING.zero, RING.one]]
    _assert_matches_grid(PolyMatrix.from_rows(eye), eye)
    assert zero != PolyMatrix.zeros(RING, 3, 2)

    # product_sum over both fields, in Q = k[x, y, z]/(x^2, y*z^2) where J
    # kills some products, against the cellwise ring.mul reference.  Every
    # third trial repeats a summand with the other sign, which cancels it
    # across the triples; no result may store a zero
    for field in (QQ, GF(7)):
        ring = GradedRing(field, ["x", "y", "z"], relations=["x^2", "y*z^2"])

        def random_matrix(n, m):
            cell = lambda: _random_poly(rng, ring, maxdeg=2, nterms=3)
            return PolyMatrix(n, m, [[cell() for _ in range(m)] for _ in range(n)])

        cancelled = 0
        for trial in range(90):
            r, c = rng.randint(0, 3), rng.randint(0, 3)
            products = []
            for _ in range(rng.randint(1, 3)):
                k = rng.randint(0, 3)
                products.append((rng.choice([1, -1]), random_matrix(r, k), random_matrix(k, c)))
            if trial % 3 == 0:
                sign, a, b = rng.choice(products)
                products.insert(rng.randint(0, len(products)), (-sign, a, b))
            expected = _product_sum_reference(ring, products)
            _assert_matches_grid(product_sum(ring, products), expected)
            cancelled += trial % 3 == 0 and r * c > 0 and all(
                p.is_zero() for row in expected for p in row
            )
        assert cancelled > 5

        x, y, z = ring.parse("x"), ring.parse("y"), ring.parse("z")
        one = lambda p: PolyMatrix.from_rows([[p]])
        cases = [
            # x*y - y*x cancels across the triples to an absent cell
            ([(1, one(x), one(y)), (-1, one(y), one(x))], "0"),
            # 3 + 4 = 7 wraps to 0 over F_7
            ([(1, one(x * 3), one(y)), (1, one(y * 4), one(x))],
             "7*x*y" if field.char == 0 else "0"),
            # x^2 lies in J: its term dies, the other triple's stays
            ([(1, one(x), one(x)), (-1, one(y), one(z))],
             "-y*z" if field.char == 0 else "6*y*z"),
            # x*z*y*z lies in J even though neither factor does
            ([(-1, one(x * z), one(y * z + x))], "0"),
        ]
        for products, want in cases:
            got = product_sum(ring, products)
            assert str(got.entry(0, 0)) == want
            _assert_matches_grid(got, _product_sum_reference(ring, products))

        # 0-row and 0-column results, and a sum over an empty inner dimension
        a, b = PolyMatrix.from_rows([[x, y]]), PolyMatrix.from_rows([[z], [x]])
        zeros = lambda n, m: PolyMatrix.zeros(ring, n, m)
        _assert_matches_grid(product_sum(ring, [(1, zeros(0, 2), b)]), [])
        _assert_matches_grid(product_sum(ring, [(1, a, zeros(2, 0))]), [[]])
        _assert_matches_grid(product_sum(ring, [(-1, zeros(0, 2), zeros(2, 0))]), [])
        empty = product_sum(ring, [(1, zeros(1, 0), zeros(0, 1)), (-1, a, b)])
        want = "-x*y - x*z" if field.char == 0 else "6*x*y + 6*x*z"
        assert str(empty.entry(0, 0)) == want

        # a triple that does not conform is an error, not a truncated zip
        bad = [
            ([(1, a, a)], "cannot multiply 1x2 by 1x2"),
            ([(1, a, b), (1, zeros(0, 2), b)], "cannot add 1 times a 0x1 product to a 1x1 sum"),
            ([(1, a, b), (1, a, zeros(2, 2))], "cannot add 1 times a 1x2 product to a 1x1 sum"),
            ([(1, b, a), (-1, b, zeros(1, 3))], "cannot add -1 times a 2x3 product to a 2x2 sum"),
            ([(1, a, b), (2, a, b)], "cannot add 2 times a 1x1 product to a 1x1 sum"),
            ([(1, a, b), (1, a, a)], "cannot multiply 1x2 by 1x2"),
        ]
        for products, message in bad:
            with pytest.raises(ValueError, match=message):
                product_sum(ring, products)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "F7"])
def test_poly_matrix_mul_matches_reference_over_both_fields(field):
    # Q = k[x, y, z]/(x^2, y*z^2), so J kills some products; over F_7 the
    # coefficients wrap.  Half the trials pair each inner index k with a
    # k' whose column of a is u times column k and whose row of b is -1/u
    # times row k, so that whole sums cancel; no product may store a zero
    ring = GradedRing(field, ["x", "y", "z"], relations=["x^2", "y*z^2"])
    rng = Random(1213)
    cancelled = 0
    for trial in range(120):
        r, k, c = (rng.randint(0, 4) for _ in range(3))
        ga = [[_random_poly(rng, ring, maxdeg=2, nterms=3) for _ in range(k)] for _ in range(r)]
        gb = [[_random_poly(rng, ring, maxdeg=2, nterms=3) for _ in range(c)] for _ in range(k)]
        if trial % 2:
            for t in range(k):
                u = rng.choice([1, 2, 3, 5, -4])
                for row in ga:
                    row.append(row[t] * u)
                gb.append([p * Fraction(-1, u) for p in gb[t]])
            k *= 2
        a, b = PolyMatrix(r, k, ga), PolyMatrix(k, c, gb)
        expected = _reference_product(a, b, ring)
        _assert_matches_grid(a.mul(b, ring), expected)
        cancelled += trial % 2 and r * c > 0 and all(p.is_zero() for row in expected for p in row)
    assert cancelled > 10

    x, y = ring.parse("x"), ring.parse("y")
    cases = [
        # x * y - y * x cancels over both fields
        ([[x, y]], [[y], [-x]], "0"),
        # 3 + 4 = 7 wraps to 0 over F_7
        ([[x * 3, y * 4]], [[y], [x]], "7*x*y" if field.char == 0 else "0"),
        # 5 * 3 = 15 wraps to 1 over F_7
        ([[x * 5]], [[y * 3]], "15*x*y" if field.char == 0 else "x*y"),
        # x^2 lies in J, alone and inside a sum
        ([[x]], [[x]], "0"),
        ([[x + y]], [[x - y]], "-y^2" if field.char == 0 else "6*y^2"),
    ]
    for ga, gb, want in cases:
        a, b = PolyMatrix.from_rows(ga), PolyMatrix.from_rows(gb)
        expected = _reference_product(a, b, ring)
        assert str(expected[0][0]) == want
        _assert_matches_grid(a.mul(b, ring), expected)


def _coefficients(mat):
    return [c for _, _, p in mat.nonzeros() for c in p.terms.values()]


def test_product_sum_over_q_gives_normalized_fractions():
    # random sums whose factors carry denominators 1, 2, 3 and 6 (so that
    # cells mix several denominators) and whose results include integers:
    # every coefficient is a normalized Fraction, never an int, and equals
    # the cellwise ring.mul reference
    ring = GradedRing(QQ, ["x", "y", "z"], relations=["x^2", "y*z^2"])
    rng = Random(1214)

    def random_matrix(n, m):
        def cell():
            terms = {}
            for _ in range(rng.randint(0, 3)):
                mono = tuple(rng.randint(0, 2) for _ in range(3))
                terms[mono] = Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 6]))
            return ring.normal_form(Poly(ring, terms))

        return PolyMatrix(n, m, [[cell() for _ in range(m)] for _ in range(n)])

    integral = 0
    for _ in range(60):
        r, c = rng.randint(1, 3), rng.randint(1, 3)
        products = []
        for _ in range(rng.randint(1, 3)):
            k = rng.randint(1, 3)
            products.append((rng.choice([1, -1]), random_matrix(r, k), random_matrix(k, c)))
        got = product_sum(ring, products)
        _assert_matches_grid(got, _product_sum_reference(ring, products))
        for v in _coefficients(got):
            assert type(v) is Fraction and v
            assert v.denominator > 0 and math.gcd(v.numerator, v.denominator) == 1
            integral += v.denominator == 1
    assert integral > 20

    x, y = ring.parse("x"), ring.parse("y")
    one = lambda p: PolyMatrix.from_rows([[p]])
    # one triple whose coefficients multiply to an integer: 2/3 * 3/2 = 1
    got = product_sum(ring, [(1, one(x * Fraction(2, 3)), one(y * Fraction(3, 2)))])
    assert str(got.entry(0, 0)) == "x*y"
    assert [type(v) for v in _coefficients(got)] == [Fraction]
    # 1/2*x*y + 1/3*x*y - 5/6*x*y: three denominators that cancel exactly
    thirds = [(1, one(x * Fraction(1, 2)), one(y)), (1, one(x * Fraction(1, 3)), one(y))]
    cancelled = product_sum(ring, thirds + [(-1, one(y * Fraction(5, 6)), one(x))])
    assert cancelled.is_zero() and cancelled.entry(0, 0).terms == {}
    # the same sum with -1/6 instead leaves 2/3*x*y, and J drops x^2 alike
    left = product_sum(
        ring, thirds + [(-1, one(y), one(x * Fraction(1, 6))), (1, one(x * Fraction(1, 2)), one(x))]
    )
    assert left.entry(0, 0).terms == {(1, 1, 0): Fraction(2, 3)}
    assert [type(v) for v in _coefficients(left)] == [Fraction]


@pytest.mark.parametrize("name", ["generic", "rational"])
def test_cached_integer_forms_match_their_terms_after_verify(name, monkeypatch, tmp_path, capsys):
    # run the verify battery on a Q fixture with every product_sum call
    # recorded, then read back each factor entry's cached product form
    # (den, ((key, numerator), ...)): unpacked, key by key, it must still
    # be exactly its terms, in their order.  The rational fixture's entries
    # carry denominators 2, 3 and 7
    from koszul_lift import assembly, cli, homotopy

    touched = {}
    real = algebra.product_sum

    def recording(ring, products):
        for _, a, b in products:
            for _, _, p in [*a.nonzeros(), *b.nonzeros()]:
                touched[id(p)] = p
        return real(ring, products)

    for module in (algebra, homotopy, assembly):
        monkeypatch.setattr(module, "product_sum", recording)
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    resolved = json.loads((fixtures / f"resolve_{name}_length4.json").read_text())
    complex_path = tmp_path / "complex.json"
    complex_path.write_text(json.dumps(resolved["complex"]))
    ring_path = str(fixtures / f"{name}_ring.json")
    assert cli.main(["verify", "--ring", ring_path, "--complex", str(complex_path)]) == 0
    assert "result: PASS (8/8)" in capsys.readouterr().out

    cached = [p for p in touched.values() if p._form is not None]
    assert len(cached) > 100 and len(cached) > len(touched) // 2
    assert name == "generic" or {p._form[0] for p in cached} > {1}
    for p in cached:
        den, numerators = p._form
        assert all(type(key) is type(n) is int for key, n in numerators)
        assert [(_unpack(key, p.ring.nvars), Fraction(n, den)) for key, n in numerators] == list(
            p.terms.items()
        )


def _unpack(key, nvars):
    """The exponent tuple packed into ``key``, 32 bits per variable, the
    last variable lowest."""
    return tuple(key >> 32 * (nvars - 1 - i) & 0xFFFFFFFF for i in range(nvars))


@pytest.mark.parametrize("field", [GF(32003), QQ], ids=["F32003", "QQ"])
def test_packed_product_sum_matches_naive_polynomials(field):
    # random sparse triples whose entries mix small exponents with ones up
    # to 2^31 - 1, so product exponents reach 2^32 - 2 in one 32-bit field
    # without a carry; J kills small products and z^(2^32 - 2) alone.  The
    # reference sums pmul products with padd, drops J with preduce and
    # reduces mod p
    big = (1 << 31) - 1
    ring = GradedRing(field, ["x", "y", "z"], relations=["x^2*y^2", f"z^{2 * big}"])
    rng = Random(2807)
    exponents = [0, 1, 2, big - 1, big]

    def random_matrix(n, m):
        rows = []
        for _ in range(n):
            row = {}
            for j in range(m):
                terms = {}
                for _ in range(rng.randint(0, 3)):
                    mono = tuple(rng.choice(exponents) for _ in range(3))
                    terms[mono] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                p = Poly(ring, terms)
                if p.terms and rng.random() < 0.6:
                    row[j] = p
            rows.append(row)
        return PolyMatrix._from_sparse(n, m, rows, ring.zero)

    def mod_p(f):
        if field.char:
            f = {m: c % field.char for m, c in f.items() if c % field.char}
        return f

    seen_big = killed = False
    for trial in range(60):
        r, c = rng.randint(1, 3), rng.randint(1, 3)
        products = []
        for _ in range(rng.randint(1, 3)):
            k = rng.randint(0, 3)
            products.append((rng.choice([1, -1]), random_matrix(r, k), random_matrix(k, c)))
        got = product_sum(ring, products)
        for i in range(r):
            for j in range(c):
                want = {}
                for sign, a, b in products:
                    for k in range(a.ncols):
                        prod = pmul(_to_dict(a.entry(i, k)), _to_dict(b.entry(k, j)))
                        want = padd(want, pscale(prod, sign))
                reduced = mod_p(preduce(want, ring.relations))
                assert _to_dict(got.entry(i, j)) == reduced
                seen_big |= any(max(m) > big for m in reduced)
                killed |= reduced != mod_p(want)
    assert seen_big and killed


@pytest.mark.parametrize(
    "monomial, message",
    [
        ((1 << 31, 0), r"exponent 2147483648 of monomial \(2147483648, 0\)"),
        ((0, -1), r"exponent -1 of monomial \(0, -1\)"),
        ((1,), r"monomial \(1,\) does not have 2 exponents"),
    ],
)
def test_product_sum_rejects_monomials_that_do_not_pack(monomial, message):
    # a packed field holds 32 bits: the sum of two exponents below 2^31
    # cannot carry into its neighbour, nor a short tuple shift the fields.
    # The constructor rejects the last two monomials itself, so the factor
    # is built unchecked, as library code builds its Polys
    ring = GradedRing(GF(32003), ["x", "y"])
    bad = PolyMatrix.from_rows([[Poly._of(ring, {monomial: 1})]])
    one = PolyMatrix.from_rows([[ring.one]])
    for products in ([(1, bad, one)], [(1, one, bad)]):
        with pytest.raises(InvalidInputError, match=message):
            product_sum(ring, products)


@pytest.mark.parametrize(
    "monomial",
    [(1,), (1, 0, 0), (-1, 2), (0, -3), (1.0, 2), (True, 0), (1, "2"), "xy", 3],
    ids=repr,
)
def test_poly_rejects_malformed_monomials(monomial):
    # (1,) once printed as x and (-1, 2) as y^2; a zero coefficient does
    # not excuse its monomial
    ring = GradedRing(GF(7), ["x", "y"])
    for c in (1, 0):
        with pytest.raises(InvalidInputError, match=re.escape(f"monomial {monomial!r} is not a tuple of 2")):
            Poly(ring, {(0, 1): 1, monomial: c})
    assert str(Poly(ring, {(1, 2): 1, (0, 0): 0})) == "x*y^2"


def test_ring_json_roundtrip():
    for ring in (RING, PLAIN, GradedRing(GF(32003), ["u", "v"], sequence=["u*v"])):
        again = GradedRing.from_json_dict(ring.to_json_dict())
        assert again == ring
        assert again.to_json_dict() == ring.to_json_dict()


def _random_sparse_matrix(rng, ring, nrows, ncols):
    density = rng.choice([0.0, 0.2, 0.6])
    return PolyMatrix(
        nrows,
        ncols,
        [
            [_random_poly(rng, ring) if rng.random() < density else ring.zero for _ in range(ncols)]
            for _ in range(nrows)
        ],
    )


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "F7"])
def test_matrix_json_roundtrip_random(field):
    rng = Random(409)
    ring = GradedRing(field, ["x", "y"], relations=["x^2"])
    shapes = [(0, 3), (3, 0), (0, 0)] + [(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(20)]
    for nrows, ncols in shapes:
        m = _random_sparse_matrix(rng, ring, nrows, ncols)
        rows = matrix_to_json(m)
        assert rows == [[str(m.entry(i, j)) for j in range(ncols)] for i in range(nrows)]
        assert matrix_from_json(ring, rows, nrows, ncols, "m") == m


def test_matrix_from_json_drops_zero_cells():
    ring = GradedRing(QQ, ["x", "y"])
    cells = ["0", "-0", "0*x", "x - x", " 0 ", "x"]
    m = matrix_from_json(ring, [cells], 1, None, "m")
    assert (m.nrows, m.ncols) == (1, 6)
    assert list(m.nonzeros()) == [(0, 5, ring.parse("x"))]
    assert m.column_nonzeros()[:5] == [[]] * 5
    assert m == PolyMatrix(1, 6, [[ring.parse(c) for c in cells]])


def test_matrix_from_json_rejects_bad_cells_and_shapes():
    ring = GradedRing(QQ, ["x", "y"])
    for cell in (0, None):
        with pytest.raises(
            ParseError, match=rf"^differential at 2, cell \(0, 0\): polynomial must be text, got {cell}$"
        ):
            matrix_from_json(ring, [[cell, "x"]], 1, None, "differential at 2")
    # an unparsable cell past the first row is named by its row and column
    with pytest.raises(
        ParseError, match=r"^relations, cell \(1, 2\): unknown variable 'q'; ring has \('x', 'y'\)$"
    ):
        matrix_from_json(ring, [["x", "0", "y"], ["0", "x", "q"]], 2, 3, "relations")
    with pytest.raises(ParseError, match="^differential at 2 must be 2 rows of 2 entries$"):
        matrix_from_json(ring, [["x", "y"], ["x"]], 2, None, "differential at 2")
    with pytest.raises(ParseError, match="^differential at 2 must be a list of rows$"):
        matrix_from_json(ring, [["x"], "y"], 2, None, "differential at 2")
