"""Windowed free complexes: validation, checking, homology, round trips."""

from random import Random

import pytest

from koszul_lift.algebra import (
    GradedRing,
    PolyMatrix,
    graded_matrix_rows,
    module_dim,
    span_map,
)
from koszul_lift.builtin_examples import paper_5_2
from koszul_lift.complexes import (
    FreeComplex,
    check_complex,
    homogeneity_failures,
    homology_dims,
    is_minimal,
    lift_to_Q,
    reduce_to_R,
)
from koszul_lift.errors import InvalidInputError
from koszul_lift.fields import GF, QQ
from koszul_lift.homotopy import HomotopyFamily
from koszul_lift.resolve import Presentation
from koszul_lift.samples import (
    random_finite_complex,
    random_regular_ring,
    random_resolved_complex,
)

from oracles import block_diagonal_span_rows, homology_dim_in_Q_coordinates, quotient_dim

RING = GradedRing(QQ, ["x", "y"], relations=["x^2"], sequence=["y^2"])


def _mat(ring, rows, ncols=None):
    return PolyMatrix.from_rows(
        [[ring.parse(e) if isinstance(e, str) else e for e in row] for row in rows],
        ncols=ncols,
    )


def _simple_pair():
    # 0 -> Q(1) --x--> Q -> 0 over Q = k[x]
    ring = GradedRing(QQ, ["x"])
    C = FreeComplex(
        ring,
        "Q",
        (0, 1),
        {0: (0,), 1: (1,)},
        {1: _mat(ring, [["x"]])},
        support="finite",
    )
    return ring, C


def test_constructor_validation():
    ring, C = _simple_pair()
    with pytest.raises(InvalidInputError):
        FreeComplex(ring, "S", (0, 1), {0: (0,), 1: (1,)}, {})
    with pytest.raises(InvalidInputError):
        FreeComplex(ring, "Q", (1, 0), {0: (0,), 1: (1,)}, {})
    with pytest.raises(InvalidInputError):
        FreeComplex(ring, "Q", (0, 1), {0: (0,)}, {})  # missing twists at 1
    with pytest.raises(InvalidInputError):
        FreeComplex(
            ring, "Q", (0, 1), {0: (0,), 1: (1,), 2: (2,)}, {}
        )  # twists outside
    with pytest.raises(InvalidInputError):
        FreeComplex(
            ring,
            "Q",
            (0, 1),
            {0: (0,), 1: (1,)},
            {1: _mat(ring, [["x", "x"]])},  # wrong shape
        )
    with pytest.raises(InvalidInputError):
        FreeComplex(ring, "R", (0, 1), {0: (0,), 1: (1,)}, {}, is_lift=True)


def _build_with(kind, value):
    ring, C = _simple_pair()
    if kind == "twist":
        FreeComplex(ring, "Q", (0, 1), {0: (0,), 1: (value,)}, {}, support="finite")
    elif kind == "window":
        FreeComplex(ring, "Q", (value, 1), {0: (0,), 1: (1,)}, {})
    elif kind == "presentation":
        Presentation((0, value), PolyMatrix.zeros(ring, 2, 0))
    else:
        HomotopyFamily(C, value, {})


@pytest.mark.parametrize(
    "value",
    [1.7, 0.9, 1.0, "1", "a", True, None],
    ids=["float", "float-below-1", "integral-float", "digit-string", "string", "bool", "none"],
)
@pytest.mark.parametrize(
    "kind, what",
    [
        ("twist", "twist at position 1"),
        ("window", "window bound"),
        ("presentation", "generator twist"),
        ("level", "homotopy level"),
    ],
    ids=["twist", "window", "presentation", "level"],
)
def test_constructors_take_only_ints(kind, what, value):
    # a float, a numeric string or a bool is refused, not truncated to an int
    with pytest.raises(InvalidInputError, match=rf"^{what} must be an integer, got "):
        _build_with(kind, value)
    _build_with(kind, 0)


def test_missing_differentials_become_zero():
    ring = GradedRing(QQ, ["x"])
    C = FreeComplex(ring, "Q", (0, 2), {0: (0,), 1: (), 2: (0,)}, {})
    assert C.diffs[1].nrows == 1 and C.diffs[1].ncols == 0
    assert C.differential(2).is_zero()


def test_support_semantics():
    ring, _ = _simple_pair()
    twists = {0: (0,), 1: (1,), 2: (2,)}
    mk = lambda sup: FreeComplex(ring, "Q", (0, 2), twists, {}, support=sup)

    fin = mk("finite")
    assert fin.known_rank(-5) == 0 and fin.known_rank(7) == 0
    assert list(fin.interior_positions()) == [0, 1, 2]

    bb = mk("bounded_below")
    assert bb.known_rank(-1) == 0
    assert bb.known_rank(3) is None
    assert list(bb.interior_positions()) == [0, 1]

    win = mk("window")
    assert win.known_rank(-1) is None and win.known_rank(3) is None
    assert list(win.interior_positions()) == [1]

    with pytest.raises(InvalidInputError):
        homology_dims(win, [0], 4)  # boundary position rejected


def test_check_complex_catches_broken_square():
    ring = GradedRing(QQ, ["x", "y"])
    good = FreeComplex(
        ring,
        "Q",
        (0, 2),
        {0: (0,), 1: (1, 1), 2: (2,)},
        {
            1: _mat(ring, [["x", "y"]]),
            2: _mat(ring, [["-y"], ["x"]]),
        },
        support="finite",
    )
    assert check_complex(good).ok

    bad = FreeComplex(
        ring,
        "Q",
        (0, 2),
        {0: (0,), 1: (1, 1), 2: (2,)},
        {
            1: _mat(ring, [["x", "y"]]),
            2: _mat(ring, [["y"], ["x"]]),  # d^2 = 2xy
        },
        support="finite",
    )
    rep = check_complex(bad)
    assert not rep.ok
    assert rep.first().kind == "composite"


def test_check_complex_catches_inhomogeneous_entry():
    ring = GradedRing(QQ, ["x", "y"])
    C = FreeComplex(
        ring,
        "Q",
        (0, 1),
        {0: (0,), 1: (2,)},
        {1: _mat(ring, [["x"]])},  # degree 1 entry where 2 is forced
    )
    rep = check_complex(C)
    assert not rep.ok
    assert rep.first().kind == "homogeneity"


def test_composite_over_R_allows_f_multiples():
    # over R = Q/(y^2): d^2 = y^2 * something is fine
    C = FreeComplex(
        RING,
        "R",
        (0, 1),
        {0: (0,), 1: (2,)},
        {1: _mat(RING, [["y^2"]])},
    )
    # y^2 is zero in R, so as an R-complex entry it is normal-formed over Q;
    # the composite check happens on the stored Q-representatives
    rep = check_complex(C)
    assert rep.ok


def test_failures_are_reported_row_major():
    ring = GradedRing(QQ, ["x", "y", "z"])
    # d_1 is built so that its row 1 stores column 2 before column 0; both
    # entries have the wrong degree, and (1, 0) comes first row-major
    x, y = ring.parse("x"), ring.parse("y")
    rows = [{0: x, 1: y}, {1: y, 2: ring.parse("x^2"), 0: ring.parse("x*y")}]
    d1 = PolyMatrix._from_sparse(2, 3, rows, ring.zero)
    C = FreeComplex(ring, "Q", (0, 1), {0: (0, 0), 1: (1, 1, 1)}, {1: d1})
    assert [(f.position, f.entry) for f in homogeneity_failures(C)] == [
        (1, (1, 0)),
        (1, (1, 2)),
    ]
    assert check_complex(C).first().entry == (1, 0)

    # d_1 d_2 = [x*y, 0, x*z]: the product meets column 2 before column 0
    # and cancels column 1
    C = FreeComplex(
        ring,
        "Q",
        (0, 2),
        {0: (0,), 1: (1, 1), 2: (2, 2, 2)},
        {1: _mat(ring, [["x", "y"]]), 2: _mat(ring, [["0", "y", "z"], ["x", "-x", "0"]])},
    )
    rep = check_complex(C)
    assert [(f.kind, f.position, f.entry) for f in rep.failures] == [
        ("composite", 2, (0, 0)),
        ("composite", 2, (0, 2)),
    ]


def test_lift_reduce_roundtrip():
    _, cbar, _ = paper_5_2()
    F = lift_to_Q(cbar)
    assert F.is_lift and F.over == "Q"
    back = reduce_to_R(F)
    assert back == cbar  # representatives are canonical
    with pytest.raises(InvalidInputError):
        lift_to_Q(F)


def test_json_roundtrip():
    _, cbar, _ = paper_5_2()
    data = cbar.to_json_dict()
    again = FreeComplex.from_json_dict(cbar.ring, data)
    assert again == cbar
    assert again.to_json_dict() == data

    ring, C = _simple_pair()
    again2 = FreeComplex.from_json_dict(ring, C.to_json_dict())
    assert again2 == C and again2.support == "finite"


def test_module_dim_counts_twisted_monomials():
    # a generator of twist a sits in degree a, so its degree-d slice has a
    # monomial basis of Q_{d-a}
    twists = (0, 1, -2)
    for d in range(0, 5):
        total = module_dim(RING, twists, d)
        assert total == sum(RING.dim(d - a) for a in twists)
    assert quotient_dim(2, [(2, 0)], 3) == RING.dim(3)


@pytest.mark.parametrize(
    "ring",
    [
        RING,
        GradedRing(GF(7), ["x", "y", "z"], relations=["z^2"], sequence=["x^2", "y^3"]),
        GradedRing(GF(7), ["x", "y"], relations=["y^3"]),
    ],
    ids=["c1", "c2", "c0"],
)
def test_span_map_rows_are_block_diagonal_copies(ring):
    # one block per generator: the ring's W_{d-a} on that generator's rows
    # and columns, zero elsewhere; a c = 0 ring has no span columns at all
    twists = (0, 1, -2, 1)
    span, src = span_map(ring, twists)
    assert span == [[(j, f)] for j in range(len(twists)) for f in ring.sequence]
    assert src == tuple(a + e for a in twists for e in ring.seq_degrees)
    for d in range(-1, 6):
        rows = graded_matrix_rows(ring, span, src, twists, d)
        assert len(rows) == module_dim(ring, twists, d)
        assert rows == block_diagonal_span_rows(ring, twists, d)


def test_homology_single_map_over_Q():
    # 0 -> Q(1) --x--> Q -> 0 over Q = k[x]: H_0 = k in degree 0 only
    _, C = _simple_pair()
    dims = homology_dims(C, [0, 1], 3)
    assert dims[(0, 0)] == 1
    assert all(v == 0 for k, v in dims.items() if k != (0, 0))


@pytest.mark.parametrize("positions", [[0.6, True], [0, 1.0], ["1"], [0, None]])
def test_homology_rejects_positions_that_are_not_ints(positions):
    # int() would read 0.6 as 0 and True as 1, and answer for those
    _, C = _simple_pair()
    with pytest.raises(InvalidInputError, match="homology position must be an integer"):
        homology_dims(C, positions, 3)


@pytest.mark.parametrize("bound", [3.5, "3", True, None], ids=repr)
def test_homology_rejects_a_degree_bound_that_is_not_an_int(bound):
    # True once answered for bound 1, and 3.5 or "3" failed in range()
    _, C = _simple_pair()
    with pytest.raises(InvalidInputError, match="degree bound must be an integer"):
        homology_dims(C, [0], bound)


def test_homology_of_golden_input_over_R():
    # the window is a slice of a complete resolution, exact at every
    # interior position
    _, cbar, _ = paper_5_2()
    dims = homology_dims(cbar, [-1, 0, 1], 6)
    assert all(v == 0 for v in dims.values())


def _complexes_with_homology(rng, ring):
    # a resolution has H_0 = M; a Koszul complex on random elements has
    # homology at several positions
    return [random_resolved_complex(rng, ring, 3), random_finite_complex(rng, ring, 2)]


@pytest.mark.parametrize("field", [GF(32003), QQ], ids=["F32003", "QQ"])
def test_homology_over_R_matches_Q_coordinate_oracle(field):
    rng = Random(302)
    rings = [random_regular_ring(rng, field, 3, rng.randint(1, 2)) for _ in range(4)]
    # sequences whose normal forms are not single monomials, with and without J
    rings += [
        GradedRing(field, ["x", "y", "z"], relations=["z^3"], sequence=["x^2 + y*z", "y^3"]),
        GradedRing(field, ["x", "y", "z"], sequence=["x^2 + y*z", "y^2 + x*z", "z^2 + x*y"]),
        # normal forms with denominators over Q: homology ranks scaled
        # integer columns there
        GradedRing(field, ["x", "y", "z"], sequence=["2*x^2 + 3*y*z", "3*y^2 - 5*x*z"]),
    ]
    assert any(ring.relations for ring in rings)
    assert any(rings[-1].quotient_basis(d)[2] > 1 for d in range(7)) == (not field.char)
    seen_homology = False
    for ring in rings:
        for C in _complexes_with_homology(rng, ring):
            got = homology_dims(C, C.interior_positions(), 6)
            assert got == {key: homology_dim_in_Q_coordinates(C, *key) for key in got}
            seen_homology |= any(got.values())
    assert seen_homology


@pytest.mark.parametrize("field", [GF(32003), QQ], ids=["F32003", "QQ"])
def test_homology_over_R_without_sequence_is_homology_over_Q(field):
    # with c = 0, R = Q
    rng = Random(303)
    ring = random_regular_ring(rng, field, 3, 0)
    for C in _complexes_with_homology(rng, ring):
        over_q = FreeComplex(ring, "Q", C.window, C.twists, C.diffs, support=C.support)
        got = homology_dims(C, C.interior_positions(), 6)
        assert got == homology_dims(over_q, C.interior_positions(), 6)
        assert got == {key: homology_dim_in_Q_coordinates(C, *key) for key in got}
        assert any(got.values())


def test_homology_rejects_lift():
    _, cbar, _ = paper_5_2()
    F = lift_to_Q(cbar)
    with pytest.raises(InvalidInputError):
        homology_dims(F, [0], 4)


@pytest.mark.parametrize("over", ["Q", "R"])
def test_homology_rejects_an_entry_of_the_wrong_degree(over):
    # d_1 = (x + y^2) from twist 1 to twist 0: the term y^2 has degree 2,
    # not 1.  No degree's k-matrix may skip it (over R that gave the dims
    # of d_1 = (x)) or fail on a lookup (over Q a bare KeyError)
    ring = GradedRing(QQ, ["x", "y"], sequence=["x^2", "y^2"])
    C = FreeComplex(
        ring, over, (0, 1), {0: (0,), 1: (1,)}, {1: _mat(ring, [["x + y^2"]])}, support="finite"
    )
    with pytest.raises(
        InvalidInputError, match=r"^entry \(0, 0\) = y\^2 \+ x is not homogeneous of degree 1$"
    ):
        homology_dims(C, [0, 1], 4)


def test_is_minimal():
    _, cbar, _ = paper_5_2()
    assert is_minimal(cbar)
    ring = GradedRing(QQ, ["x"])
    unit = FreeComplex(
        ring, "Q", (0, 1), {0: (0,), 1: (0,)}, {1: _mat(ring, [["1"]])}
    )
    assert not is_minimal(unit)


def test_random_twisted_sum_dims():
    rng = Random(301)
    for _ in range(25):
        twists = tuple(rng.randint(-2, 3) for _ in range(rng.randint(0, 4)))
        d = rng.randint(0, 5)
        assert module_dim(RING, twists, d) == sum(
            RING.dim(d - a) for a in twists
        )
