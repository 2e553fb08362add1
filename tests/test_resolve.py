"""Minimal graded free resolutions over R by syzygy extraction."""

from random import Random

import pytest

from koszul_lift.algebra import GradedRing, PolyMatrix
from koszul_lift.complexes import check_complex, homology_dims, is_minimal
from koszul_lift.errors import DegreeBoundTooLowError, InvalidInputError
from koszul_lift.fields import GF, QQ
from koszul_lift.resolve import Presentation, resolve_over_R
from koszul_lift.samples import random_presentation, random_regular_ring


def _mat(ring, rows, ncols=None):
    return PolyMatrix.from_rows(
        [[ring.parse(e) for e in row] for row in rows], ncols=ncols
    )


def _residue_presentation(ring):
    # k = R / (all variables)
    cols = [[ring.var(v)] for v in ring.variables]
    rows = [[col[0] for col in cols]]
    return Presentation((0,), _mat(ring, [[v for v in ring.variables]]))


def test_residue_field_betti_numbers_c1():
    # R = k[x,y]/(x^2, y^2) presented over Q = k[x,y]/(x^2) with f = y^2:
    # the minimal resolution of k has betti numbers 1, 2, 3, ...
    ring = GradedRing(QQ, ["x", "y"], relations=["x^2"], sequence=["y^2"])
    C = resolve_over_R(ring, _residue_presentation(ring), 5, 12)
    betti = [len(C.twists[n]) for n in C.positions()]
    assert betti == [1, 2, 3, 4, 5, 6]
    assert check_complex(C).ok
    assert is_minimal(C)
    assert C.support == "bounded_below"


def test_residue_field_betti_numbers_c2():
    # same R presented as Q = k[x,y] with f = (x^2, y^2): identical betti
    ring = GradedRing(QQ, ["x", "y"], sequence=["x^2", "y^2"])
    C = resolve_over_R(ring, _residue_presentation(ring), 5, 12)
    betti = [len(C.twists[n]) for n in C.positions()]
    assert betti == [1, 2, 3, 4, 5, 6]
    assert check_complex(C).ok
    assert is_minimal(C)


def test_resolution_is_exact_in_positive_positions():
    ring = GradedRing(QQ, ["x", "y"], sequence=["x^2", "y^2"])
    C = resolve_over_R(ring, _residue_presentation(ring), 5, 12)
    dims = homology_dims(C, [0, 1, 2, 3, 4], 8)
    # H_0 = k in degree 0, nothing else anywhere
    assert dims[(0, 0)] == 1
    assert all(v == 0 for key, v in dims.items() if key != (0, 0))


def test_hypersurface_module_is_two_periodic():
    # R/(u) over R = k[u,v]/(uv): betti numbers all 1, maps alternate u, v
    ring = GradedRing(QQ, ["u", "v"], sequence=["u*v"])
    pres = Presentation((0,), _mat(ring, [["u"]]))
    C = resolve_over_R(ring, pres, 4, 10)
    betti = [len(C.twists[n]) for n in C.positions()]
    assert betti == [1, 1, 1, 1, 1]
    # the deterministic normalization picks -v for the syzygy of u
    entries = [str(C.diffs[n].rows[0][0]) for n in range(1, 5)]
    assert entries == ["u", "-v", "u", "-v"]


def test_presentation_validation():
    ring = GradedRing(QQ, ["x", "y"], sequence=["x^2"])
    with pytest.raises(InvalidInputError):
        Presentation((0,), _mat(ring, [["1"]])).column_degrees(ring)  # unit
    with pytest.raises(InvalidInputError):
        Presentation(
            (0, 0), _mat(ring, [["x"], ["x + x*y"]])
        ).column_degrees(ring)  # inhomogeneous entry
    with pytest.raises(InvalidInputError):
        # rows force different degrees within one column
        Presentation((0, 1), _mat(ring, [["x"], ["y"]])).column_degrees(ring)
    with pytest.raises(InvalidInputError):
        Presentation((0, 0), _mat(ring, [["x"]]))  # row count mismatch


def test_presentation_json_roundtrip():
    ring = GradedRing(QQ, ["x", "y"], sequence=["x^2", "y^2"])
    pres = _residue_presentation(ring)
    again = Presentation.from_json_dict(ring, pres.to_json_dict())
    assert again.twists == pres.twists
    assert again.relations == pres.relations


def test_degree_bound_too_low():
    ring = GradedRing(QQ, ["x", "y"], sequence=["x^2", "y^2"])
    with pytest.raises(DegreeBoundTooLowError):
        resolve_over_R(ring, _residue_presentation(ring), 5, 4)


def test_redundant_presentation_columns_are_pruned():
    ring = GradedRing(QQ, ["x", "y"], sequence=["x^2", "y^2"])
    # y and 2y generate the same column space; x*y is a multiple of both
    pres = Presentation((0,), _mat(ring, [["y", "2*y", "x*y", "x"]]))
    C = resolve_over_R(ring, pres, 2, 10)
    assert len(C.twists[1]) == 2  # minimal generators: y and x only
    assert is_minimal(C)


def test_nakayama_base_holds_multiples_of_every_lower_generator():
    # z^2*y is a multiple of y two degrees down and x^2*z lies in (f): the
    # degree-3 base must hold W_3 and the multiples of generators of every
    # lower degree, not only of degree 2, where there is none
    ring = GradedRing(QQ, ["x", "y", "z"], sequence=["x^2"])
    pres = Presentation((0,), _mat(ring, [["y", "z^2*y", "x^2*z"]]))
    C = resolve_over_R(ring, pres, 1, 6)
    assert C.twists[1] == (1,)
    assert str(C.diffs[1].rows[0][0]) == "y"


def test_randomized_resolutions_check_out():
    rng = Random(601)
    field = GF(32003)
    for _ in range(10):
        nvars = rng.randint(1, 3)
        c = rng.randint(1, min(2, nvars))
        ring = random_regular_ring(rng, field, nvars, c)
        pres = random_presentation(rng, ring)
        C = resolve_over_R(ring, pres, rng.randint(2, 4), 12)
        assert check_complex(C).ok, (ring.sequence, pres.twists)
        assert is_minimal(C)
        # first differential columns present the module relations minimally
        dims = homology_dims(C, list(range(0, len(C.twists) - 1)), 8)
        for (n, d), v in dims.items():
            if n > 0:
                assert v == 0
