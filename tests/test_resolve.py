"""Minimal graded free resolutions over R by syzygy extraction."""

import json
import sys
from pathlib import Path
from random import Random

import pytest

from koszul_lift import linalg
from koszul_lift.algebra import GradedRing, PolyMatrix, graded_matrix_rows
from koszul_lift.complexes import check_complex, homology_dims, is_minimal
from koszul_lift.errors import DegreeBoundTooLowError, InvalidInputError
from koszul_lift.fields import GF, QQ
from koszul_lift.resolve import Presentation, resolve_over_R
from koszul_lift.samples import random_presentation, random_regular_ring

from oracles import coordinate_changed_ring, minimal_generators_in_Q_coordinates, residue_ring

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _mat(ring, rows, ncols=None):
    return PolyMatrix.from_rows(
        [[ring.parse(e) for e in row] for row in rows], ncols=ncols
    )


def _residue_presentation(ring):
    # k = R / (all variables)
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


@pytest.mark.parametrize(
    "length, bound, what",
    [(True, 6, "length"), (2.0, 6, "length"), ("2", 6, "length"),
     (2, 6.5, "degree bound"), (2, "6", "degree bound"), (2, True, "degree bound")],
    ids=repr,
)
def test_resolve_rejects_a_length_or_degree_bound_that_is_not_an_int(length, bound, what):
    # length=True once fell through to an accidental "window bound" error
    ring = GradedRing(QQ, ["x", "y"], sequence=["x^2", "y^2"])
    with pytest.raises(InvalidInputError, match=f"^{what} must be an integer"):
        resolve_over_R(ring, _residue_presentation(ring), length, bound)


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


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "F7"])
def test_zero_target_piece_makes_unit_candidates(monkeypatch, field):
    # with f = () the ring Q[x]/(x^2) is Artinian: at step n the target
    # piece vanishes in degree n, where the source piece is spanned by x,
    # so that basis vector is a syzygy candidate with no elimination
    from koszul_lift import cli, resolve

    ring = GradedRing(field, ["x"], relations=["x^2"])
    pres = Presentation((0,), _mat(ring, [["x"]]))
    syzygy_candidates = resolve._syzygy_candidates
    nullspace_columns = linalg.nullspace_columns
    yielded, eliminated = [], []

    def recording_candidates(*args):
        for d, vecs in syzygy_candidates(*args):
            yielded.append((d, vecs))
            yield d, vecs

    def recording_nullspace(fld, cols, nrows):
        eliminated.append(nrows)
        return nullspace_columns(fld, cols, nrows)

    monkeypatch.setattr(resolve, "_syzygy_candidates", recording_candidates)
    monkeypatch.setattr(linalg, "nullspace_columns", recording_nullspace)
    C = resolve_over_R(ring, pres, 4, 6)
    assert C.twists == {n: (n,) for n in range(5)}
    assert all(str(C.diffs[n].entry(0, 0)) == "x" for n in range(1, 5))
    # step n eliminates only in degree n - 1, where x kills nothing
    assert [(d, vecs) for d, vecs in yielded if vecs] == [
        (n, [{0: field.one}]) for n in (2, 3, 4)
    ]
    assert eliminated == [1, 1, 1]

    checks, _ = cli._verify_input(ring, C, 8)
    assert len(checks) == 8 and all(c["ok"] for c in checks), checks


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


@pytest.mark.parametrize(
    "name, length, bound", [("mixed", 4, 9), ("residue", 5, 6)], ids=["mixed", "residue"]
)
def test_resolve_builds_no_dense_rows(monkeypatch, name, length, bound):
    # resolve eliminates sparse coordinate columns only: the dense view
    # ``graded_matrix_rows`` and the list-row scan ``linalg._dict_rows`` are
    # patched to raise under every name any package module holds them by
    def forbidden(*args, **kwargs):
        raise AssertionError("dense rows built on the resolve path")

    dense = {id(graded_matrix_rows), id(linalg._dict_rows)}
    for modname, module in list(sys.modules.items()):
        if module is None or modname.split(".")[0] != "koszul_lift":
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in dense:
                monkeypatch.setattr(module, attr, forbidden)
    ring = GradedRing.from_json_dict(json.loads((FIXTURES / f"{name}_ring.json").read_text()))
    pres = Presentation.from_json_dict(
        ring, json.loads((FIXTURES / f"{name}_presentation.json").read_text())
    )
    golden = json.loads((FIXTURES / f"resolve_{name}_length{length}.json").read_text())
    assert resolve_over_R(ring, pres, length, bound).to_json_dict() == golden["complex"]


def test_residue_resolution_agrees_over_q_and_f_p():
    # the residue field over k[x,y,z,w]/(w^2) with f = (x^2, y^2, z^3), at
    # length 5 and bound 11: the largest eliminations over Q in the suite,
    # where coefficient growth in the rational kernel would show.  The
    # Betti numbers do not depend on the field here, so both resolutions
    # have the same twists, and both pass the full verify battery
    from koszul_lift import cli

    twists = {}
    for field in (QQ, GF(32003)):
        ring = GradedRing(
            field, ["x", "y", "z", "w"], relations=["w^2"], sequence=["x^2", "y^2", "z^3"]
        )
        C = resolve_over_R(ring, _residue_presentation(ring), 5, 11)
        twists[field] = C.twists
        checks, _ = cli._verify_input(ring, C, 8)
        assert len(checks) == 8 and all(c["ok"] for c in checks), (field, checks)
    assert twists[QQ] == twists[GF(32003)]


def _fixture_inputs(name):
    ring = GradedRing.from_json_dict(json.loads((FIXTURES / f"{name}_ring.json").read_text()))
    pres = Presentation.from_json_dict(
        ring, json.loads((FIXTURES / f"{name}_presentation.json").read_text())
    )
    return ring, pres


def _nakayama_cases():
    """(name, ring, presentation, length, bound) for the pick oracle: seeded
    ``samples`` inputs over F_32003 and Q, the four resolve fixtures at
    their golden lengths and bounds, and the coordinate-changed residue
    ring over both fields."""
    rng = Random(907)
    for field in (GF(32003), QQ):
        for k in range(12):
            c = 1 + k % 2
            ring = random_regular_ring(rng, field, rng.randint(c, 3), c)
            yield f"F{field.char}/sample{k}", ring, random_presentation(rng, ring, 3, 3), 4, 9
    fixtures = [("generic", 4, 5), ("rational", 4, 5), ("mixed", 4, 9), ("residue", 5, 6)]
    for name, length, bound in fixtures:
        yield name, *_fixture_inputs(name), length, bound
    for field in (GF(32003), QQ):
        ring = coordinate_changed_ring(residue_ring(field))
        yield f"F{field.char}/changed", ring, _residue_presentation(ring), 3, 6


def test_nakayama_modulo_the_f_span_picks_as_in_q_coordinates(monkeypatch):
    # every step of every case runs the Q-coordinate Nakayama step of
    # tests/oracles.py beside resolve's own, which works modulo W_d, on the
    # same candidates: the degrees and columns agree pick for pick
    from koszul_lift import resolve

    minimal_generators = resolve._minimal_generators
    steps = []

    def both(ring, twists, candidates):
        candidates = list(candidates)
        got = minimal_generators(ring, twists, candidates)
        assert got == minimal_generators_in_Q_coordinates(ring, twists, candidates)
        steps.append(len(got[0]))
        return got

    monkeypatch.setattr(resolve, "_minimal_generators", both)
    picked = {}
    for name, ring, pres, length, bound in _nakayama_cases():
        steps.clear()
        try:
            resolve_over_R(ring, pres, length, bound)
        except DegreeBoundTooLowError:
            pass
        picked[name] = sum(steps)
    # some random modules are free over R or stop at the bound; most are not
    assert sum(map(bool, picked.values())) >= 0.6 * len(picked), picked
    assert all(picked[name] for name in picked if "sample" not in name), picked


@pytest.mark.parametrize("field", [GF(32003), QQ], ids=["F32003", "QQ"])
def test_coordinate_change_of_the_sequence_keeps_graded_betti_numbers(field):
    # x, y, z -> three independent linear forms fixes J = (w^2) and keeps
    # f regular; the residue field's presentation is fixed too, so its
    # resolution has the same graded twists.  Each f_i is now a power of a
    # linear form, so normal forms in R spread over several basis monomials
    # (over F_p too), and the changed resolution passes verify
    from koszul_lift import cli

    plain = residue_ring(field)
    changed = coordinate_changed_ring(plain)
    assert any(len(form) > 1 for form in changed.quotient_basis(3)[1].values())
    C = resolve_over_R(changed, _residue_presentation(changed), 4, 7)
    assert C.twists == resolve_over_R(plain, _residue_presentation(plain), 4, 7).twists
    checks, _ = cli._verify_input(changed, C, 7)
    assert len(checks) == 8 and all(c["ok"] for c in checks), checks
