"""The homotopy family: golden values, the defining relations, Eisenbud
operator facts, and invariance of downstream homology under the choice of
lift."""

from random import Random

import pytest

from koszul_lift.algebra import GradedRing, Poly, PolyMatrix
from koszul_lift.assembly import assemble
from koszul_lift.builtin_examples import paper_5_2, periodic_factorization
from koszul_lift.complexes import (
    FreeComplex,
    check_complex,
    homology_dims,
    lift_to_Q,
)
from koszul_lift.errors import InvalidInputError, LevelTooLowError, ParseError
from koszul_lift.fields import GF, QQ
from koszul_lift.homotopy import (
    HomotopyFamily,
    checkable_gammas,
    eisenbud_operator_checks,
    solve_homotopies,
    verify_relation,
)
from koszul_lift.samples import random_regular_ring, random_resolved_complex


def _strs(mat):
    return [[str(p) for p in row] for row in mat.rows]


def test_golden_homotopies():
    _, cbar, expected = paper_5_2()
    F = lift_to_Q(cbar)
    fam = solve_homotopies(F, 1)
    assert fam.level == 1
    t = fam.maps[(1,)]
    assert _strs(t[2]) == [["0", "-1", "0"]]
    assert _strs(t[1]) == [["0", "-x"]]
    assert _strs(t[0]) == [["0"], ["-x"]]
    assert set(t) == {0, 1, 2}
    # frozen copy used by the CLI stays in sync
    for n, rows in expected["homotopies"].items():
        assert _strs(t[int(n)]) == rows


def test_base_map_is_differential():
    _, cbar, _ = paper_5_2()
    F = lift_to_Q(cbar)
    fam = solve_homotopies(F, 1)
    for n in range(-1, 3):
        assert fam.map((), n) == F.differential(n)


def test_relations_verify_on_golden():
    _, cbar, _ = paper_5_2()
    fam = solve_homotopies(lift_to_Q(cbar), 1)
    gammas = list(checkable_gammas(fam))
    assert (1,) in gammas  # c = 1 = level: top relation closes
    for g in gammas:
        rep = verify_relation(fam, g)
        assert rep.ok, (g, rep.first_failure)


def test_relation_catches_tampering():
    _, cbar, _ = paper_5_2()
    fam = solve_homotopies(lift_to_Q(cbar), 1)
    ring = fam.ring
    bad_maps = {(1,): dict(fam.maps[(1,)])}
    t2 = bad_maps[(1,)][2]
    rows = [[p for p in row] for row in t2.rows]
    rows[0][1] = rows[0][1] + ring.one  # -1 -> 0
    bad_maps[(1,)][2] = PolyMatrix.from_rows(rows, ncols=t2.ncols)
    bad = HomotopyFamily(fam.base, 1, bad_maps)
    rep = verify_relation(bad, (1,))
    assert not rep.ok
    assert rep.first_failure is not None


def test_relation_reports_the_row_major_first_failure():
    _, cbar, _ = paper_5_2()
    fam = solve_homotopies(lift_to_Q(cbar), 1)
    ring = fam.ring
    # t^{e_1} at 2 gains units at (0, 2) and then (0, 0); f times them breaks
    # the relation at () in both cells, and the report names (0, 0)
    t2 = fam.maps[(1,)][2]
    one, z = ring.one, ring.zero
    bump = PolyMatrix.from_rows([[z, z, one]]).add(PolyMatrix.from_rows([[one, z, z]]))
    bad = HomotopyFamily(fam.base, 1, {(1,): {**fam.maps[(1,)], 2: t2.add(bump)}})
    rep = verify_relation(bad, ())
    assert not rep.ok
    assert rep.first_failure == (2, 0, 0)


def test_solver_rejects_non_lift():
    # a "lift" whose square is not divisible by f is inconsistent
    ring = GradedRing(QQ, ["x", "y"], sequence=["y^2"])
    F = FreeComplex(
        ring,
        "Q",
        (0, 2),
        {0: (0,), 1: (1,), 2: (2,)},
        {1: PolyMatrix.from_rows([[ring.parse("x")]]),
         2: PolyMatrix.from_rows([[ring.parse("y")]])},
        is_lift=True,
    )
    with pytest.raises(InvalidInputError):
        solve_homotopies(F, 1)


def test_solver_names_first_inconsistent_entry_across_entry_degrees():
    # d_1 d_2 = [[x^2, x*y^2], [x*y, 0]] over Q = k[x,y]/(y^3), f = x^2:
    # entries (0,1) (degree 3) and (1,0) (degree 2) are not in (f); the
    # degree-2 entries come first in row-major order, but (0,1) is the
    # first inconsistent entry
    ring = GradedRing(QQ, ["x", "y"], relations=["y^3"], sequence=["x^2"])
    F = FreeComplex(
        ring,
        "Q",
        (0, 2),
        {0: (0, 0), 1: (1,), 2: (2, 3)},
        {1: PolyMatrix.from_rows([[ring.parse("x")], [ring.parse("y")]]),
         2: PolyMatrix.from_rows([[ring.parse("x"), ring.parse("y^2")]])},
        is_lift=True,
    )
    with pytest.raises(InvalidInputError) as exc:
        solve_homotopies(F, 1)
    assert str(exc.value) == (
        "homotopy system inconsistent at level 1, position 2, entry (0,1); "
        "the input is not a lift of an R-complex"
    )


def test_solver_rejects_wrong_degree_entry_before_solving():
    _, cbar, _ = paper_5_2()
    rows = [list(row) for row in cbar.diffs[1].rows]
    rows[0][0] = cbar.ring.parse("y^3")
    diffs = dict(cbar.diffs)
    diffs[1] = PolyMatrix.from_rows(rows)
    bad = FreeComplex(cbar.ring, "R", cbar.window, cbar.twists, diffs, cbar.support)
    expected = check_complex(bad).first()
    assert expected.kind == "homogeneity"
    with pytest.raises(InvalidInputError) as exc:
        solve_homotopies(lift_to_Q(bad), 1)
    assert str(exc.value) == expected.detail


def test_solver_level_bounds():
    _, cbar, _ = paper_5_2()
    F = lift_to_Q(cbar)
    base_only = solve_homotopies(F, 0)  # allowed: just the lift
    assert base_only.level == 0 and not base_only.maps
    with pytest.raises(InvalidInputError):
        solve_homotopies(F, -1)
    with pytest.raises(InvalidInputError):
        solve_homotopies(F, 2)  # level exceeds c = 1


def test_homotopy_degree_forcing():
    # t^alpha at n maps F_n -> F_{n-|alpha|-1}; each entry is homogeneous
    # of degree src_twist - tgt_twist - sum(deg f_i, i in alpha)
    rng = Random(401)
    ring = random_regular_ring(rng, QQ, 2, 2)
    cbar = random_resolved_complex(rng, ring, 4)
    F = lift_to_Q(cbar)
    fam = solve_homotopies(F, 2)
    for alpha, per_n in fam.maps.items():
        for n, mat in per_n.items():
            src = F.twists[n]
            tgt = F.twists.get(n - len(alpha) - 1)
            if tgt is None:
                continue
            for i, j, p in mat.entries():
                if p.is_zero():
                    continue
                assert p.homogeneous_degree() == fam.entry_degree(
                    alpha, src[j], tgt[i]
                )
    for g in checkable_gammas(fam):
        assert verify_relation(fam, g).ok


def test_randomized_relations_c2_c3():
    rng = Random(402)
    field = GF(32003)
    for _ in range(6):
        nvars = rng.randint(2, 3)
        c = rng.randint(2, min(3, nvars))
        ring = random_regular_ring(rng, field, nvars, c)
        cbar = random_resolved_complex(rng, ring, rng.randint(3, 4))
        fam = solve_homotopies(lift_to_Q(cbar), c)
        for g in checkable_gammas(fam):
            rep = verify_relation(fam, g)
            assert rep.ok, (ring.sequence, g, rep.first_failure)


def test_family_json_roundtrip():
    _, cbar, _ = paper_5_2()
    F = lift_to_Q(cbar)
    fam = solve_homotopies(F, 1)
    data = fam.to_json_dict()
    again = HomotopyFamily.from_json_dict(F, data)
    assert again.level == fam.level
    assert again.maps == fam.maps
    assert again.to_json_dict() == data


def test_eisenbud_checks_c1_and_c2():
    _, cbar, _ = paper_5_2()
    fam = solve_homotopies(lift_to_Q(cbar), 1)
    rep = eisenbud_operator_checks(fam)
    assert rep.ok
    assert len(rep.chain_maps) == 1
    assert not rep.commutators  # no pairs at c = 1

    rng = Random(403)
    ring = random_regular_ring(rng, QQ, 2, 2)
    cbar2 = random_resolved_complex(rng, ring, 4)
    fam2 = solve_homotopies(lift_to_Q(cbar2), 2)
    rep2 = eisenbud_operator_checks(fam2)
    assert rep2.ok
    assert len(rep2.chain_maps) == 2
    assert len(rep2.commutators) == 1


def test_family_json_keys_are_subset_lists():
    rng = Random(403)
    ring = random_regular_ring(rng, QQ, 2, 2)
    F = lift_to_Q(random_resolved_complex(rng, ring, 4))
    fam = solve_homotopies(F, 2)
    data = fam.to_json_dict()
    assert list(data["maps"]) == ["[1]", "[2]", "[1,2]"]
    again = HomotopyFamily.from_json_dict(F, data)
    assert again.maps == fam.maps


@pytest.mark.parametrize(
    "change",
    [
        {"level": "x"},
        {"level": True},
        {"maps": []},
        {"maps": {"[1,a]": {}}},
        {"maps": {"[1.0]": {}}},
        {"maps": {"[true]": {}}},
        {"maps": {"[2]": {}}},  # outside 1..c
        {"maps": {"[]": {}}},
        {"maps": {"null": {}}},
        {"maps": {"[1]": []}},
        {"maps": {"[1]": {"1.5": [["0", "-x"]]}}},
        {"maps": {"[1]": {"7": [["0"]]}}},  # outside the window
        {"maps": {"[1]": {"1": [["0", "-x", "0"]]}}},  # wrong shape
        {"maps": {"[1]": {"1": ["xy"]}}},  # a string row, not ["x", "y"]
        {"maps": {"[1]": {"1": [["0", 7]]}}},
        {"level": 5},  # outside 0..c
        {"level": -3},
        {"level": 0},  # holds a [1] map above its level
    ],
)
def test_family_json_rejects_malformed_input(change):
    _, cbar, _ = paper_5_2()
    F = lift_to_Q(cbar)
    data = {**solve_homotopies(F, 1).to_json_dict(), **change}
    with pytest.raises(ParseError):
        HomotopyFamily.from_json_dict(F, data)


@pytest.mark.parametrize(
    "level, maps",
    [
        # the window gives t^{e_1} at 2 the shape 1x3
        (1, lambda F, t: {(1,): {**t, 2: PolyMatrix.zeros(F.ring, 2, 2)}}),
        (5, lambda F, t: {(1,): t}),  # outside 0..c
        (1, lambda F, t: {(1,): t, (2,): t}),  # outside 1..c
        (0, lambda F, t: {(1,): t}),  # a [1] map above the level
    ],
    ids=["shape", "level", "key", "key-above-level"],
)
def test_family_constructor_rejects_bad_levels_keys_and_shapes(level, maps):
    _, cbar, _ = paper_5_2()
    F = lift_to_Q(cbar)
    t = solve_homotopies(F, 1).maps[(1,)]
    with pytest.raises(InvalidInputError):
        HomotopyFamily(F, level, maps(F, t))


def _perturbed(fam, alpha, n, r, s, p):
    """The family with p added to entry (r, s) of t^alpha at position n."""
    maps = {a: dict(pos) for a, pos in fam.maps.items()}
    rows = [list(row) for row in maps[alpha][n].rows]
    rows[r][s] = rows[r][s] + p
    maps[alpha][n] = PolyMatrix.from_rows(rows, ncols=len(rows[0]))
    return HomotopyFamily(fam.base, fam.level, maps)


def _first_outside_f(ring, deltas):
    """First (position, row, col) of an entry outside (f), positions in the
    order given."""
    for n, mat in deltas:
        for i, j, p in mat.entries():
            if not ring.in_sequence_ideal(p):
                return (n, i, j)
    return None


def test_eisenbud_checks_catch_a_perturbed_family():
    # c = 1: t^{e_1} at position 2 is [0 -1 0]; adding 1 to the middle entry
    # changes d t^{e_1} by x*y, which is not in (y^2)
    _, cbar, _ = paper_5_2()
    fam = solve_homotopies(lift_to_Q(cbar), 1)
    rep = eisenbud_operator_checks(_perturbed(fam, (1,), 2, 0, 1, fam.ring.one))
    assert not rep.ok
    assert not rep.chain_maps[1].ok
    assert rep.chain_maps[1].first_failure == (2, 0, 1)

    # c = 2: add a monomial outside (f) to one entry h = t^{e_1 e_2} at n.
    # The commutator residual is linear in h and lies in (f) before the
    # change, so it fails exactly where d h (at n) or h d (at n + 1) leaves
    # (f).
    rng = Random(404)
    ring = random_regular_ring(rng, QQ, 3, 2)  # f = (x^2, y), t^{e_1 e_2} != 0
    F = lift_to_Q(random_resolved_complex(rng, ring, 4))
    fam = solve_homotopies(F, 2)
    checked = eisenbud_operator_checks(fam).commutators[(1, 2)].positions
    found = None
    for n in sorted(fam.maps[(1, 2)]):
        h = fam.maps[(1, 2)][n]
        tgt_tw = F.known_twist(n - 3)
        for r, s_ in ((r, s_) for r in range(h.nrows) for s_ in range(h.ncols)):
            e = fam.entry_degree((1, 2), F.twists[n][s_], tgt_tw[r])
            for m in ring.monomial_basis(e) if e >= 0 else ():
                p = ring.monomial(m)
                if ring.in_sequence_ideal(p):
                    continue
                rows = [[ring.zero] * h.ncols for _ in range(h.nrows)]
                rows[r][s_] = p
                E = PolyMatrix.from_rows(rows, ncols=h.ncols)
                deltas = []
                if n in checked:
                    deltas.append((n, F.differential(n - 3).mul(E, ring)))
                if n + 1 in checked:
                    deltas.append((n + 1, E.mul(F.differential(n + 1), ring)))
                first = _first_outside_f(ring, deltas)
                if first is not None:
                    found = (n, r, s_, p, first)
                    break
            if found:
                break
        if found:
            break
    assert found is not None
    n, r, s_, p, first = found
    rep = eisenbud_operator_checks(_perturbed(fam, (1, 2), n, r, s_, p))
    assert not rep.ok
    assert all(item.ok for item in rep.chain_maps.values())
    assert not rep.commutators[(1, 2)].ok
    assert rep.commutators[(1, 2)].first_failure == first


def test_eisenbud_checks_need_level():
    rng = Random(404)
    ring = random_regular_ring(rng, QQ, 2, 2)
    cbar = random_resolved_complex(rng, ring, 3)
    fam = solve_homotopies(lift_to_Q(cbar), 1)  # level 1 < c = 2
    with pytest.raises(InvalidInputError):
        eisenbud_operator_checks(fam)


def test_homology_invariant_under_lift_choice():
    # perturb one lift entry by an element of (f) of matching degree; the
    # solved family differs but the assembled homology does not
    _, cbar, _ = paper_5_2()
    F = lift_to_Q(cbar)
    ring = F.ring
    fam = solve_homotopies(F, 1)
    P = assemble(F, fam)
    base = homology_dims(P.complex, [0, 1], 8)

    diffs = dict(F.diffs)
    d0 = diffs[0]  # the degree-2 entry x*y; adding y^2 keeps it a lift
    rows = [[p for p in row] for row in d0.rows]
    rows[0][0] = rows[0][0] + ring.parse("y^2")
    diffs[0] = PolyMatrix.from_rows(rows, ncols=d0.ncols)
    F2 = FreeComplex(
        ring, "Q", F.window, F.twists, diffs, support=F.support, is_lift=True
    )
    fam2 = solve_homotopies(F2, 1)
    assert fam2.maps != fam.maps  # genuinely different family
    P2 = assemble(F2, fam2)
    assert check_complex(P2.complex).ok
    other = homology_dims(P2.complex, [0, 1], 8)
    assert other == base


def test_periodic_homotopy_is_unit():
    _, cbar = periodic_factorization()
    fam = solve_homotopies(lift_to_Q(cbar), 1)
    for n, mat in fam.maps[(1,)].items():
        assert _strs(mat) == [["-1"]]
