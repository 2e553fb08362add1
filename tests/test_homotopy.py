"""The homotopy family: golden values, the defining relations, Eisenbud
operator facts, and invariance of downstream homology under the choice of
lift."""

import json
from pathlib import Path
from random import Random

import pytest

from koszul_lift.algebra import GradedRing, Poly, PolyMatrix, matrix_to_json
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
from koszul_lift import algebra, homotopy
from koszul_lift.homotopy import (
    HomotopyFamily,
    checkable_gammas,
    eisenbud_operator_checks,
    pair_sum,
    solve_homotopies,
    verify_relation,
)
from koszul_lift.koszul import koszul_complex, subsets_of_size
from koszul_lift.resolve import Presentation, resolve_over_R
from koszul_lift.samples import random_regular_ring, random_resolved_complex

from oracles import (
    coordinate_changed_ring,
    dense_grid_homotopies,
    entries,
    finite_complex_cases,
    monomial,
    residue_ring,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


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
    # t^{e_1} at 2, [[0, -1, 0]], gains units stored at (0, 2) and then
    # (0, 0); f times them breaks the relation at () in both cells, and the
    # report names (0, 0)
    assert matrix_to_json(fam.maps[(1,)][2]) == [["0", "-1", "0"]]
    one = ring.one
    t2 = PolyMatrix._from_sparse(1, 3, [{1: -one, 2: one, 0: one}], ring.zero)
    bad = HomotopyFamily(fam.base, 1, {(1,): {**fam.maps[(1,)], 2: t2}})
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
            for i, j, p in entries(mat):
                if p.is_zero():
                    continue
                assert p.degree() == fam.entry_degree(
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
        for i, j, p in entries(mat):
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
                p = monomial(ring, m)
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


# -- the solve against the dense grid of cells -------------------------------------


def _assert_family_is_the_dense_grid(F, level):
    # equal maps, and every row of every map holds its columns in the same
    # order, so products of the maps sum their terms in the same order
    fam, dense = solve_homotopies(F, level), dense_grid_homotopies(F, level)
    assert fam.maps == dense.maps
    for alpha, per in fam.maps.items():
        for n, mat in per.items():
            assert [list(row) for row in mat._rows] == [
                list(row) for row in dense.maps[alpha][n]._rows
            ]


def _fixture_lift(name, path):
    ring = GradedRing.from_json_dict(json.loads((FIXTURES / f"{name}_ring.json").read_text()))
    data = json.loads((FIXTURES / path).read_text())
    return lift_to_Q(FreeComplex.from_json_dict(ring, data.get("complex", data)))


@pytest.mark.parametrize(
    "name, path",
    [
        ("golden", "golden_complex.json"),
        ("generic", "resolve_generic_length4.json"),
        ("mixed", "resolve_mixed_length4.json"),
        ("residue", "resolve_residue_length5.json"),
        ("rational", "resolve_rational_length4.json"),
    ],
)
def test_solve_equals_the_dense_grid_on_fixtures(name, path):
    F = _fixture_lift(name, path)
    _assert_family_is_the_dense_grid(F, F.ring.c)


def test_solve_equals_the_dense_grid_on_random_resolutions():
    rng = Random(28)
    for case in range(30):
        field = GF(32003) if case % 2 else QQ
        nvars = rng.randint(1, 3)
        c = rng.randint(1, min(3, nvars))
        ring = random_regular_ring(rng, field, nvars, c)
        F = lift_to_Q(random_resolved_complex(rng, ring, rng.randint(2, 4)))
        _assert_family_is_the_dense_grid(F, c)


def test_solve_equals_the_dense_grid_on_finite_complexes():
    # the first ten cases are over F_32003, the last ten over Q
    for ring, K in finite_complex_cases(Random(29), 20):
        _assert_family_is_the_dense_grid(lift_to_Q(K), ring.c)


def test_solve_gives_no_column_to_a_cell_with_zero_residuals(monkeypatch):
    # every right-hand side handed to solve_graded_linear is nonzero, and
    # there is one for each cell where some residual is nonzero: exactly
    # the nonzero columns of the dense grid's right-hand sides
    def counting(into, real):
        def solve(ring, mat, src, tgt, d, rhs):
            into.extend(bool(col) for col in rhs.column_nonzeros())
            return real(ring, mat, src, tgt, d, rhs)

        return solve

    F = _fixture_lift("mixed", "resolve_mixed_length4.json")
    sparse, dense = [], []
    monkeypatch.setattr(homotopy, "solve_graded_linear", counting(sparse, algebra.solve_graded_linear))
    monkeypatch.setattr(algebra, "solve_graded_linear", counting(dense, algebra.solve_graded_linear))
    solve_homotopies(F, F.ring.c)
    dense_grid_homotopies(F, F.ring.c)
    assert sparse and all(sparse)
    assert len(sparse) == sum(dense) < len(dense)


def test_solve_writes_each_row_in_the_dense_grid_order():
    # F_2 has twists (4, 3) and F_0 twists (0, 1), so the grid's degrees
    # first occur in the order 4, 3, 2, and row 1 of t^{(1)} at 2 holds
    # cells of degree 3 (column 0) and 2 (column 1): it is written column 0
    # first, which ascending degree order would not give
    ring = GradedRing(QQ, ["x", "y"], sequence=["x^2"])
    F = FreeComplex(
        ring,
        "Q",
        (0, 2),
        {0: (0, 1), 1: (1,), 2: (4, 3)},
        {1: PolyMatrix.from_rows([[ring.parse("y")], [ring.one]]),
         2: PolyMatrix.from_rows([[ring.parse("x^2*y"), ring.parse("x^2")]])},
        is_lift=True,
    )
    t = solve_homotopies(F, 1).maps[(1,)][2]
    assert _strs(t) == [["-y^2", "-y"], ["-y", "-1"]]
    assert list(t._rows[1]) == [0, 1]
    _assert_family_is_the_dense_grid(F, 1)


# -- one strand solve per level and entry degree ------------------------------------


def _residue_lift(ring, length, bound):
    """The lift of the minimal resolution of the residue field of R."""
    pres = Presentation((0,), PolyMatrix.from_rows([[ring.parse(v) for v in ring.variables]]))
    return lift_to_Q(resolve_over_R(ring, pres, length, bound))


def _lift_fp_ring():
    return GradedRing(GF(32003), ["x", "y", "z", "w"], sequence=["x^2", "y^2", "z^2", "w^2"])


@pytest.mark.parametrize(
    "make",
    [
        lambda: _fixture_lift("mixed", "resolve_mixed_length4.json"),
        lambda: _residue_lift(_lift_fp_ring(), 5, 6),
    ],
    ids=["mixed", "lift-fp"],
)
def test_solve_makes_one_call_per_level_and_entry_degree(monkeypatch, make):
    # the strand of K_L -> K_{L-1} depends on the level L and the entry
    # degree e alone, so the cells of every position with a nonzero pair sum
    # at (L, e) share one elimination
    F = make()
    c = F.ring.c
    kos = koszul_complex(F.ring)
    calls = []

    def counting(ring, mat, src, tgt, d, rhs):
        calls.append((next(L for L in range(1, c + 1) if mat == kos.diffs[L]), d))
        return algebra.solve_graded_linear(ring, mat, src, tgt, d, rhs)

    monkeypatch.setattr(homotopy, "solve_graded_linear", counting)
    fam = solve_homotopies(F, c)
    wanted = {}  # (L, e) -> the positions with a nonzero pair sum there
    for L in range(1, c + 1):
        below = HomotopyFamily(F, L - 1, {a: m for a, m in fam.maps.items() if len(a) < L})
        for n in F.positions():
            if not (F.known_rank(n) and F.known_rank(n - L - 1)):
                continue
            tgt_tw = F.known_twist(n - L - 1)
            for gamma in subsets_of_size(c, L - 1):
                for r, s_, _ in pair_sum(below, gamma, n).nonzeros():
                    wanted.setdefault((L, F.twists[n][s_] - tgt_tw[r]), set()).add(n)
    assert sorted(calls) == sorted(wanted)
    # a solve per position would call more than once at these
    assert any(len(positions) > 1 for positions in wanted.values())


def test_solver_names_the_lowest_inconsistent_position():
    # over k[x,y,z] with f = x^2, d_1 d_2 = [x^2, x*z] and d_2 d_3 =
    # [[x*y], [0]]: one entry degree, 2, fails at position 2, entry (0,1),
    # and at position 3, entry (0,0); the lower position is named
    ring = GradedRing(QQ, ["x", "y", "z"], sequence=["x^2"])
    x, y, z, zero = ring.parse("x"), ring.parse("y"), ring.parse("z"), ring.zero
    F = FreeComplex(
        ring,
        "Q",
        (0, 3),
        {0: (0,), 1: (1, 1), 2: (2, 2), 3: (3,)},
        {1: PolyMatrix.from_rows([[x, y]]),
         2: PolyMatrix.from_rows([[x, z], [zero, zero]]),
         3: PolyMatrix.from_rows([[y], [zero]])},
        is_lift=True,
    )
    with pytest.raises(InvalidInputError) as exc:
        solve_homotopies(F, 1)
    assert str(exc.value) == (
        "homotopy system inconsistent at level 1, position 2, entry (0,1); "
        "the input is not a lift of an R-complex"
    )


@pytest.mark.parametrize("field", [GF(32003), QQ], ids=["F32003", "QQ"])
def test_solve_equals_the_dense_grid_at_scale(field):
    ring = residue_ring(field)
    _assert_family_is_the_dense_grid(_residue_lift(ring, 6, 12), ring.c)
    ring = coordinate_changed_ring(ring)
    _assert_family_is_the_dense_grid(_residue_lift(ring, 5, 9), ring.c)
